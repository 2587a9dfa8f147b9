package kvd

import (
	"context"
	"io"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"qsense/internal/workload"
)

// The shutdown-vs-fault interleavings: every path out of a connection —
// drain, idle timeout, memory pressure, panic — must end with the leased
// map handle back in the pool (AcquiredHandles == ReleasedHandles once no
// connection is live).

// leasesBalanced asserts no handle leaked: the difference between leases
// granted and returned must equal the live connection count (0 after a
// drain). Polls briefly — a closing handler releases a beat after the
// socket dies.
func leasesBalanced(t *testing.T, s *Server, context string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := s.Stats()
		held := int64(st.AcquiredHandles) - int64(st.ReleasedHandles)
		if held == int64(s.LiveConns()) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d leases held with %d live conns", context, held, s.LiveConns())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestShutdownWithStalledConn: a connection that dialed and went silent
// holds a leased handle with its handler parked in a read. Concurrent
// Shutdowns must wake it, drain completely, and report every lease back.
func TestShutdownWithStalledConn(t *testing.T) {
	s, addr := startServer(t, Config{Scheme: "qsbr"})
	stalled := dialClient(t, addr) // never sends a byte
	_ = stalled
	healthy := dialClient(t, addr)
	if rp := healthy.do(t, "PING"); rp.Str != "PONG" {
		t.Fatalf("healthy conn: %+v", rp)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := s.Shutdown(ctx); err != nil {
				t.Errorf("Shutdown %d with stalled conn: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if live := s.LiveConns(); live != 0 {
		t.Fatalf("%d conns live after drain", live)
	}
	leasesBalanced(t, s, "after shutdown with stalled conn")
}

// TestAcquireWaitCancelledByShutdown: at a full HardMaxConns cap a queued
// connection is parked in AcquireWait; Shutdown must cancel the wait (the
// conn draws "-ERR server draining" or a close, never a hang) and the drain
// must account for every lease.
func TestAcquireWaitCancelledByShutdown(t *testing.T) {
	s, addr := startServer(t, Config{HardMaxConns: 1})
	first := dialClient(t, addr)
	if rp := first.do(t, "PING"); rp.Str != "PONG" {
		t.Fatalf("first conn: %+v", rp)
	}
	queued := dialClient(t, addr)
	queued.wr.Command("PING")
	if err := queued.wr.Flush(); err != nil {
		t.Fatal(err)
	}
	// Confirm it is actually parked before shutting down.
	queued.c.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	if _, err := queued.rd.ReadReply(); err == nil {
		t.Fatal("queued conn served past the cap")
	}
	queued.c.SetReadDeadline(time.Now().Add(10 * time.Second))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with queued AcquireWait: %v", err)
	}
	// The queued conn must have been answered or closed — not left hanging.
	if rp, err := queued.rd.ReadReply(); err == nil {
		if !rp.IsError() || !strings.Contains(rp.Str, "draining") {
			// It may have won the freed lease in the race with cancel and
			// then been drained; PONG is acceptable, a hang is not.
			if rp.Str != "PONG" {
				t.Fatalf("queued conn got unexpected reply %+v", rp)
			}
		}
	}
	leasesBalanced(t, s, "after shutdown with queued AcquireWait")
}

// TestIdleTimeoutReleasesStalledLease: with IdleTimeout set, a silent
// connection is disconnected and its lease released while a healthy
// slower-paced client (always inside the deadline) keeps its connection.
func TestIdleTimeoutReleasesStalledLease(t *testing.T) {
	s, addr := startServer(t, Config{Scheme: "qsbr", IdleTimeout: 100 * time.Millisecond})
	stalled := dialClient(t, addr) // never speaks
	healthy := dialClient(t, addr)
	// Each command re-arms the healthy conn's deadline; pace well inside it.
	for i := 0; i < 6; i++ {
		if rp := healthy.do(t, "PING"); rp.Str != "PONG" {
			t.Fatalf("healthy conn dropped at iteration %d: %+v", i, rp)
		}
		time.Sleep(50 * time.Millisecond)
	}
	// By now (300ms >> IdleTimeout) the stalled conn must be gone: its
	// socket reports the courtesy error and then EOF.
	stalled.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if rp, err := stalled.rd.ReadReply(); err == nil {
		if !rp.IsError() || !strings.Contains(rp.Str, "idle timeout") {
			t.Fatalf("stalled conn got %+v, want idle-timeout error", rp)
		}
	}
	if _, err := stalled.rd.ReadReply(); err == nil {
		t.Fatal("stalled conn still open after idle timeout")
	}
	stats := parseStats(healthy.do(t, "STATS").Bulk)
	if stats["idle_timeouts"] == 0 {
		t.Fatal("idle_timeouts counter not incremented")
	}
	leasesBalanced(t, s, "after idle timeout")
}

// TestMemoryPressureBusyAndRecovery: under a stalled reader an epoch
// scheme's pending grows without bound; with MemoryLimit the server sheds
// SET/DEL with -BUSY while GET keeps serving, and recovers (writes accepted
// again) once the stalled lease goes away and reclamation drains.
func TestMemoryPressureBusyAndRecovery(t *testing.T) {
	const limit = 64
	s, addr := startServer(t, Config{Scheme: "qsbr", MemoryLimit: limit})
	// The stalled party is a lease of the server's map that never operates
	// again: it pins the epoch. (An idle connection would not: its handle
	// leaves reclamation while it waits; TestIdleConnPinsNothing.)
	stalled, err := s.m.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	w := dialClient(t, addr)

	// Build pending past the limit: each SET+DEL pair retires at least one
	// node, and none can be reclaimed while the stalled lease never
	// quiesces. Stop once the server starts shedding.
	sawBusy := false
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; !sawBusy; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("no -BUSY after %d write pairs (pending %d, limit %d)",
				i, s.Stats().Pending, limit)
		}
		k := strconv.Itoa(i % 1024)
		set := w.do(t, "SET", k, "1")
		if set.IsError() && strings.HasPrefix(set.Str, "BUSY") {
			sawBusy = true
			break
		}
		if del := w.do(t, "DEL", k); del.IsError() && strings.HasPrefix(del.Str, "BUSY") {
			sawBusy = true
		}
	}
	// Degradation must be partial: reads still serve while writes shed.
	if rp := w.do(t, "GET", "0"); rp.IsError() {
		t.Fatalf("GET failed under memory pressure: %+v", rp)
	}
	if rp := w.do(t, "PING"); rp.Str != "PONG" {
		t.Fatalf("PING failed under memory pressure: %+v", rp)
	}
	if stats := parseStats(w.do(t, "STATS").Bulk); stats["busy_rejected"] == 0 {
		t.Fatal("busy_rejected counter not incremented")
	}

	// Recovery: the stalled lease goes away, the writer's own ops drive
	// quiescence, pending drains, and writes are accepted again.
	stalled.Release()
	deadline = time.Now().Add(15 * time.Second)
	for {
		if rp := w.do(t, "SET", "9999", "1"); !rp.IsError() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("writes still shed %v after the stalled lease was released (pending %d)",
				15*time.Second, s.Stats().Pending)
		}
		w.do(t, "GET", "0") // keep the epoch machinery turning
		time.Sleep(5 * time.Millisecond)
	}
	leasesBalanced(t, s, "after memory-pressure recovery")
}

// TestIdleConnPinsNothing: a connection that took its lease and went quiet
// after one PING is out of reclamation while it waits, so under an epoch
// scheme the writer's retires keep draining: no -BUSY under a tight
// MemoryLimit, QSense on its fast path, and no Rejoins — the handle's
// return after each socket read is the quiet Join, not a recovery.
func TestIdleConnPinsNothing(t *testing.T) {
	for _, scheme := range []string{"qsbr", "qsense"} {
		t.Run(scheme, func(t *testing.T) {
			const limit, pairs = 64, 20000
			s, addr := startServer(t, Config{Scheme: scheme, MemoryLimit: limit})
			idle := dialClient(t, addr)
			if rp := idle.do(t, "PING"); rp.Str != "PONG" {
				t.Fatalf("idle conn: %+v", rp)
			}
			w := dialClient(t, addr)
			for i := 0; i < pairs; i++ {
				k := strconv.Itoa(i % 1024)
				if rp := w.do(t, "SET", k, "1"); rp.IsError() {
					t.Fatalf("SET %d of %d: %s (pending %d, limit %d)", i, pairs, rp.Str, s.Stats().Pending, limit)
				}
				if rp := w.do(t, "DEL", k); rp.IsError() {
					t.Fatalf("DEL %d of %d: %s (pending %d, limit %d)", i, pairs, rp.Str, s.Stats().Pending, limit)
				}
			}
			st := s.Stats()
			if st.InFallback {
				t.Errorf("QSense on its fallback path beside an idle connection (%d switches)", st.SwitchesToFallback)
			}
			if st.Rejoins != 0 {
				t.Errorf("rejoins %d, want 0: a Join after a socket read is not a recovery", st.Rejoins)
			}
			if rp := idle.do(t, "PING"); rp.Str != "PONG" {
				t.Fatalf("idle conn after the writes: %+v", rp)
			}
		})
	}
}

// TestPanicRecoveryKeepsServing: a command that panics (node-pool
// exhaustion — the substrate's malloc-returns-NULL) costs that connection
// an error, not the server: the lease is released and other connections
// keep serving.
func TestPanicRecoveryKeepsServing(t *testing.T) {
	// The smallest pool is one slab; fill it with live nodes until an
	// insert panics. Scheme none frees eagerly, so only live nodes count.
	s, addr := startServer(t, Config{Scheme: "none", MaxNodes: 1})
	w := dialClient(t, addr)
	sawPanic := false
	for i := 0; i < 64<<10 && !sawPanic; i++ {
		w.wr.Command("SET", strconv.Itoa(i), "1")
		if err := w.wr.Flush(); err != nil {
			break // connection died with the panic before the reply got out
		}
		w.c.SetReadDeadline(time.Now().Add(5 * time.Second))
		rp, err := w.rd.ReadReply()
		if err != nil {
			break
		}
		if rp.IsError() && strings.Contains(rp.Str, "internal error") {
			sawPanic = true
		}
	}
	if !sawPanic {
		// The error reply is best-effort (the close can race it), so accept
		// a dead connection as long as the counter proves the recovery path.
		if s.Stats().Retired == 0 && s.LiveConns() > 1 {
			t.Log("connection closed without readable error reply; checking counters")
		}
	}
	fresh := dialClient(t, addr)
	if rp := fresh.do(t, "PING"); rp.Str != "PONG" {
		t.Fatalf("server stopped serving after a handler panic: %+v", rp)
	}
	stats := parseStats(fresh.do(t, "STATS").Bulk)
	if stats["panics_recovered"] == 0 {
		t.Fatal("panics_recovered counter not incremented — did the insert ever panic?")
	}
	leasesBalanced(t, s, "after handler panic")
}

// TestRunLoadStallConns: the load generator's -stall-conns mode holds N
// silent connections (holding leases) while healthy workers keep scoring
// ops against the same server.
func TestRunLoadStallConns(t *testing.T) {
	s, addr := startServer(t, Config{Scheme: "qsense"})
	res, err := RunLoad(LoadConfig{
		Target: addr, Conns: 2, KeyRange: 512, UpdatePct: 20,
		Plan: workload.Steady(400 * time.Millisecond), Seed: 7, NoPrefill: true,
		StallConns: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("healthy workers scored no ops alongside stalled connections")
	}
	// While the run was live the stalled conns held leases; RunLoad closes
	// them on exit, so afterwards everything must balance.
	if st := s.Stats(); st.AcquiredHandles < 5 {
		t.Fatalf("expected >= 5 leases (2 workers + 3 stalls), saw %d", st.AcquiredHandles)
	}
	leasesBalanced(t, s, "after stall-conns load")
}

// TestRunLoadMuteServer: a listener that accepts and never replies is a
// failed run, not a zero-throughput point. The workers' reads end
// replyTimeout after the plan does and RunLoad reports that nothing
// completed; with the prefill on, its first batch times out the same way.
// Either error is what makes `qsense-kvd -load` exit non-zero by itself.
func TestRunLoadMuteServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan []net.Conn)
	go func() {
		var held []net.Conn
		for {
			c, err := ln.Accept()
			if err != nil {
				accepted <- held
				return
			}
			held = append(held, c)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		for _, c := range <-accepted {
			c.Close()
		}
	})
	for _, noPrefill := range []bool{true, false} {
		t.Run("noPrefill="+strconv.FormatBool(noPrefill), func(t *testing.T) {
			t.Parallel()
			plan := workload.Steady(100 * time.Millisecond)
			t0 := time.Now()
			res, err := RunLoad(LoadConfig{
				Target: ln.Addr().String(), Conns: 2, KeyRange: 64, UpdatePct: 20,
				Plan: plan, Seed: 7, NoPrefill: noPrefill,
			})
			if err == nil {
				t.Fatalf("a server that never replied produced a result: %+v", res)
			}
			if el := time.Since(t0); el > plan.Total()+replyTimeout+3*time.Second {
				t.Fatalf("gave up only after %v", el)
			}
			t.Log(err)
		})
	}
}

// TestAbsentKeyConnsHoldNoTable: a thousand connections that each GET one
// absent key and then idle cost the server what a connection costs — its two
// resp buffers, its handler, a guard slot and the map handle the slot
// carries — and nothing for having found a key absent. The skip list answers
// a repeated absent key from the node index every connection shares
// (skiplist package doc, "Node index"), so a handle keeps no table of its
// own — a 96 KiB table of edges per handle would make them hold 94 MiB. Over
// qsbr, whose guard slot carries no hazard-pointer record (≈ 4.5 KiB under
// qsense), the bound leaves room for the socket's own allocations on both
// ends and for the heap's page granularity.
func TestAbsentKeyConnsHoldNoTable(t *testing.T) {
	const conns, perConn = 1000, 16 << 10
	s, addr := startServer(t, Config{Scheme: "qsbr"})
	cs := make([]net.Conn, 0, conns+1)
	t.Cleanup(func() {
		for _, c := range cs {
			c.Close()
		}
	})
	get := func(key int) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
		k := strconv.Itoa(key)
		if _, err := c.Write([]byte("*2\r\n$3\r\nGET\r\n$" + strconv.Itoa(len(k)) + "\r\n" + k + "\r\n")); err != nil {
			t.Fatal(err)
		}
		var reply [5]byte
		if _, err := io.ReadFull(c, reply[:]); err != nil || string(reply[:]) != "$-1\r\n" {
			t.Fatalf("GET %s: %q, %v; want a nil bulk", k, reply, err)
		}
	}
	get(0) // whatever the map and the listener build once is built before the count
	heapInuse := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	before := heapInuse()
	for i := 1; i <= conns; i++ {
		get(1_000_000 + i)
	}
	if live := s.LiveConns(); live != conns+1 {
		t.Fatalf("%d connections live, want %d", live, conns+1)
	}
	grew := int64(heapInuse()) - int64(before)
	t.Logf("%d idle connections after an absent GET each: heap in use grew %d KiB, %d bytes a connection", conns, grew>>10, grew/conns)
	if grew >= conns*perConn {
		t.Fatalf("heap in use grew %d KiB for %d connections, want under %d KiB (%d KiB a connection)", grew>>10, conns, conns*perConn>>10, perConn>>10)
	}
}
