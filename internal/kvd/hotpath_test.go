package kvd

import (
	"bytes"
	"context"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qsense/internal/resp"
	"qsense/internal/workload"
)

// The serving path's contract: nothing allocated per command, deadlines
// armed per socket read and write, and a reader that may reuse its buffers
// because nothing downstream keeps a slice of them.

// raceDetector is set by race_test.go when the race detector is built in.
var raceDetector bool

// countingConn is the server side of a loopback connection that counts the
// deadlines armed on it. onReadArm, if set, stands in for setting a read
// deadline and decides when to call set, which does it.
type countingConn struct {
	net.Conn
	readArms, writeArms atomic.Int64
	onReadArm           func(deadline time.Time, set func())
}

func (c *countingConn) SetReadDeadline(t time.Time) error {
	c.readArms.Add(1)
	if c.onReadArm == nil {
		return c.Conn.SetReadDeadline(t)
	}
	c.onReadArm(t, func() { c.Conn.SetReadDeadline(t) })
	return nil
}

func (c *countingConn) SetWriteDeadline(t time.Time) error {
	c.writeArms.Add(1)
	return c.Conn.SetWriteDeadline(t)
}

// handleOn makes a loopback connection, hands its server side to s.handle
// as Serve would have, wrapped in a countingConn, and returns both ends.
func handleOn(t *testing.T, s *Server, onReadArm func(time.Time, func())) (*countingConn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	accepted, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	cc := &countingConn{Conn: accepted, onReadArm: onReadArm}
	s.mu.Lock()
	s.conns[cc] = struct{}{}
	s.wg.Add(1)
	s.mu.Unlock()
	go s.handle(cc)
	return cc, client
}

// TestHandleSteadyState drives batches of 64 mixed commands through handle
// with all the hardening on: no allocation, one read-deadline arm and at
// most two write-deadline arms per batch, and no timeout or -BUSY counted.
func TestHandleSteadyState(t *testing.T) {
	s, _ := startServer(t, Config{Scheme: "qsense", IdleTimeout: time.Minute,
		WriteTimeout: 5 * time.Second, MemoryLimit: 1 << 20})
	cc, client := handleOn(t, s, nil)

	// 21 x (SET, GET, DEL) of one key each, then PING: 64 commands that
	// leave the map as they found it, so every batch draws the same reply.
	var req, want bytes.Buffer
	wr, wantWr := resp.NewWriter(&req), resp.NewWriter(&want)
	for k := int64(0); k < 21; k++ {
		key := strconv.AppendInt(nil, k*1000003, 10)
		val := workload.AppendPayload(nil, k, 1, 64)
		wr.CommandBytes([]byte("SET"), key, val)
		wr.CommandBytes([]byte("get"), key)
		wr.CommandBytes([]byte("Del"), key)
		wantWr.SimpleString("OK")
		wantWr.Bulk(val)
		wantWr.Int(1)
	}
	wr.Command("PING")
	wantWr.SimpleString("PONG")
	wr.Flush()
	wantWr.Flush()
	if req.Len() > 4096 {
		t.Fatalf("batch is %d bytes: it must fit one 4 KiB socket read", req.Len())
	}
	got := make([]byte, want.Len())
	batch := func() {
		if _, err := client.Write(req.Bytes()); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(client, got); err != nil {
			t.Fatal(err)
		}
	}
	batch() // grows the connection's buffers, checks the replies once
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("batch answered\n%q\nwant\n%q", got, want.Bytes())
	}

	const batches = 200
	reads, writes := cc.readArms.Load(), cc.writeArms.Load()
	allocs := testing.AllocsPerRun(batches-1, batch) // and one warm-up call
	reads, writes = cc.readArms.Load()-reads, cc.writeArms.Load()-writes
	if allocs != 0 && !raceDetector {
		t.Errorf("%v allocations per batch of 64 commands, want 0", allocs)
	}
	// One more read arm may fall in the window: the handler's return to its
	// socket read after the batch before.
	if reads > batches+1 || writes > 2*batches {
		t.Errorf("%d batches armed %d read and %d write deadlines, want at most 1 and 2 per batch",
			batches, reads, writes)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("last batch answered\n%q\nwant\n%q", got, want.Bytes())
	}
	if n := s.idleTimeouts.Load() + s.writeTimeouts.Load() + s.busyRejected.Load(); n != 0 {
		t.Errorf("%d timeouts and -BUSY replies on a healthy connection", n)
	}
}

// TestPipelinedSetsDoNotAlias: the reader hands dispatch slices of a buffer
// it reuses for the next command, so a stored value must be a copy. 10 000
// pipelined SETs of distinct payloads, then every key read back.
func TestPipelinedSetsDoNotAlias(t *testing.T) {
	_, addr := startServer(t, Config{Scheme: "qsense"})
	cl := dialClient(t, addr)
	const n = 10_000
	payload := func(k int64) []byte { return workload.AppendPayload(nil, k, uint64(k)*7+1, 16+int(k%96)) }
	pipelined := func(send func(k int64), check func(k int64, rp resp.Reply)) {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // replies are read meanwhile, so neither side's socket fills
			defer wg.Done()
			for k := int64(0); k < n; k++ {
				send(k)
			}
			if err := cl.wr.Flush(); err != nil {
				t.Error(err)
			}
		}()
		defer wg.Wait()
		for k := int64(0); k < n; k++ {
			rp, err := cl.rd.ReadReply()
			if err != nil {
				t.Fatalf("reply %d: %v", k, err)
			}
			check(k, rp)
		}
	}
	pipelined(func(k int64) {
		cl.wr.CommandBytes([]byte("SET"), strconv.AppendInt(nil, k, 10), payload(k))
	}, func(k int64, rp resp.Reply) {
		if rp.Str != "OK" {
			t.Fatalf("SET %d: %+v", k, rp)
		}
	})
	pipelined(func(k int64) {
		cl.wr.CommandBytes([]byte("GET"), strconv.AppendInt(nil, k, 10))
	}, func(k int64, rp resp.Reply) {
		if !bytes.Equal(rp.Bulk, payload(k)) {
			t.Fatalf("GET %d returned %q, SET sent %q", k, rp.Bulk, payload(k))
		}
	})
}

// TestShutdownWakeSurvivesIdleRearm: Shutdown wakes a handler parked in a
// read by setting a read deadline that has already passed. A handler on its
// way into that read arms the idle deadline, and if that lands after the
// wake it overwrites it: the handler then sleeps out IdleTimeout and the
// drain has to force-close it. The hook puts Shutdown exactly there.
func TestShutdownWakeSurvivesIdleRearm(t *testing.T) {
	s, _ := startServer(t, Config{Scheme: "qsense", IdleTimeout: time.Hour})
	drained := make(chan error, 1)
	woken := make(chan struct{})
	var once, wokenOnce sync.Once
	handleOn(t, s, func(deadline time.Time, set func()) {
		if time.Until(deadline) <= 0 { // Shutdown's wake, or the handler issuing it again
			set()
			wokenOnce.Do(func() { close(woken) })
			return
		}
		once.Do(func() { // the handler's first idle arm: drain now, arm after the wake
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				drained <- s.Shutdown(ctx)
			}()
			<-woken
		})
		set()
	})
	start := time.Now()
	if err := <-drained; err != nil {
		t.Fatalf("drain had to force-close the connection after %v: %v", time.Since(start), err)
	}
}
