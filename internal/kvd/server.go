// Package kvd is the network-facing layer of the repository: a RESP-style
// TCP key→value server over the elastic SkipMap, plus the load generator
// that macro-benchmarks it (load.go).
//
// The server is the end-to-end demonstration of the reclamation stack
// under real traffic shapes. Each connection gets its own goroutine and
// leases one SkipMap handle for its lifetime via AcquireWait — a
// connection storm grows the guard arena instead of failing (or queues at
// a HardMaxConns admission cap), and a burst of disconnects releases
// slots that the occupancy machinery parks, so the reclamation cost of a
// quiet server decays to its live connection count. STATS surfaces
// exactly those counters over the wire.
//
// A command allocates nothing (resp parses a buffered command in place and
// reuses its buffers otherwise, dispatch works on the bytes and parses a
// plain decimal key without strconv), and the idle deadline, the write
// deadline and the MemoryLimit sampler's clock are handled per socket read
// and per socket write, so a pipelined batch pays for them once.
//
// What a connection costs in memory: its goroutine, two 4 KiB resp buffers,
// a guard slot and — from its first GET or SET on — the 96 KiB finger table
// of the skip-list handle its slot carries (2^12 remembered positions, the
// reason a repeated key costs one node touch instead of a walk; skiplist
// package doc, "Fingers"). The table belongs to the slot, not the socket: a
// later connection leasing the slot inherits it, a connection that only
// PINGs never allocates one, and a server keeps as many tables as it has
// ever had connections issuing GET or SET at once — 1000 of them are 94 MiB.
// A stored key costs one 128-byte pool slot (a skip-list node of two cache
// lines; the one tower in 64 taller than six levels adds an 80-byte array)
// plus its value: nothing more up to 7 bytes, a buffer the value's length
// beyond that, and an overwrite's value one more slot and buffer. The map
// adds its node index, shared by every connection: one 8-byte word per two
// pool slots (skiplist package doc, "Node index"), whatever the connection
// count.
//
// Protocol: RESP arrays or inline commands; integer keys (int64) and
// arbitrary byte-string values (stored in the SkipMap's reclaimed value
// arena — values up to 7 bytes stay inline in the node's value word,
// longer ones spill to a value node retired through the domain on
// displacement):
//
//	SET <key> <value>   -> +OK
//	GET <key>           -> $<value bytes> | $-1
//	DEL <key>           -> :1 | :0
//	STATS               -> $<key: value lines>
//	PING                -> +PONG
//	QUIT                -> +OK, connection closes
//
// A protocol violation draws -ERR and closes the connection; a malformed
// key, or a value larger than Config.MaxBulk, draws -ERR and keeps it
// open.
package kvd

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qsense"
	"qsense/internal/resp"
)

// Config describes a server.
type Config struct {
	// Scheme is the reclamation scheme serving the map — any name in
	// qsense.SchemeNames (default qsense); New rejects anything else.
	Scheme string
	// InitialConns is the initial guard-arena size (Options.MaxWorkers):
	// a soft sizing hint, not a limit. 0 = machine default.
	InitialConns int
	// HardMaxConns, when > 0, is an admission cap: connections beyond it
	// queue in AcquireWait until another connection closes
	// (Options.HardMaxWorkers).
	HardMaxConns int
	// MaxNodes bounds the map's node pool. 0 = library default.
	MaxNodes int

	// IdleTimeout, when > 0, is the deadline of each socket read: a
	// connection that sends nothing for this long is disconnected and its
	// leased map handle released — the defense against stalled readers
	// over TCP (a parked client would otherwise hold its guard slot, and
	// under an epoch scheme pin the server's garbage, forever). 0 keeps
	// the pre-hardening behavior: reads block until the peer speaks or
	// Shutdown wakes them.
	IdleTimeout time.Duration
	// WriteTimeout, when > 0, is the deadline of each socket write,
	// whether a flush of the drained pipeline or a large reply
	// overflowing the buffer: a client that stops draining its socket
	// (slowloris-style) is disconnected — with its lease released —
	// instead of wedging the handler in a blocked write. 0 = no write
	// deadlines.
	WriteTimeout time.Duration
	// MemoryLimit, when > 0, is the graceful-degradation threshold: once
	// the map's pending (retired-but-unreclaimed) node count plus its
	// live spilled value nodes exceeds it, SET and DEL answer "-BUSY
	// retry later" while GET/STATS/PING keep serving — the server sheds
	// allocation under memory pressure rather than failing the domain.
	// Spilled values count because they occupy the same pool slots as
	// structural nodes (the value_bytes / value_spilled STATS gauges
	// expose the same pressure on the wire). The check samples Stats at
	// most once per memSampleEvery, so the hot path pays an atomic load.
	// Unlike qsense.Options.MemoryLimit (a sticky Failed marker for
	// experiments), this limit is soft and recovers as soon as
	// reclamation drains the backlog.
	MemoryLimit int
	// MaxBulk bounds a SET value's size in bytes; a larger value draws
	// -ERR and keeps the connection (the framing layer's own larger
	// resp.MaxBulk cap is a protocol violation and closes it). 0 = 64 KiB.
	MaxBulk int
}

// memSampleEvery is how often the MemoryLimit check is willing to resample
// the map's pending count.
const memSampleEvery = 10 * time.Millisecond

// Server is a qsense-kvd instance. Create with New, start with Start (or
// Listen+Serve), stop with Shutdown, then Close to tear down the map.
type Server struct {
	cfg Config
	m   *qsense.SkipMap

	ctx    context.Context
	cancel context.CancelFunc

	ln        net.Listener
	draining  atomic.Bool
	drainDone chan struct{} // closed once the last handler has exited

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup

	accepted atomic.Uint64

	// Hardening counters (surfaced in STATS).
	idleTimeouts  atomic.Uint64 // conns dropped by IdleTimeout
	writeTimeouts atomic.Uint64 // conns dropped by WriteTimeout
	panicsCaught  atomic.Uint64 // handler panics recovered (lease still released)
	busyRejected  atomic.Uint64 // writes refused with -BUSY under MemoryLimit

	memCheck atomic.Int64 // UnixNano of the last MemoryLimit sample
	memBusy  atomic.Bool  // last sampled verdict: pending > MemoryLimit
}

// New builds a server (no listener yet).
func New(cfg Config) (*Server, error) {
	if cfg.Scheme == "" {
		cfg.Scheme = "qsense"
	}
	scheme, err := qsense.ParseScheme(cfg.Scheme)
	if err != nil {
		return nil, err
	}
	m, err := qsense.NewSkipMap(qsense.Options{
		Scheme:         scheme,
		MaxWorkers:     cfg.InitialConns,
		HardMaxWorkers: cfg.HardMaxConns,
		MaxNodes:       cfg.MaxNodes,
	})
	if err != nil {
		return nil, err
	}
	if cfg.MaxBulk <= 0 {
		cfg.MaxBulk = 64 << 10
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		cfg: cfg, m: m, ctx: ctx, cancel: cancel,
		conns:     map[net.Conn]struct{}{},
		drainDone: make(chan struct{}),
	}, nil
}

// Listen binds addr (e.g. ":6380", "127.0.0.1:0").
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	return ln.Addr(), nil
}

// Start is Listen plus Serve on a background goroutine.
func (s *Server) Start(addr string) (net.Addr, error) {
	a, err := s.Listen(addr)
	if err != nil {
		return nil, err
	}
	go s.Serve()
	return a, nil
}

// Addr is the bound listen address (nil before Listen).
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Serve accepts connections until Shutdown; it returns nil on a drain and
// the accept error otherwise.
func (s *Server) Serve() error {
	for {
		c, err := s.ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining.Load() {
			s.mu.Unlock()
			c.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.accepted.Add(1)
		go s.handle(c)
	}
}

// Shutdown drains the server: stop accepting, wake blocked reads and
// AcquireWaits, let every in-flight command finish and every connection
// release its guard. It returns ctx.Err() if the drain outlives ctx, after
// force-closing the stragglers (their deferred Releases still run).
// Shutdown is safe to call concurrently: every caller — not just the one
// that initiates the drain — blocks until the drain completes (or its own
// ctx expires), so a nil return always means every handler has released
// its map handle and Close may follow. Shutdown leaves the map intact —
// STATS-style inspection via Stats keeps working — Close tears it down.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		// Another Shutdown owns the drain; wait for it rather than return
		// early with handlers still holding leased handles.
		select {
		case <-s.drainDone:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if s.ln != nil {
		s.ln.Close()
	}
	s.cancel()
	s.mu.Lock()
	for c := range s.conns {
		// Wake reads blocked on an idle peer; the handler sees draining
		// and exits after finishing the command in flight.
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	go func() {
		s.wg.Wait()
		close(s.drainDone)
	}()
	select {
	case <-s.drainDone:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-s.drainDone
		return ctx.Err()
	}
}

// Close tears down the map's reclamation domain, freeing every pending
// node. Call after Shutdown.
func (s *Server) Close() { s.m.Close() }

// Stats snapshots the map's reclamation counters.
func (s *Server) Stats() qsense.Stats { return s.m.Stats() }

// Values snapshots the map's value-arena gauges.
func (s *Server) Values() qsense.ValueStats { return s.m.Values() }

// LiveConns is the number of currently open connections.
func (s *Server) LiveConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// conn is one connection's state, and the net.Conn its resp reader and
// writer sit on: deadlines are armed and the clock is read where the system
// calls are, once per socket read or write (a pipelined batch) rather than
// once per command, which also covers a large reply's auto-flush inside
// dispatch.
type conn struct {
	net.Conn
	s      *Server
	now    time.Time // when the last socket read returned: overLimit's clock
	valBuf []byte    // scratch for GET copies
}

// Read gives the peer IdleTimeout to send something: the stalled-reader
// defense.
func (c *conn) Read(p []byte) (int, error) {
	if d := c.s.cfg.IdleTimeout; d > 0 {
		c.Conn.SetReadDeadline(time.Now().Add(d))
		if c.s.draining.Load() {
			// Shutdown's wake-up may have landed before the line above and
			// been overwritten by it; issue it again.
			c.Conn.SetReadDeadline(time.Now())
		}
	}
	n, err := c.Conn.Read(p)
	c.now = time.Now()
	return n, err
}

// Write gives the peer WriteTimeout to take p.
func (c *conn) Write(p []byte) (int, error) {
	if d := c.s.cfg.WriteTimeout; d > 0 {
		c.Conn.SetWriteDeadline(time.Now().Add(d))
	}
	n, err := c.Conn.Write(p)
	if err != nil && isTimeout(err) && !c.s.draining.Load() {
		c.s.writeTimeouts.Add(1)
	}
	return n, err
}

// handle owns one connection: one leased SkipMap handle for the
// connection's lifetime, a read-dispatch loop, and a flush whenever the
// pipeline drains.
func (s *Server) handle(nc net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
		nc.Close()
	}()
	c := &conn{Conn: nc, s: s}
	wr := resp.NewWriter(c)
	h, err := s.m.AcquireWait(s.ctx)
	if err != nil {
		// Shutdown cancelled the wait at a full HardMaxConns cap.
		wr.Error("ERR server draining")
		wr.Flush()
		return
	}
	defer h.Release()
	// Registered after the Release defer, so it runs FIRST on unwind: a
	// panicking command (pool exhaustion, a container bug) costs its own
	// connection an -ERR and a close, never the lease — the slot goes back
	// to the freelist and the rest of the server keeps serving.
	defer func() {
		if r := recover(); r != nil {
			s.panicsCaught.Add(1)
			wr := resp.NewWriter(c)
			wr.Error(fmt.Sprintf("ERR internal error: %v", sanitize(fmt.Sprint(r))))
			wr.Flush()
		}
	}()
	rd := resp.NewReader(c)
	for {
		args, err := rd.ReadCommand()
		if err != nil {
			// Framing violations get a reply; EOF, drain deadlines and
			// network errors close quietly. An idle timeout on a healthy
			// server is the hardening path: count it, best-effort notify.
			if resp.IsProtocol(err) {
				wr.Error("ERR " + err.Error())
				wr.Flush()
			} else if isTimeout(err) && !s.draining.Load() {
				s.idleTimeouts.Add(1)
				wr.Error("ERR idle timeout, closing")
				wr.Flush()
			}
			return
		}
		quit := s.dispatch(c, h, wr, args) || s.draining.Load()
		if quit || rd.Buffered() == 0 {
			if err := wr.Flush(); err != nil || quit {
				return
			}
		}
	}
}

// isTimeout reports whether err is a connection deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// overLimit is the MemoryLimit sampler: at most once per memSampleEvery,
// one winning goroutine (CAS on the sample clock) refreshes the verdict
// from the map's pending count; everyone else reads the cached bit. now is
// the connection's clock, read once per socket read.
func (s *Server) overLimit(now time.Time) bool {
	if s.cfg.MemoryLimit <= 0 {
		return false
	}
	last := s.memCheck.Load()
	if t := now.UnixNano(); t-last >= int64(memSampleEvery) && s.memCheck.CompareAndSwap(last, t) {
		// Pending already counts retired-but-unreclaimed value nodes (they
		// retire through the same domain); live spilled values occupy pool
		// slots too, so they join the pressure signal.
		occupied := s.m.Stats().Pending + s.m.Values().Spilled
		s.memBusy.Store(occupied > int64(s.cfg.MemoryLimit))
	}
	return s.memBusy.Load()
}

// dispatch executes one command; true means the connection should close.
// The reply writer copies a GET's bytes into its own buffer before dispatch
// returns, so c.valBuf is reusable across commands.
func (s *Server) dispatch(c *conn, h qsense.MapHandle, wr *resp.Writer, args [][]byte) bool {
	// The verb in upper case, on the stack: clearing 0x20 maps a-z onto A-Z
	// and no other byte onto a letter. One too long to be a verb stays "".
	var upper [8]byte
	verb := upper[:0]
	if len(args[0]) <= len(upper) {
		for _, b := range args[0] {
			verb = append(verb, b&^0x20)
		}
	}
	switch string(verb) {
	case "PING":
		wr.SimpleString("PONG")
	case "QUIT":
		wr.SimpleString("OK")
		return true
	case "GET":
		k, ok := wantKey(wr, "get", args, 2)
		if !ok {
			return false
		}
		if v, found := h.GetAppend(k, c.valBuf[:0]); found {
			c.valBuf = v[:0]
			wr.Bulk(v)
		} else {
			wr.Null()
		}
	case "SET":
		k, ok := wantKey(wr, "set", args, 3)
		if !ok {
			return false
		}
		if len(args[2]) > s.cfg.MaxBulk {
			wr.Error(fmt.Sprintf("ERR value too large (%d bytes, limit %d)", len(args[2]), s.cfg.MaxBulk))
			return false
		}
		if s.overLimit(c.now) {
			// Graceful degradation: shedding the commands that allocate
			// (and, via Delete, retire) lets reclamation catch up while
			// reads keep serving.
			s.busyRejected.Add(1)
			wr.Error("BUSY retry later")
			return false
		}
		h.Put(k, args[2])
		wr.SimpleString("OK")
	case "DEL":
		k, ok := wantKey(wr, "del", args, 2)
		if !ok {
			return false
		}
		if s.overLimit(c.now) {
			s.busyRejected.Add(1)
			wr.Error("BUSY retry later")
			return false
		}
		if h.Delete(k) {
			wr.Int(1)
		} else {
			wr.Int(0)
		}
	case "STATS":
		wr.Bulk(s.statsText())
	default:
		wr.Error("ERR unknown command '" + sanitize(string(args[0])) + "'")
	}
	return false
}

// wantKey validates arity and parses the key argument. The two extreme
// int64 values are the SkipMap's sentinel keys and out of its domain (the
// map itself also rejects them); they draw -ERR rather than silently
// reporting absent.
func wantKey(wr *resp.Writer, cmd string, args [][]byte, arity int) (int64, bool) {
	if len(args) != arity {
		wr.Error("ERR wrong number of arguments for '" + cmd + "'")
		return 0, false
	}
	k, err := parseKey(args[1])
	if err != nil {
		wr.Error("ERR key is not an integer")
		return 0, false
	}
	if k == math.MinInt64 || k == math.MaxInt64 {
		wr.Error("ERR key out of range (the extreme int64 values are reserved)")
		return 0, false
	}
	return k, true
}

// parseKey is strconv.ParseInt(string(b), 10, 64) with the common case
// done by a loop: an optional '-' and 1 to 18 digits cannot overflow.
// Anything else — a '+', 19 or more digits, any other byte — goes to
// strconv, so the keys accepted and the errors are exactly strconv's.
func parseKey(b []byte) (int64, error) {
	digits := b
	if len(b) > 0 && b[0] == '-' {
		digits = b[1:]
	}
	if len(digits) == 0 || len(digits) > 18 {
		return strconv.ParseInt(string(b), 10, 64)
	}
	var n int64
	for _, c := range digits {
		if c < '0' || c > '9' {
			return strconv.ParseInt(string(b), 10, 64)
		}
		n = n*10 + int64(c-'0')
	}
	if len(digits) < len(b) {
		n = -n
	}
	return n, nil
}

// sanitize keeps control bytes out of error replies.
func sanitize(s string) string {
	if len(s) > 32 {
		s = s[:32]
	}
	return strings.Map(func(r rune) rune {
		if r < 0x20 || r > 0x7e {
			return '?'
		}
		return r
	}, s)
}

// statsText renders the STATS reply: one "key: value" line per counter,
// numeric except the scheme line, in a fixed order.
func (s *Server) statsText() []byte {
	st := s.m.Stats()
	var b bytes.Buffer
	fmt.Fprintf(&b, "scheme: %s\n", st.Scheme)
	for _, kv := range statsFields(st) {
		fmt.Fprintf(&b, "%s: %d\n", kv.k, kv.v)
	}
	vs := s.m.Values()
	fmt.Fprintf(&b, "value_bytes: %d\n", vs.Bytes)
	fmt.Fprintf(&b, "value_spilled: %d\n", vs.Spilled)
	fmt.Fprintf(&b, "value_retires: %d\n", vs.ValueRetires)
	fmt.Fprintf(&b, "struct_retires: %d\n", vs.StructRetires)
	fmt.Fprintf(&b, "conns_accepted: %d\n", s.accepted.Load())
	fmt.Fprintf(&b, "conns_live: %d\n", s.LiveConns())
	fmt.Fprintf(&b, "idle_timeouts: %d\n", s.idleTimeouts.Load())
	fmt.Fprintf(&b, "write_timeouts: %d\n", s.writeTimeouts.Load())
	fmt.Fprintf(&b, "panics_recovered: %d\n", s.panicsCaught.Load())
	fmt.Fprintf(&b, "busy_rejected: %d\n", s.busyRejected.Load())
	return b.Bytes()
}

type statKV struct {
	k string
	v int64
}

// statsFields flattens the numeric Stats fields, one STATS line each, named
// the snake_case of the field (TestStatsFieldsCoverStats keeps the two lists
// together).
func statsFields(st qsense.Stats) []statKV {
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	return []statKV{
		{"retired", int64(st.Retired)},
		{"freed", int64(st.Freed)},
		{"pending", st.Pending},
		{"scans", int64(st.Scans)},
		{"scanned_records", int64(st.ScannedRecords)},
		{"quiescent_states", int64(st.QuiescentStates)},
		{"epoch_advances", int64(st.EpochAdvances)},
		{"switches_to_fallback", int64(st.SwitchesToFallback)},
		{"switches_to_fast", int64(st.SwitchesToFast)},
		{"in_fallback", b2i(st.InFallback)},
		{"evictions", int64(st.Evictions)},
		{"rejoins", int64(st.Rejoins)},
		{"acquired_handles", int64(st.AcquiredHandles)},
		{"released_handles", int64(st.ReleasedHandles)},
		{"orphaned_nodes", int64(st.OrphanedNodes)},
		{"adopted_nodes", int64(st.AdoptedNodes)},
		{"arena_size", int64(st.ArenaSize)},
		{"high_water_workers", int64(st.HighWaterWorkers)},
		{"arena_growths", int64(st.ArenaGrowths)},
		{"parked_slots", int64(st.ParkedSlots)},
		{"segment_parks", int64(st.SegmentParks)},
		{"segment_unparks", int64(st.SegmentUnparks)},
		{"effective_r", int64(st.EffectiveR)},
		{"effective_c", int64(st.EffectiveC)},
		{"r_retunes", int64(st.RRetunes)},
		{"c_retunes", int64(st.CRetunes)},
		{"rooster_passes", int64(st.RoosterPasses)},
		{"ibr_interval_width", int64(st.IBRIntervalWidth)},
		{"hyaline_batch_refs", st.HyalineBatchRefs},
		{"failed", b2i(st.Failed)},
	}
}
