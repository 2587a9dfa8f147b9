package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strconv"
	"time"

	"qsense"
	"qsense/internal/kvd"
	"qsense/internal/mem"
	"qsense/internal/reclaim"
	"qsense/internal/resp"
	"qsense/internal/skiplist"
	"qsense/internal/workload"
)

// The per-layer metrics of a traced run. Each layer is priced from outside,
// through its exported functions, on the op stream worker 0 of the workload
// generates from the same seed; README.md says what each number feeds.
var perLayer = []metricDef{
	{name: "workload.gen_ns_per_op", unit: "ns", lower: true},
	{name: "workload.verify_ns_per_op", unit: "ns", lower: true},
	{name: "client.write_us_per_batch", unit: "us", lower: true},
	{name: "client.wait_us_per_batch", unit: "us", lower: true},
	{name: "client.read_us_per_batch", unit: "us", lower: true},
	{name: "client.rtt_p99_us", unit: "us", lower: true},
	{name: "client.cpu_us_per_op", unit: "us", lower: true},
	{name: "net.echo_us_per_batch", unit: "us", lower: true},
	{name: "resp.read_cmd_ns", unit: "ns", lower: true},
	{name: "resp.write_reply_ns", unit: "ns", lower: true},
	{name: "resp.allocs_per_cmd", unit: "count", lower: true},
	{name: "kvd.cmd_ns", unit: "ns", lower: true},
	{name: "kvd.self_ns", unit: "ns", lower: true},
	{name: "kvd.allocs_per_cmd", unit: "count", lower: true},
	{name: "kvd.bytes_per_cmd", unit: "B", lower: true},
	{name: "kvd.panics_caught", unit: "count", lower: true},
	{name: "kvd.busy_rejected", unit: "count", lower: true},
	{name: "kvd.idle_timeouts", unit: "count", lower: true},
	{name: "kvd.write_timeouts", unit: "count", lower: true},
	{name: "containers.get_ns", unit: "ns", lower: true},
	{name: "containers.put_ns", unit: "ns", lower: true},
	{name: "containers.del_ns", unit: "ns", lower: true},
	{name: "containers.allocs_per_op", unit: "count", lower: true},
	{name: "containers.lease_ns", unit: "ns", lower: true},
	{name: "skiplist.get_ns", unit: "ns", lower: true},
	{name: "skiplist.put_ns", unit: "ns", lower: true},
	{name: "skiplist.del_ns", unit: "ns", lower: true},
	{name: "skiplist.value_retire_share", unit: "%", lower: true},
	{name: "skiplist.same_key_race_crashes", unit: "count", lower: true},
	{name: "mem.alloc_free_ns", unit: "ns", lower: true},
	{name: "mem.value_bytes_live", unit: "B", lower: true},
	{name: "mem.value_spilled_live", unit: "count", lower: true},
	{name: "reclaim.protect_ns", unit: "ns", lower: true},
	{name: "reclaim.begin_end_ns", unit: "ns", lower: true},
	{name: "reclaim.retire_ns", unit: "ns", lower: true},
	{name: "reclaim.retires_per_kop", unit: "count", lower: true},
	{name: "reclaim.scans", unit: "count", lower: true},
	{name: "reclaim.scanned_per_scan", unit: "count", lower: true},
	{name: "reclaim.epoch_advances", unit: "count"},
	{name: "reclaim.switches_to_fallback", unit: "count", lower: true},
	{name: "reclaim.fallback_time_share", unit: "%", lower: true},
	{name: "reclaim.pending_p50_nodes", unit: "count", lower: true},
	{name: "reclaim.pending_max_nodes", unit: "count", lower: true},
	{name: "reclaim.evictions", unit: "count", lower: true},
	{name: "reclaim.arena_size", unit: "count", lower: true},
	{name: "reclaim.parked_slots", unit: "count"},
	{name: "reclaim.acquired_handles", unit: "count", lower: true},
	{name: "rooster.passes_per_s", unit: "1/s", lower: true},
	{name: "setup.start_s", unit: "s", lower: true},
	{name: "setup.prefill_s", unit: "s", lower: true},
	{name: "setup.warmup_s", unit: "s", lower: true},
	{name: "e2e.ns_per_op", unit: "ns", lower: true},
	{name: "share.workload_pct", unit: "%", lower: true},
	{name: "share.net_pct", unit: "%", lower: true},
	{name: "share.resp_pct", unit: "%", lower: true},
	{name: "share.kvd_pct", unit: "%", lower: true},
	{name: "share.containers_pct", unit: "%", lower: true},
	{name: "share.skiplist_pct", unit: "%", lower: true},
	{name: "share.reclaim_pct", unit: "%", lower: true},
	{name: "share.unexplained_pct", unit: "%", lower: true},
	{name: "trace.overhead_pct", unit: "%", lower: true},
}

// streamUnits is how many units of worker 0's stream the layers replay.
const streamUnits = 2048

// stream is worker 0's op stream, recorded once and replayed by every layer.
type stream struct {
	ops    []op
	vals   []byte // valueSize bytes per op; the payload of each SET
	req    []byte // the request bytes, unit after unit
	reqEnd []int  // end of each unit in req
	// What the server answered, filled in by the kvd layer.
	rep    []byte
	repEnd []int
	recs   []recorded
}

// recorded is one reply of the stream: data is its offset in stream.rep.
type recorded struct {
	kind byte
	n    int64
	data int
}

func (s *stream) val(i int) []byte { return s.vals[i*valueSize : (i+1)*valueSize] }

func record(sp spec, seed uint64, units int) *stream {
	n := units * unitOps
	s := &stream{ops: make([]op, 0, n), vals: make([]byte, n*valueSize)}
	c := kvClient{gen: newGenerator(sp, seed, 0)}
	for u := 0; u < units; u++ {
		c.build()
		for _, o := range c.ops {
			if o.kind == opSet {
				workload.AppendPayload(s.val(len(s.ops))[:0], o.key, o.salt, valueSize)
			}
			s.ops = append(s.ops, o)
		}
		s.req = append(s.req, c.req...)
		s.reqEnd = append(s.reqEnd, len(s.req))
	}
	return s
}

// timerCost is what one time.Now costs, so that per-op timings can shed it.
func timerCost() (ns float64) {
	const n = 200_000
	t0 := time.Now()
	var last time.Time
	for i := 0; i < n; i++ {
		last = time.Now()
	}
	return float64(last.Sub(t0)) / n
}

// mallocs reads the process's allocation counters.
func mallocs() (count, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// mapOps is what the containers and skiplist layers both offer.
type mapOps interface {
	GetAppend(key int64, dst []byte) ([]byte, bool)
	Delete(key int64) bool
}

// classTimes is the mean time of each op class over a replay, timer shed.
type classTimes struct {
	get, put, del, mean float64 // ns
	allocsPerOp         float64
}

// times is the fields that are times, for scaling.
func (ct *classTimes) times() []*float64 { return []*float64{&ct.get, &ct.put, &ct.del, &ct.mean} }

// soloSlowdown runs f between two 25 ms slices of the reference on this
// goroutine and returns the slowdown they saw: divide f's timings by it.
func soloSlowdown(ref *reference, f func()) float64 {
	speed := func() float64 {
		t0, chunks := time.Now(), 0
		for time.Since(t0) < 25*time.Millisecond {
			ref.chunk()
			chunks++
		}
		return float64(chunks) / time.Since(t0).Seconds()
	}
	before := speed()
	f()
	return refNominalSolo / ((before + speed()) / 2)
}

// replay runs the stream through h, timing each op class. put stores a
// payload; the two layers name that method differently.
func replay(s *stream, h mapOps, put func(key int64, val []byte) bool) classTimes {
	var acc [3]time.Duration
	var cnt [3]int
	var scratch []byte
	tc := timerCost()
	m0, _ := mallocs()
	prev := time.Now()
	for i, o := range s.ops {
		switch o.kind {
		case opGet:
			scratch, _ = h.GetAppend(o.key, scratch[:0])
		case opSet:
			put(o.key, s.val(i))
		default:
			h.Delete(o.key)
		}
		now := time.Now()
		acc[o.kind] += now.Sub(prev)
		cnt[o.kind]++
		prev = now
	}
	m1, _ := mallocs()
	per := func(k opKind) float64 {
		if cnt[k] == 0 {
			return 0
		}
		return float64(acc[k])/float64(cnt[k]) - tc
	}
	n := float64(len(s.ops))
	return classTimes{
		get: per(opGet), put: per(opSet), del: per(opDel),
		mean:        float64(acc[0]+acc[1]+acc[2])/n - tc,
		allocsPerOp: float64(m1-m0) / n,
	}
}

// layerWorkload prices the generator itself: producing key, payload and
// request bytes (kv) or key and payload (lib).
func layerWorkload(sp spec, seed uint64, units int) float64 {
	var u unit = &kvClient{gen: newGenerator(sp, seed, 0)}
	if !sp.kv {
		u = &libUnit{gen: newGenerator(sp, seed, 0)}
	}
	u.build() // the zipf table is built on the first draw
	t0 := time.Now()
	for i := 0; i < units; i++ {
		u.build()
	}
	return float64(time.Since(t0)) / float64(units*unitOps)
}

// kvdLayer prices an in-process kvd.Server on one connection with the whole
// stream written ahead, so that the network is amortised as far as the
// server's own buffers allow, and records what the server answered.
type kvdLayer struct {
	cmdNs, allocs, bytes float64
	last                 sample
}

func layerKVD(sp spec, seed uint64, s *stream) (out kvdLayer, err error) {
	srv, err := kvd.New(kvd.Config{Scheme: sp.scheme, IdleTimeout: 10 * time.Minute,
		WriteTimeout: 5 * time.Second, MemoryLimit: 200000})
	if err != nil {
		return out, err
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return out, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		srv.Shutdown(ctx)
		cancel()
		srv.Close()
	}()
	closeStalled, err := stallConns(addr.String(), sp.stalled)
	if err != nil {
		return out, err
	}
	defer closeStalled()
	if err := kvPrefill(addr.String(), sp, seed); err != nil {
		return out, err
	}
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		return out, err
	}
	defer conn.Close()
	dec := newDecoder(conn)
	s.rep = make([]byte, 0, len(s.ops)*(valueSize+12))
	s.recs = make([]recorded, 0, len(s.ops))
	s.repEnd = make([]int, 0, len(s.reqEnd))

	m0, b0 := mallocs()
	t0 := time.Now()
	werr := make(chan error, 1)
	go func() {
		_, err := conn.Write(s.req)
		werr <- err
	}()
	for i := range s.ops {
		rp, err := dec.next()
		if err != nil {
			return out, fmt.Errorf("kvd layer, reply %d: %w", i, err)
		}
		if rp.kind == '-' {
			return out, fmt.Errorf("kvd layer, reply %d: -%s", i, rp.data)
		}
		s.rep, s.recs = appendReply(s.rep, s.recs, rp)
		if (i+1)%unitOps == 0 {
			s.repEnd = append(s.repEnd, len(s.rep))
		}
	}
	el := time.Since(t0)
	m1, b1 := mallocs()
	if err := <-werr; err != nil {
		return out, err
	}
	n := float64(len(s.ops))
	out = kvdLayer{cmdNs: float64(el) / n, allocs: float64(m1-m0) / n, bytes: float64(b1-b0) / n}
	rp, err := roundTrip(conn, dec, "STATS\r\n", '$')
	if err != nil {
		return out, err
	}
	out.last = parseStats(rp.data)
	return out, nil
}

// appendReply re-encodes rp onto rep and notes where its data went.
func appendReply(rep []byte, recs []recorded, rp reply) ([]byte, []recorded) {
	rec := recorded{kind: rp.kind, n: rp.n}
	switch {
	case rp.kind == '+':
		rep = append(append(append(rep, '+'), rp.data...), '\r', '\n')
	case rp.kind == '$' && rp.n < 0:
		rep = append(rep, "$-1\r\n"...)
	default: // ":n" or "$n" and its bytes
		rep = append(strconv.AppendInt(append(rep, rp.kind), rp.n, 10), '\r', '\n')
		if rp.kind == '$' {
			rec.data = len(rep)
			rep = append(append(rep, rp.data...), '\r', '\n')
		}
	}
	return rep, append(recs, rec)
}

// layerNet sends the stream's request bytes unit by unit to a loopback peer
// that answers with the recorded reply bytes and parses nothing: what the
// system calls and wake-ups of one batch cost. Median, in microseconds.
func layerNet(s *stream) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	peer := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			peer <- err
			return
		}
		defer conn.Close()
		buf := make([]byte, 64<<10)
		from, rfrom := 0, 0
		for u, end := range s.reqEnd {
			if _, err := io.ReadFull(conn, buf[:end-from]); err != nil {
				peer <- err
				return
			}
			if _, err := conn.Write(s.rep[rfrom:s.repEnd[u]]); err != nil {
				peer <- err
				return
			}
			from, rfrom = end, s.repEnd[u]
		}
		peer <- nil
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	buf := make([]byte, 64<<10)
	rtt := make([]float64, 0, len(s.reqEnd))
	from, rfrom := 0, 0
	for u, end := range s.reqEnd {
		t0 := time.Now()
		if _, err := conn.Write(s.req[from:end]); err != nil {
			return 0, err
		}
		if _, err := io.ReadFull(conn, buf[:s.repEnd[u]-rfrom]); err != nil {
			return 0, err
		}
		rtt = append(rtt, float64(time.Since(t0))/1e3)
		from, rfrom = end, s.repEnd[u]
	}
	if err := <-peer; err != nil {
		return 0, err
	}
	return median(rtt), nil
}

// layerResp prices the server's codec alone, from memory: ReadCommand over
// the request bytes, and the reply calls plus one Flush per unit into
// io.Discard. Each is the median of three passes.
func layerResp(s *stream) (readNs, writeNs, allocs float64, err error) {
	n := float64(len(s.ops))
	var reads, writes []float64
	for pass := 0; pass < 3; pass++ {
		rd := resp.NewReader(bytes.NewReader(s.req))
		m0, _ := mallocs()
		t0 := time.Now()
		for range s.ops {
			if _, err := rd.ReadCommand(); err != nil {
				return 0, 0, 0, fmt.Errorf("resp layer: %w", err)
			}
		}
		reads = append(reads, float64(time.Since(t0))/n)

		wr := resp.NewWriter(io.Discard)
		t0 = time.Now()
		for i, rec := range s.recs {
			switch {
			case rec.kind == '+':
				wr.SimpleString("OK")
			case rec.kind == ':':
				wr.Int(rec.n)
			case rec.n < 0:
				wr.Null()
			default:
				wr.Bulk(s.rep[rec.data : rec.data+int(rec.n)])
			}
			if (i+1)%unitOps == 0 {
				if err := wr.Flush(); err != nil {
					return 0, 0, 0, err
				}
			}
		}
		writes = append(writes, float64(time.Since(t0))/n)
		m1, _ := mallocs()
		allocs = float64(m1-m0) / n
	}
	return median(reads), median(writes), allocs, nil
}

// layerContainers prices the leased MapHandle on the stream, the cost of the
// benchmark's own result checking on the same path, and one lease.
func layerContainers(sp spec, seed uint64, s *stream) (ct classTimes, verifyNs, leaseNs float64, err error) {
	fresh := func() (*qsense.SkipMap, error) {
		m, err := qsense.NewSkipMap(qsense.Options{Scheme: qsense.Scheme(sp.scheme)})
		if err != nil {
			return nil, err
		}
		// Handles that are leased and never used stand in for the
		// workload's stalled connections: the same reclamation regime.
		for i := 0; i < sp.stalled; i++ {
			if _, err := m.Acquire(); err != nil {
				return nil, err
			}
		}
		return m, libPrefill(m, sp, seed)
	}
	m, err := fresh()
	if err != nil {
		return ct, 0, 0, err
	}
	h, err := m.Acquire()
	if err != nil {
		return ct, 0, 0, err
	}
	ct = replay(s, h, h.Put)

	const leases = 20_000
	t0 := time.Now()
	for i := 0; i < leases; i++ {
		l, err := m.Acquire()
		if err != nil {
			return ct, 0, 0, err
		}
		l.Release()
	}
	leaseNs = float64(time.Since(t0)) / leases
	h.Release()
	m.Close()

	// The same stream through a lib worker, which checks every result.
	if m, err = fresh(); err != nil {
		return ct, 0, 0, err
	}
	u, err := newLibUnit(m, newGenerator(sp, seed, 0), newModel(sp, seed, 0))
	if err != nil {
		return ct, 0, 0, err
	}
	var checked time.Duration
	for i := range s.reqEnd {
		u.build()
		t0 := time.Now()
		if failed := u.run(false); failed > 0 {
			return ct, 0, 0, fmt.Errorf("containers layer: %d ops of unit %d failed", failed, i)
		}
		checked += time.Since(t0)
	}
	u.h.Release()
	m.Close()
	verifyNs = float64(checked)/float64(len(s.ops)) - ct.mean
	return ct, verifyNs, leaseNs, nil
}

// layerSkiplist prices internal/skiplist's own handle over a guard of the
// given scheme, wired as the SkipMap container wires it.
func layerSkiplist(sp spec, scheme string, seed uint64, s *stream) (ct classTimes, err error) {
	sl := skiplist.New(skiplist.Config{})
	d, err := reclaim.New(scheme, reclaim.Config{
		Workers: 2 * runtime.GOMAXPROCS(0), Shards: min(runtime.GOMAXPROCS(0), 8),
		HPs: skiplist.HPsFor(sl.Levels()), Free: sl.FreeNode, Era: sl.Pool(),
	})
	if err != nil {
		return ct, err
	}
	defer d.Close()
	stalled := sp.stalled // idle guards, as in the containers layer
	if scheme == "none" {
		stalled = 0
	}
	for i := 0; i < stalled; i++ {
		if _, err := d.Acquire(); err != nil {
			return ct, err
		}
	}
	g, err := d.Acquire()
	if err != nil {
		return ct, err
	}
	defer d.Release(g)
	h := sl.NewHandle(g, 1)
	var val []byte
	for k := int64(0); k < sp.keys(); k++ {
		if prefilled(k) {
			val = workload.AppendPayload(val[:0], k, prefillSalt(seed, k), valueSize)
			h.PutBytes(k, val)
		}
	}
	return replay(s, h, h.PutBytes), nil
}

// blob is a node the size of a spilled value: what the mem and reclaim
// layers allocate and retire.
type blob struct{ b [valueSize + 8]byte }

// layerMem prices a pool magazine: bursts of 128 Allocs then 128 Frees, so
// that the 64-slot magazine refills and spills. Nanoseconds per pair.
func layerMem() float64 {
	cache := mem.NewPool[blob](mem.Config{Name: "benchmark"}).NewCache(0)
	const burst, rounds = 128, 2048
	var refs [burst]mem.Ref
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for i := range refs {
			refs[i], _ = cache.Alloc()
		}
		for _, ref := range refs {
			cache.Free(ref)
		}
	}
	return float64(time.Since(t0)) / (burst * rounds)
}

// layerReclaim prices the paper's three calls through the public Domain,
// Guard and Pool for one scheme. Retire is timed over whole bursts, so it
// carries the scans and frees it triggers, and sheds the Begin/End pair that
// brackets it.
func layerReclaim(scheme string) (protectNs, beginEndNs, retireNs float64, err error) {
	pool := qsense.NewPool[blob](qsense.PoolOptions{Name: "benchmark"})
	d, err := qsense.NewDomain(qsense.Options{Scheme: qsense.Scheme(scheme), HPs: 4, Era: pool}, pool.FreeFunc())
	if err != nil {
		return 0, 0, 0, err
	}
	defer d.Close()
	g, err := d.Acquire()
	if err != nil {
		return 0, 0, 0, err
	}
	defer g.Release()

	const n = 262_144
	ref, _ := pool.Alloc()
	g.Begin()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		g.Protect(i&3, ref)
	}
	protectNs = float64(time.Since(t0)) / n
	g.End()
	pool.Free(ref)

	t0 = time.Now()
	for i := 0; i < n; i++ {
		g.Begin()
		g.End()
	}
	beginEndNs = float64(time.Since(t0)) / n

	const burst = 1024
	var refs [burst]qsense.Ref
	var retiring time.Duration
	for r := 0; r < n/burst; r++ {
		for i := range refs {
			refs[i], _ = pool.Alloc()
		}
		t0 := time.Now()
		for _, ref := range refs {
			g.Begin()
			g.Retire(ref)
			g.End()
		}
		retiring += time.Since(t0)
	}
	retireNs = float64(retiring)/n - beginEndNs
	return protectNs, beginEndNs, retireNs, nil
}

// tracedRun is the --trace 1 run: the workload with every other window
// traced, then each layer on the recorded stream, then the race probe.
func (c config) tracedRun(sp spec) (report, error) {
	rep := report{Metrics: map[string]metric{}}
	res, err := c.runOnce(sp, c.seconds, true)
	if err != nil {
		return rep, err
	}
	rep.Attempted, rep.Failed = res.Attempted, res.Failed
	if res.Throughput == 0 || res.Traced == 0 {
		return rep, fmt.Errorf("%s: a traced run needs at least 2 windows with completed ops", sp.name)
	}
	e2eNs := 1e9 * workers / res.Throughput

	// Each layer's times are scaled to the reference's nominal speed, taken
	// on either side of it, like the end-to-end times they are set against.
	ref := newReference()
	var slows []float64
	layer := func(f func() error, times ...*float64) error {
		var err error
		slow := soloSlowdown(ref, func() { err = f() })
		slows = append(slows, slow)
		for _, t := range times {
			*t /= slow
		}
		return err
	}
	s := record(sp, c.seed, c.streamUnits())
	var (
		genNs, verifyNs, libVerifyNs, echoUs, readNs, writeNs, respAllocs float64
		leaseNs, memNs, protectNs, beginEndNs, retireNs                   float64
		kl                                                                kvdLayer
		ct, sk, leaky                                                     classTimes
	)
	err = errors.Join(
		layer(func() error {
			genNs = layerWorkload(sp, c.seed, c.streamUnits())
			return nil
		}, &genNs),
		layer(func() (err error) {
			kl, err = layerKVD(sp, c.seed, s)
			return err
		}, &kl.cmdNs),
	)
	if err != nil {
		return rep, err // the later layers replay what the kvd layer recorded
	}
	err = errors.Join(
		layer(func() (err error) {
			echoUs, err = layerNet(s)
			return err
		}, &echoUs),
		layer(func() (err error) {
			readNs, writeNs, respAllocs, err = layerResp(s)
			return err
		}, &readNs, &writeNs),
		layer(func() (err error) {
			ct, libVerifyNs, leaseNs, err = layerContainers(sp, c.seed, s)
			return err
		}, append(ct.times(), &libVerifyNs, &leaseNs)...),
		layer(func() (err error) {
			sk, err = layerSkiplist(sp, sp.scheme, c.seed, s)
			return err
		}, sk.times()...),
		layer(func() (err error) {
			leaky, err = layerSkiplist(sp, "none", c.seed, s)
			return err
		}, leaky.times()...),
		layer(func() error {
			memNs = layerMem()
			return nil
		}, &memNs),
		layer(func() (err error) {
			protectNs, beginEndNs, retireNs, err = layerReclaim(sp.scheme)
			return err
		}, &protectNs, &beginEndNs, &retireNs),
		// What checking a reply costs the generator: decode and check from
		// memory (kv), or the lib worker's checks inside its timed calls,
		// which the containers layer priced and scaled already.
		layer(func() (err error) {
			if sp.kv {
				verifyNs, err = kvVerifyNs(sp, c.seed, s)
			}
			return err
		}, &verifyNs),
	)
	if err != nil {
		return rep, err
	}
	if !sp.kv {
		verifyNs = libVerifyNs
	}
	crashes, err := raceProbe(c)
	if err != nil {
		return rep, err
	}

	// The budget of one op as a worker sees it. A kv op pays generator,
	// network, codec, dispatch and the structure; a lib op pays generator and
	// structure only. The structure splits into the façade (containers minus
	// skiplist), the list without reclamation (scheme none) and what the
	// scheme adds to it.
	share := func(ns float64) float64 { return 100 * ns / e2eNs }
	kvdSelf := kl.cmdNs - readNs - writeNs - ct.mean
	kvOnly := 0.0
	if sp.kv {
		kvOnly = 1
	}
	cn := res.Counts
	if !sp.kv {
		// No server ran: the hardening counters are the kvd layer's own.
		cn.Panics, cn.Busy, cn.IdleTimeouts, cn.WriteTimeouts = float64(kl.last.Panics), float64(kl.last.Busy), float64(kl.last.IdleTimeouts), float64(kl.last.WriteTimeouts)
	}
	// What the generator costs: its process's measured CPU (kv), or the
	// generating and checking priced above (lib, where the process's CPU is
	// the structure's too).
	clientCPUUs := res.ClientCPU * 1e6 / float64(res.Ops) / res.Slow
	workloadNs := genNs + verifyNs
	if sp.kv {
		workloadNs = clientCPUUs * 1e3
	}
	netPct := kvOnly * share(echoUs*1e3/unitOps)
	shares := []float64{
		share(workloadNs),
		netPct,
		kvOnly * share(readNs+writeNs),
		kvOnly * share(max(kvdSelf, 0)),
		share(ct.mean - sk.mean),
		share(leaky.mean),
		share(sk.mean - leaky.mean),
	}
	// The network's share is not a summand: the client's half of it is
	// inside the workload's share and the server's half inside kvd's.
	unexplained := 100.0 + netPct
	for _, v := range shares {
		unexplained -= v
	}
	values := []float64{
		genNs, verifyNs,
		res.Spans.WriteUs / res.Slow, res.Spans.WaitUs / res.Slow, res.Spans.ReadUs / res.Slow, res.LatP99Us,
		clientCPUUs, echoUs,
		readNs, writeNs, respAllocs,
		kl.cmdNs, kvdSelf, kl.allocs, kl.bytes,
		cn.Panics, cn.Busy, cn.IdleTimeouts, cn.WriteTimeouts,
		ct.get, ct.put, ct.del, ct.allocsPerOp, leaseNs,
		sk.get, sk.put, sk.del, 100 * cn.ValueRetireShare, float64(crashes),
		memNs, cn.ValueBytesLive, cn.ValueSpilledLive,
		protectNs, beginEndNs, retireNs,
		cn.RetiresPerKop, cn.Scans, cn.ScannedPerScan, cn.EpochAdvances,
		cn.SwitchesToFallback, 100 * cn.FallbackTimeShare, cn.PendingP50, cn.PendingMax,
		cn.Evictions, cn.ArenaSize, cn.ParkedSlots, cn.AcquiredHandles,
		cn.RoosterPassesPerS,
		res.Setup.Start, res.Setup.Prefill, res.Setup.Warmup,
		e2eNs,
	}
	values = append(values, shares...)
	values = append(values, unexplained, 100*(1-res.Traced/res.Throughput))
	if len(values) != len(perLayer) {
		panic("perLayer and its values are out of step")
	}
	for i, d := range perLayer {
		rep.Metrics[d.name] = metric{values[i], d.unit}
	}
	// A generator that costs more than 15 % of what it measures is
	// measuring itself.
	selfMeasuring := genNs > 0.15*e2eNs
	rep.Correct = rep.Failed == 0 && !selfMeasuring
	fmt.Printf("%s: %d windows, reference at %.3f of nominal speed (layers %.3f), %d counter samples, %d traced batches, %d p99 samples, gen %.1f%% of an op\n",
		sp.name, c.seconds, 1/res.Slow, 1/median(slows), int(cn.NSamples), res.Spans.Batches, res.LatSamples, 100*genNs/e2eNs)
	return rep, nil
}

// kvVerifyNs is what decoding and checking one recorded reply costs a client.
func kvVerifyNs(sp spec, seed uint64, s *stream) (float64, error) {
	c := kvClient{mod: newModel(sp, seed, 0), dec: newDecoder(bytes.NewReader(s.rep))}
	t0 := time.Now()
	for i, o := range s.ops {
		rp, err := c.dec.next()
		if err != nil {
			return 0, err
		}
		if !c.check(o, rp) {
			return 0, fmt.Errorf("reply %d of the recorded stream fails its check", i)
		}
	}
	return float64(time.Since(t0)) / float64(len(s.ops)), nil
}
