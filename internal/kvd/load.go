package kvd

import (
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"qsense/internal/harness"
	"qsense/internal/resp"
	"qsense/internal/workload"
)

// LoadConfig describes one macro-benchmark run against a kvd server.
type LoadConfig struct {
	// Target is the server address ("host:port").
	Target string
	// Conns is the client connection pool size; the PhasePlan decides how
	// many of them are live at any moment.
	Conns int
	// KeyRange and Theta shape the key distribution: bounded zipfian with
	// skew Theta over [0, KeyRange), uniform when Theta <= 0.
	KeyRange int64
	Theta    float64
	// UpdatePct is the write fraction (split evenly SET/DEL, rest GET).
	UpdatePct int
	// Plan drives connection churn: each phase keeps a Load-fraction of
	// Conns connected and the rest disconnected — a burst-then-idle plan
	// exercises the server's arena growth and parking.
	Plan workload.PhasePlan
	// ValueSize shapes SET payload sizes (workload.SizeDist): fixed at
	// Base bytes, or zipf-extended up to Max. The zero value means fixed
	// 8-byte values — just past the SkipMap's 7-byte inline cap, so the
	// spilled value-arena path is on by default. Every payload is
	// self-verifying (workload.AppendPayload); GET replies are checked and
	// corrupt ones counted in LoadResult.BadValues.
	ValueSize workload.SizeDist
	// Seed makes runs reproducible; 0 means 1.
	Seed uint64
	// NoPrefill skips the half-range prefill (for tests that assert exact
	// map contents).
	NoPrefill bool
	// StallConns opens this many extra connections that dial, then hold
	// the socket silently for the whole run — each one holds a leased map
	// handle server-side while sending nothing. They are idle clients,
	// not the fault matrix's stalled reader: the server's handle leaves
	// reclamation while it waits on the socket, so they cost a slot, a
	// goroutine and buffers each but pin no garbage. Against a server
	// without IdleTimeout the leases stay held for the run; with
	// IdleTimeout set the server is expected to drop them (visible as
	// idle_timeouts in the server's STATS). Healthy workers keep running
	// either way.
	StallConns int
}

// dialRetry dials target, retrying transient connect errors with capped
// exponential backoff plus jitter — a load generator racing a server's
// startup (or riding out a listen-queue overflow under a connection storm)
// should degrade into a short wait, not a failed run. Jitter decorrelates
// the pool's retries so a thundering herd doesn't re-arrive in lockstep.
func dialRetry(target string, attempts int, rng *workload.RNG) (net.Conn, error) {
	backoff := 2 * time.Millisecond
	const capBackoff = 250 * time.Millisecond
	var lastErr error
	for a := 0; a < attempts; a++ {
		c, err := net.Dial("tcp", target)
		if err == nil {
			return c, nil
		}
		lastErr = err
		if a == attempts-1 {
			break
		}
		// Sleep in [backoff/2, 3*backoff/2): full jitter around the nominal.
		time.Sleep(backoff/2 + time.Duration(rng.Next()%uint64(backoff)))
		if backoff *= 2; backoff > capBackoff {
			backoff = capBackoff
		}
	}
	return nil, fmt.Errorf("kvd: dial %s: %w (after %d attempts)", target, lastErr, attempts)
}

// replyTimeout is how long the generator waits for replies it is owed — a
// prefill batch's, or whatever is in flight when the plan ends — before it
// treats the server as mute and gives the connection up.
const replyTimeout = 2 * time.Second

// LoadResult is the outcome of RunLoad: closed-loop throughput and the
// merged per-op latency distribution.
type LoadResult struct {
	Ops  uint64
	Errs uint64
	// BadValues counts GET replies that failed payload verification — a
	// nonzero count means the server returned torn or freed value bytes.
	BadValues uint64
	Duration  time.Duration
	Mops      float64
	Latency   *harness.LatencyHist
}

// RunLoad drives the configured workload to completion. Each connection is
// closed-loop — one command in flight, per-op round-trip latency recorded
// into an HDR-style histogram — so the latency numbers are honest
// request-to-reply times, not queueing artifacts of an open-loop injector.
// A run whose healthy connections completed no operation is an error, not a
// zero-throughput point: the server never answered.
func RunLoad(cfg LoadConfig) (LoadResult, error) {
	if cfg.Conns <= 0 {
		cfg.Conns = 1
	}
	if cfg.KeyRange <= 0 {
		cfg.KeyRange = 1 << 16
	}
	if cfg.Plan.Total() <= 0 {
		cfg.Plan = workload.Steady(time.Second)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.ValueSize.Base <= 0 {
		cfg.ValueSize.Base = 8
	}
	if !cfg.NoPrefill {
		if err := Prefill(cfg.Target, cfg.KeyRange, cfg.Seed, cfg.ValueSize); err != nil {
			return LoadResult{}, fmt.Errorf("kvd prefill: %w", err)
		}
	}
	hists := make([]harness.LatencyHist, cfg.Conns)
	ops := make([]uint64, cfg.Conns)
	errs := make([]uint64, cfg.Conns)
	bad := make([]uint64, cfg.Conns)
	start := time.Now()
	// Stalled connections dial before the healthy pool so their leases are
	// held for the whole measured window.
	stallStop := make(chan struct{})
	var stallWg sync.WaitGroup
	for i := 0; i < cfg.StallConns; i++ {
		stallWg.Add(1)
		go func(i int) {
			defer stallWg.Done()
			rng := workload.NewRNG(cfg.Seed ^ (uint64(i)*0x9E3779B9 + 0x5111))
			c, err := dialRetry(cfg.Target, 8, rng)
			if err != nil {
				return
			}
			defer c.Close()
			// Hold silently: no commands, no reads. If the server's
			// IdleTimeout disconnects us, keep holding the closed socket —
			// a crashed client doesn't politely redial.
			<-stallStop
		}(i)
	}
	var wg sync.WaitGroup
	for i := 0; i < cfg.Conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ops[i], errs[i], bad[i] = loadWorker(i, cfg, start, &hists[i])
		}(i)
	}
	wg.Wait()
	close(stallStop)
	stallWg.Wait()
	res := LoadResult{Duration: time.Since(start), Latency: &harness.LatencyHist{}}
	for i := range hists {
		res.Ops += ops[i]
		res.Errs += errs[i]
		res.BadValues += bad[i]
		res.Latency.Merge(&hists[i])
	}
	if res.Ops == 0 {
		return LoadResult{}, fmt.Errorf("kvd load: %d connections completed no operation against %s (%d errors)", cfg.Conns, cfg.Target, res.Errs)
	}
	res.Mops = float64(res.Ops) / res.Duration.Seconds() / 1e6
	return res, nil
}

// loadWorker is one pooled connection's life: follow the phase plan
// (connect when this worker index is active, disconnect and sleep when
// not), and while connected run the zipf-keyed op mix closed-loop. SETs
// carry sized self-verifying payloads; GET replies are verified, with
// corruption counted in bad rather than errs (a torn value is a
// correctness event, not a transport one).
func loadWorker(i int, cfg LoadConfig, start time.Time, hist *harness.LatencyHist) (ops, errs, bad uint64) {
	rng := workload.NewRNG(cfg.Seed + uint64(i)*0x9E3779B9 + 7)
	mix := workload.Mix{UpdatePct: cfg.UpdatePct}
	var conn net.Conn
	var rd *resp.Reader
	var wr *resp.Writer
	var keyBuf, valBuf []byte
	getCmd, setCmd, delCmd := []byte("GET"), []byte("SET"), []byte("DEL")
	drop := func() {
		if conn != nil {
			conn.Close()
			conn, rd, wr = nil, nil, nil
		}
	}
	defer drop()
	for {
		ph, remaining, running := cfg.Plan.At(time.Since(start))
		if !running {
			return ops, errs, bad
		}
		if i >= ph.ActiveWorkers(cfg.Conns) {
			drop()
			time.Sleep(remaining)
			continue
		}
		if conn == nil {
			c, err := dialRetry(cfg.Target, 4, rng)
			if err != nil {
				errs++
				continue
			}
			// The run ends with its plan: a reply still owed replyTimeout
			// after that is not coming, and the blocked read must not
			// outlive the run.
			c.SetDeadline(start.Add(cfg.Plan.Total() + replyTimeout))
			conn = c
			rd = resp.NewReader(c)
			wr = resp.NewWriter(c)
		}
		k := rng.ZipfKey(cfg.KeyRange, cfg.Theta)
		keyBuf = strconv.AppendInt(keyBuf[:0], k, 10)
		op := mix.Choose(rng.Next())
		t0 := time.Now()
		switch op {
		case workload.OpSearch:
			wr.CommandBytes(getCmd, keyBuf)
		case workload.OpInsert:
			n := cfg.ValueSize.Sample(rng)
			valBuf = workload.AppendPayload(valBuf[:0], k, rng.Next(), n)
			wr.CommandBytes(setCmd, keyBuf, valBuf)
		case workload.OpDelete:
			wr.CommandBytes(delCmd, keyBuf)
		}
		if err := wr.Flush(); err != nil {
			errs++
			drop()
			continue
		}
		rp, err := rd.ReadReply()
		if err != nil {
			errs++
			drop()
			continue
		}
		if rp.IsError() {
			errs++
			continue
		}
		// rp.Bulk is the reader's scratch: verified here, before the next
		// ReadReply reuses it.
		if op == workload.OpSearch && rp.Kind == '$' && rp.Bulk != nil &&
			!workload.VerifyPayload(rp.Bulk, k) {
			bad++
		}
		hist.Record(time.Since(t0))
		ops++
	}
}

// Prefill populates the server to the paper's half-full starting point:
// every even key in [0, keyRange) is SET (pipelined) with a sized
// self-verifying payload, so GETs under any skew hit about half the time —
// and verify — and DELs have victims from the start.
func Prefill(target string, keyRange int64, seed uint64, size workload.SizeDist) error {
	rng := workload.NewRNG(seed ^ 0xABCD)
	if size.Base <= 0 {
		size.Base = 8
	}
	c, err := dialRetry(target, 8, rng)
	if err != nil {
		return err
	}
	defer c.Close()
	rd := resp.NewReader(c)
	wr := resp.NewWriter(c)
	const batch = 128
	inFlight := 0
	// flush sends the buffered batch and reads its replies.
	flush := func() error {
		if err := wr.Flush(); err != nil {
			return err
		}
		for ; inFlight > 0; inFlight-- {
			rp, err := rd.ReadReply()
			if err != nil {
				return err
			}
			if rp.IsError() {
				return fmt.Errorf("prefill rejected: %s", rp.Str)
			}
		}
		return nil
	}
	setCmd := []byte("SET")
	var keyBuf, valBuf []byte
	for k := int64(0); k < keyRange; k += 2 {
		if inFlight == 0 {
			// Each batch, writes and replies, within replyTimeout: a mute
			// server fails the prefill instead of hanging it.
			c.SetDeadline(time.Now().Add(replyTimeout))
		}
		keyBuf = strconv.AppendInt(keyBuf[:0], k, 10)
		valBuf = workload.AppendPayload(valBuf[:0], k, rng.Next(), size.Sample(rng))
		wr.CommandBytes(setCmd, keyBuf, valBuf)
		if inFlight++; inFlight == batch {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}
