// Package harness runs the paper's experiments (§7): timed throughput runs
// of concurrent set operations over four data structures (the paper's
// three and the hash table), under any of the nine reclamation schemes,
// with optional process-delay injection and per-second throughput
// sampling. The cmd/ tools and the repository's benchmarks are thin
// wrappers around this package.
package harness

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"qsense/internal/reclaim"
	"qsense/internal/workload"
)

// SetHandle is a worker's view of a concurrent set; all four data
// structure handles implement it.
type SetHandle interface {
	Contains(key int64) bool
	Insert(key int64) bool
	Delete(key int64) bool
}

// Config describes one experiment run.
type Config struct {
	DS        string // "list", "skiplist", "bst", "hashmap"
	Scheme    string // one of reclaim.Schemes(), or a modelled curve (ParseCurve)
	Workers   int
	KeyRange  int64
	UpdatePct int
	Duration  time.Duration

	// Reclaim carries scheme tuning (Q, R, C, rooster interval,
	// MemoryLimit...). Workers, HPs and Free are filled by the harness,
	// and so is FenceCost, from Scheme: a Config that sets it is refused.
	Reclaim reclaim.Config

	// LeaseEvery is how many 64-op batches a worker runs per guard lease.
	// 0 (the default) is the paper's fixed-process model: each worker
	// leases once and holds its guard for the whole run, so a delayed
	// worker stalls INSIDE the protocol, slot in hand. n > 0 re-leases
	// every n batches (the leasechurn experiment; 1 = maximal churn) and
	// stalls between leases — a parked goroutine holds no slot — so the
	// stall measures the schemes with the stalled worker OUT of the
	// protocol.
	LeaseEvery int

	// Delays, when non-nil, stalls a worker per the plan (§7.2).
	Delays *workload.DelayPlan

	// SampleEvery, when > 0, records a throughput sample at this period.
	SampleEvery time.Duration

	// Seed diversifies RNG streams across runs.
	Seed uint64

	// NoFill skips the §7.1 initialization (tests).
	NoFill bool
}

// Sample is one point of a throughput time series.
type Sample struct {
	T          time.Duration
	Mops       float64
	InFallback bool
	Failed     bool
}

// Result is the outcome of a run.
type Result struct {
	Cfg      Config
	Ops      uint64
	Duration time.Duration
	Mops     float64
	Samples  []Sample
	Reclaim  reclaim.Stats
	PoolLive uint64 // nodes still allocated after Close (leak for "none")
	Failed   bool
	FailedAt time.Duration
}

// padCounter is a per-worker op counter padded to a cache line.
type padCounter struct {
	v atomic.Uint64
	_ [56]byte
}

// Run executes one experiment and returns its measurements.
func Run(cfg Config) (Result, error) {
	if cfg.Workers <= 0 {
		return Result{}, fmt.Errorf("harness: workers must be positive")
	}
	if cfg.KeyRange <= 1 {
		return Result{}, fmt.Errorf("harness: key range must exceed 1")
	}
	set, err := buildSet(&cfg)
	if err != nil {
		return Result{}, err
	}
	defer set.close()

	if !cfg.NoFill {
		// Released before the workers start: the fill is not one of the
		// paper's N processes, and must not make the arena grow past N.
		g, err := set.dom.Acquire()
		if err != nil {
			return Result{}, err
		}
		fill(set.handle(g), cfg.KeyRange, cfg.Seed)
		set.dom.Release(g)
	}

	ops := make([]padCounter, cfg.Workers)
	var stop atomic.Bool
	var failedAt atomic.Int64 // ns since start; 0 = not failed
	start := time.Now()

	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			runWorker(&cfg, set, w, &ops[w].v, &stop, &failedAt, start)
		}(w)
	}

	var samples []Sample
	if cfg.SampleEvery > 0 {
		samples = sampleLoop(&cfg, set.dom, ops, &stop, start)
	} else {
		time.Sleep(cfg.Duration)
	}
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)

	var total uint64
	for i := range ops {
		total += ops[i].v.Load()
	}
	res := Result{
		Cfg:      cfg,
		Ops:      total,
		Duration: elapsed,
		Mops:     float64(total) / elapsed.Seconds() / 1e6,
		Samples:  samples,
		Failed:   set.dom.Failed(),
	}
	if ns := failedAt.Load(); ns > 0 {
		res.FailedAt = time.Duration(ns)
	}
	set.closeDomain() // drains every pending retiree
	res.Reclaim = set.dom.Stats()
	res.PoolLive = set.poolLive()
	return res, nil
}

// runWorker is the per-worker operation loop: lease a guard, run batches
// through the slot's cached handle, release. With LeaseEvery == 0 the one
// lease spans the run; otherwise the run pays one lease/release pair (plus
// the scheme's join and drain paths) every LeaseEvery*64 operations, and
// the epoch machinery sees the worker appear and disappear at that cadence.
// The wall clock, the delay plan and the failure flag are checked once per
// batch so the hot path stays just the data structure operation.
func runWorker(cfg *Config, set *builtSet, w int, opCount *atomic.Uint64, stop *atomic.Bool, failedAt *atomic.Int64, start time.Time) {
	rng := workload.NewRNG(cfg.Seed + uint64(w)*7919 + 1)
	mix := workload.Mix{UpdatePct: cfg.UpdatePct}
	hold := cfg.LeaseEvery <= 0
	// stall sleeps through a planned delay of this worker (§7.2) — holding
	// no references and declaring no quiescent states — and reports whether
	// there was one.
	stall := func() bool {
		if cfg.Delays == nil || cfg.Delays.Worker != w {
			return false
		}
		stalled, until := cfg.Delays.StalledAt(time.Since(start))
		for stalled && time.Since(start) < until && !stop.Load() {
			time.Sleep(time.Millisecond)
		}
		return stalled
	}
	local := uint64(0)
	for !stop.Load() {
		if !hold {
			stall() // between leases: the stalled worker holds no slot
		}
		// AcquireWait, not Acquire: a run against a hard-capped domain
		// should queue at the cap (the backpressure semantics), not
		// silently drop workers from the measurement. The background
		// context never cancels, so err is impossible — fail loudly rather
		// than deflate Ops if that ever changes.
		g, err := set.dom.AcquireWait(context.Background())
		if err != nil {
			panic(fmt.Sprintf("harness: worker lost its guard: %v", err))
		}
		h := set.handle(g)
		for b := 0; (hold || b < cfg.LeaseEvery) && !stop.Load(); b++ {
			if hold && stall() {
				continue // the stalled worker kept its slot
			}
			// Failure emulation: a failed domain means the process is out
			// of memory; all workers halt (the paper's QSBR lines end).
			if set.dom.Failed() {
				failedAt.CompareAndSwap(0, int64(time.Since(start)))
				set.dom.Release(g)
				return
			}
			local = runBatch(h, rng, mix, cfg.KeyRange, local)
			opCount.Store(local)
		}
		set.dom.Release(g)
	}
}

// runBatch runs one 64-op batch and returns the updated local op count.
func runBatch(h SetHandle, rng *workload.RNG, mix workload.Mix, keyRange int64, local uint64) uint64 {
	const batch = 64
	for i := 0; i < batch; i++ {
		k := rng.Key(keyRange)
		switch mix.Choose(rng.Next()) {
		case workload.OpSearch:
			h.Contains(k)
		case workload.OpInsert:
			h.Insert(k)
		case workload.OpDelete:
			h.Delete(k)
		}
		local++
	}
	return local
}

// sampleLoop records throughput at cfg.SampleEvery until cfg.Duration.
func sampleLoop(cfg *Config, dom reclaim.Domain, ops []padCounter, stop *atomic.Bool, start time.Time) []Sample {
	var samples []Sample
	tick := time.NewTicker(cfg.SampleEvery)
	defer tick.Stop()
	deadline := start.Add(cfg.Duration)
	prev := uint64(0)
	prevT := time.Duration(0)
	for now := range tick.C {
		t := now.Sub(start)
		var total uint64
		for i := range ops {
			total += ops[i].v.Load()
		}
		st := dom.Stats()
		dt := (t - prevT).Seconds()
		if dt <= 0 {
			dt = cfg.SampleEvery.Seconds()
		}
		samples = append(samples, Sample{
			T:          t,
			Mops:       float64(total-prev) / dt / 1e6,
			InFallback: st.InFallback,
			Failed:     st.Failed,
		})
		prev, prevT = total, t
		if now.After(deadline) {
			break
		}
	}
	return samples
}

// fill performs the §7.1 initialization: one worker inserts random keys
// until the structure holds half the key range.
func fill(h SetHandle, keyRange int64, seed uint64) {
	rng := workload.NewRNG(seed ^ 0xF111)
	target := workload.Fill(keyRange)
	for n := int64(0); n < target; {
		if h.Insert(rng.Key(keyRange)) {
			n++
		}
	}
}
