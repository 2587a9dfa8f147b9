// Package simexp runs the paper's experiments (§7) on the TSO machine
// simulator, in the virtual-cycle domain. It is the simulated counterpart
// of internal/harness: the same workloads (mixed search/insert/delete over
// the Harris–Michael list, §7.1 half-full initialization, §7.2 delay
// schedule), but throughput is measured in operations per million simulated
// cycles, fences cost real simulated cycles, and every run is bit-for-bit
// reproducible from its seed — which makes the figure-shape assertions in
// the test suite exact rather than statistical.
//
// Wall-clock experiments (internal/harness) validate the native
// implementation on a real machine; these validate the algorithms on the
// memory model the paper actually argues about.
package simexp

import (
	"fmt"
	"io"

	"qsense/internal/sim"
	"qsense/internal/sim/simlist"
	"qsense/internal/sim/simsmr"
)

// Config describes one simulated run.
type Config struct {
	// Scheme is one of simsmr.Schemes().
	Scheme string
	// Procs is the number of simulated worker processes.
	Procs int
	// KeyRange is the key universe [1, KeyRange]; the list is pre-filled
	// to half of it (§7.1).
	KeyRange uint64
	// UpdatePct is the update percentage (split evenly between inserts
	// and deletes); the rest are searches.
	UpdatePct int
	// Duration is the run length in simulated cycles per proc.
	Duration uint64
	// Seed makes the run reproducible.
	Seed uint64

	// RoosterInterval is the rooster period T in cycles. Default 100000
	// (a small multiple of the context-switch cost, as in practice).
	RoosterInterval uint64
	// Quantum trades interleaving granularity for simulation speed.
	// Default 256 cycles.
	Quantum uint64
	// Capacity overrides the automatic node pool sizing.
	Capacity int
	// MemoryLimit is the retired-node budget (OOM stand-in); 0 disables.
	MemoryLimit int
	// SampleCycles, when > 0, buckets completed ops into time-series
	// samples of this width (the per-second samples of Figure 5 bottom).
	SampleCycles uint64
	// Stalls are [start,end) windows during which proc 0 sleeps (§7.2).
	Stalls [][2]uint64
	// SMR tunes the scheme configuration after defaults.
	SMR func(*simsmr.Config)

	// DwellEvery, when > 0, turns every DwellEvery-th search into a
	// dwell read: the proc holds the protected node and re-reads it for
	// DwellCycles (simlist.Handle.Read) — an application using a
	// reference under hazard pointer protection, the paper's R5. The
	// unsafe ablations fault under this pattern.
	DwellEvery  int
	DwellCycles uint64
}

func (c Config) withDefaults() Config {
	if c.RoosterInterval == 0 {
		c.RoosterInterval = 100_000
	}
	if c.Quantum == 0 {
		c.Quantum = 256
	}
	if c.UpdatePct < 0 || c.UpdatePct > 100 {
		panic("simexp: UpdatePct out of range")
	}
	if c.Capacity == 0 {
		// Keys + memory budget + scan backlog + leak headroom for
		// "none" (operations retire at most one node each; assume one
		// per 1000 cycles per proc, far above observed rates).
		c.Capacity = int(c.KeyRange) + c.MemoryLimit +
			c.Procs*int(c.Duration/1000) + 4096
	}
	return c
}

// Bucket is one time-series sample.
type Bucket struct {
	// T is the bucket's start, in cycles.
	T uint64
	// Ops completed in the bucket, across all procs.
	Ops uint64
	// OpsPerMcycle is the bucket's throughput.
	OpsPerMcycle float64
	// InFallback and Failed snapshot the domain state observed in the
	// bucket (true if ever observed during it).
	InFallback bool
	Failed     bool
	// MaxPending is the largest retired-but-unfreed node count observed
	// during the bucket — the memory-growth series of the robustness
	// argument (unbounded for a blocked QSBR, bounded for QSense).
	MaxPending int
}

// Result is the outcome of one run.
type Result struct {
	Cfg          Config
	Ops          uint64
	Cycles       uint64 // longest proc virtual time
	OpsPerMcycle float64
	Buckets      []Bucket
	Reclaim      simsmr.Stats
	Machine      sim.Stats
	// PoolLive is the node count still allocated after CollectAll (the
	// structure itself; more for the leaky scheme).
	PoolLive int
	Failed   bool
	// FailedAt is the earliest cycle at which a proc observed Failed.
	FailedAt uint64
	// Errs are proc errors; a correct scheme produces none, an unsafe
	// ablation produces *mem.Violation here.
	Errs []error
}

// Run executes one simulated experiment.
func Run(cfg Config) Result {
	cfg = cfg.withDefaults()
	m := sim.New(sim.Config{
		Procs:           cfg.Procs,
		Seed:            cfg.Seed,
		RoosterInterval: cfg.RoosterInterval,
		Quantum:         cfg.Quantum,
	})
	l := simlist.New(m, cfg.Capacity)
	fillHalf(l, cfg.KeyRange, cfg.Seed)
	smrCfg := simsmr.Config{
		Machine: m, Pool: l.Pool(), HPs: simlist.HPs,
		Q: 16, R: 0, MemoryLimit: cfg.MemoryLimit,
	}
	if cfg.SMR != nil {
		cfg.SMR(&smrCfg)
	}
	d, err := simsmr.New(cfg.Scheme, smrCfg)
	if err != nil {
		return Result{Cfg: cfg, Errs: []error{err}}
	}

	nBuckets := 0
	if cfg.SampleCycles > 0 {
		nBuckets = int(cfg.Duration/cfg.SampleCycles) + 1
	}
	type series struct {
		ops              []uint64
		fallback, failed []bool
	}
	perProc := make([]series, cfg.Procs)
	var pendMax []int // shared across procs; execution is serialized
	if nBuckets > 0 {
		pendMax = make([]int, nBuckets)
	}
	var failedAt uint64

	insCut := uint64(cfg.UpdatePct) / 2
	delCut := uint64(cfg.UpdatePct)
	for i := 0; i < cfg.Procs; i++ {
		i := i
		if nBuckets > 0 {
			perProc[i] = series{
				ops:      make([]uint64, nBuckets),
				fallback: make([]bool, nBuckets),
				failed:   make([]bool, nBuckets),
			}
		}
		m.Spawn(i, func(p *sim.Proc) {
			h := l.NewHandle(p, d.Guard(i))
			stall := 0
			for p.Now() < cfg.Duration {
				if i == 0 && stall < len(cfg.Stalls) {
					w := cfg.Stalls[stall]
					if p.Now() >= w[0] && p.Now() < w[1] {
						p.SleepUntil(w[1])
						stall++
						continue
					}
					if p.Now() >= w[1] {
						stall++
					}
				}
				if d.Failed() {
					// OOM: the process halts (§7.3). Record when.
					if failedAt == 0 || p.Now() < failedAt {
						failedAt = p.Now()
					}
					return
				}
				k := 1 + p.Rand()%cfg.KeyRange
				switch r := p.Rand() % 100; {
				case r < insCut:
					h.Insert(k)
				case r < delCut:
					h.Delete(k)
				default:
					if cfg.DwellEvery > 0 && int(p.Ops())%cfg.DwellEvery == 0 {
						h.Read(k, func(load func() uint64) {
							deadline := p.Now() + cfg.DwellCycles
							for p.Now() < deadline {
								load()
								p.Work(100)
							}
						})
					} else {
						h.Contains(k)
					}
				}
				p.OpDone()
				if nBuckets > 0 {
					b := int(p.Now() / cfg.SampleCycles)
					if b >= nBuckets {
						b = nBuckets - 1
					}
					perProc[i].ops[b]++
					perProc[i].fallback[b] = perProc[i].fallback[b] || d.InFallback()
					perProc[i].failed[b] = perProc[i].failed[b] || d.Failed()
					if pend := d.Pending(); pend > pendMax[b] {
						pendMax[b] = pend
					}
				}
			}
		})
	}
	errs := m.Run()

	res := Result{Cfg: cfg, Errs: errs, Failed: d.Failed(), FailedAt: failedAt}
	for i := 0; i < cfg.Procs; i++ {
		res.Ops += m.Proc(i).Ops()
	}
	res.Machine = m.Stats()
	res.Cycles = res.Machine.MaxClock
	if res.Cycles > 0 {
		res.OpsPerMcycle = float64(res.Ops) / (float64(res.Cycles) / 1e6)
	}
	if nBuckets > 0 {
		res.Buckets = make([]Bucket, nBuckets)
		for b := 0; b < nBuckets; b++ {
			bk := &res.Buckets[b]
			bk.T = uint64(b) * cfg.SampleCycles
			for i := range perProc {
				bk.Ops += perProc[i].ops[b]
				bk.InFallback = bk.InFallback || perProc[i].fallback[b]
				bk.Failed = bk.Failed || perProc[i].failed[b]
			}
			bk.MaxPending = pendMax[b]
			bk.OpsPerMcycle = float64(bk.Ops) / (float64(cfg.SampleCycles) / 1e6)
		}
	}
	d.CollectAll()
	res.Reclaim = d.Stats()
	res.PoolLive = l.Pool().Stats().Live
	return res
}

// fillHalf performs the §7.1 initialization host-side: insert random keys
// until the structure holds half the key range.
func fillHalf(l *simlist.List, keyRange uint64, seed uint64) {
	s := seed ^ 0xF111F111
	next := func() uint64 {
		s += 0x9E3779B97F4A7C15
		z := s
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	target := int(keyRange / 2)
	for n := 0; n < target; {
		if l.FillHost([]uint64{1 + next()%keyRange}) == 1 {
			n++
		}
	}
}

// Point is one scalability measurement.
type Point struct {
	Procs int
	Res   Result
}

// Curve is a scheme's scalability series.
type Curve struct {
	Scheme string
	Points []Point
}

// Scalability sweeps proc counts for each scheme, holding everything else
// fixed — Figure 3 / Figure 5 (top) in the cycle domain.
func Scalability(base Config, schemes []string, procs []int, log io.Writer) []Curve {
	curves := make([]Curve, 0, len(schemes))
	for _, scheme := range schemes {
		c := Curve{Scheme: scheme}
		for _, n := range procs {
			cfg := base
			cfg.Scheme = scheme
			cfg.Procs = n
			cfg.Seed = base.Seed + uint64(n)
			res := Run(cfg)
			c.Points = append(c.Points, Point{Procs: n, Res: res})
			if log != nil {
				fmt.Fprintf(log, "%-8s procs=%-3d %10.1f ops/Mcycle\n", scheme, n, res.OpsPerMcycle)
			}
		}
		curves = append(curves, c)
	}
	return curves
}

// Fig3 returns the Figure 3 configuration in the cycle domain: the linked
// list with 10% updates, None vs QSense vs HP. KeyRange is scaled from the
// paper's 2000 (flag-adjustable in cmd/qsense-sim) to keep simulated
// traversals tractable.
func Fig3(keyRange uint64, duration uint64) (Config, []string) {
	return Config{
		KeyRange: keyRange, UpdatePct: 10, Duration: duration,
	}, []string{"none", "qsense", "hp"}
}

// Fig5Top returns the Figure 5 (top-left) configuration: 50% updates, all
// four schemes.
func Fig5Top(keyRange uint64, duration uint64) (Config, []string) {
	return Config{
		KeyRange: keyRange, UpdatePct: 50, Duration: duration,
	}, []string{"none", "qsbr", "qsense", "hp"}
}

// Fig5Bottom returns the Figure 5 (bottom) configuration: 8 procs, 50%
// updates, proc 0 stalled in windows 10-20%, 30-40%, 50-60%, 70-80%,
// 90-100% of the run (the paper's 10-second stalls every 20 seconds),
// sampled at 1% resolution.
func Fig5Bottom(keyRange uint64, duration uint64) (Config, []string) {
	var stalls [][2]uint64
	for i := 0; i < 5; i++ {
		start := duration * uint64(10+20*i) / 100
		end := duration * uint64(20+20*i) / 100
		stalls = append(stalls, [2]uint64{start, end})
	}
	return Config{
		Procs: 8, KeyRange: keyRange, UpdatePct: 50, Duration: duration,
		Stalls: stalls, SampleCycles: duration / 100,
	}, []string{"qsbr", "qsense", "hp"}
}
