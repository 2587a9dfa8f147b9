package harness

import (
	"fmt"
	"io"
	"time"

	"qsense/internal/reclaim"
	"qsense/internal/rooster"
	"qsense/internal/workload"
)

// The paper's experiment parameters (§7.2). Scaled defaults keep the same
// shape on small machines; the cmd tools expose flags to restore the exact
// paper values.
const (
	// PaperListRange, PaperSkipRange, PaperBSTRange are the key ranges of
	// Figure 3 / Figure 5: 2 000, 20 000 and 2 000 000.
	PaperListRange = 2000
	PaperSkipRange = 20000
	PaperBSTRange  = 2000000
	// DefaultBSTRange scales the BST experiment to laptop-class machines.
	DefaultBSTRange = 200000
)

// defaultReclaim is the tuning used by all experiment drivers.
func defaultReclaim(memoryLimit int) reclaim.Config {
	return reclaim.Config{
		Q:           32,
		Rooster:     rooster.Config{Interval: 2 * time.Millisecond},
		MemoryLimit: memoryLimit,
	}
}

// Point is one scalability measurement: throughput at a worker count.
type Point struct {
	Workers int
	Res     Result
}

// Curve is a scheme's scalability series. Scheme is the curve name the
// points were run under (ParseCurve), fence model included.
type Curve struct {
	Scheme string
	Points []Point
}

// ScalabilityConfig describes a Figure 3 / Figure 5 (top) style experiment.
type ScalabilityConfig struct {
	DS        string
	KeyRange  int64
	UpdatePct int
	Schemes   []string // curve names: a scheme, or HPModelled (ParseCurve)
	Workers   []int
	Duration  time.Duration
	Seed      uint64
}

// Fig3 returns the configuration of Figure 3: linked list, 2000 keys, 10%
// updates, None vs QSense vs HP — HP twice, at this machine's price and at
// the paper's (HPModelled), which is the curve the figure drew.
func Fig3(workers []int, duration time.Duration) ScalabilityConfig {
	return ScalabilityConfig{
		DS: "list", KeyRange: PaperListRange, UpdatePct: 10,
		Schemes: []string{"none", "qsense", "hp", HPModelled},
		Workers: workers, Duration: duration,
	}
}

// Fig5Top returns the configuration of one Figure 5 (top) panel: 50%
// updates, None vs QSBR vs QSense vs HP (real and HPModelled, as in Fig3),
// paper key ranges (BST scaled unless paperScale).
func Fig5Top(ds string, workers []int, duration time.Duration, paperScale bool) ScalabilityConfig {
	var kr int64
	switch ds {
	case "list":
		kr = PaperListRange
	case "skiplist":
		kr = PaperSkipRange
	case "bst":
		kr = DefaultBSTRange
		if paperScale {
			kr = PaperBSTRange
		}
	}
	return ScalabilityConfig{
		DS: ds, KeyRange: kr, UpdatePct: 50,
		Schemes: []string{"none", "qsbr", "qsense", "hp", HPModelled},
		Workers: workers, Duration: duration,
	}
}

// RunScalability executes a scalability experiment, one run per
// (scheme, workers) pair, reporting progress to log if non-nil.
func RunScalability(sc ScalabilityConfig, log io.Writer) ([]Curve, error) {
	curves := make([]Curve, 0, len(sc.Schemes))
	for _, scheme := range sc.Schemes {
		c := Curve{Scheme: scheme}
		for _, w := range sc.Workers {
			rc := defaultReclaim(0)
			// The scalability experiments measure the common case
			// (no process delays, §7.2); a generous C keeps QSense
			// on its fast path even when goroutine timeslicing on an
			// oversubscribed machine slows epoch advances — matching
			// the paper's never-oversubscribed 48-core testbed.
			rc.C = 1 << 20
			cfg := Config{
				DS: sc.DS, Scheme: scheme, Workers: w,
				KeyRange: sc.KeyRange, UpdatePct: sc.UpdatePct,
				Duration: sc.Duration, Reclaim: rc,
				Seed: sc.Seed + uint64(w),
			}
			res, err := Run(cfg)
			if err != nil {
				return nil, fmt.Errorf("%s/%s/%d workers: %w", sc.DS, scheme, w, err)
			}
			c.Points = append(c.Points, Point{Workers: w, Res: res})
			if log != nil {
				fmt.Fprintf(log, "%-8s %-12s workers=%-3d %8.3f Mops/s\n", sc.DS, scheme, w, res.Mops)
			}
		}
		curves = append(curves, c)
	}
	return curves, nil
}

// LeaseChurnResult pairs one scheme's held-lease run with its short-lease
// run (the leasing follow-up experiment): how much throughput the
// Acquire/Release cadence costs, and how the epoch machinery behaves when
// workers blink in and out of the protocol instead of standing still.
type LeaseChurnResult struct {
	Scheme  string
	Held    Result
	Churned Result
}

// LeaseOverheadPct is the churned run's throughput deficit vs held, in
// percent (negative = churned was faster, i.e. within noise).
func (r LeaseChurnResult) LeaseOverheadPct() float64 {
	if r.Held.Mops <= 0 {
		return 0
	}
	return (1 - r.Churned.Mops/r.Held.Mops) * 100
}

// RunLeaseChurn runs each scheme twice over the same workload — once with
// every worker holding one lease for the run (the paper's fixed-worker
// model) and once with workers re-leasing their guard every leaseEvery
// 64-op batches (the goroutine-per-request shape). Short leases stress
// exactly the paths the paper's model never exercises: the per-lease join
// (a quiescent state, so epochs rotate on lease churn alone), the release
// drain, and orphan adoption of whatever backlog a released slot leaves
// behind. The logged epoch-advance and adoption counters make that
// interaction visible next to the raw throughput cost (one CAS pair plus
// join/drain per lease).
func RunLeaseChurn(ds string, schemes []string, workers, leaseEvery int, keyRange int64, duration time.Duration, seed uint64, log io.Writer) ([]LeaseChurnResult, error) {
	out := make([]LeaseChurnResult, 0, len(schemes))
	for _, scheme := range schemes {
		rc := defaultReclaim(0)
		rc.C = 1 << 20 // common case: stay on the fast path (see RunScalability)
		cfg := Config{
			DS: ds, Scheme: scheme, Workers: workers,
			KeyRange: keyRange, UpdatePct: 50,
			Duration: duration, Reclaim: rc, Seed: seed,
		}
		held, err := Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s/%s held: %w", ds, scheme, err)
		}
		cfg.LeaseEvery = max(leaseEvery, 1)
		churned, err := Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s/%s churned: %w", ds, scheme, err)
		}
		r := LeaseChurnResult{Scheme: scheme, Held: held, Churned: churned}
		out = append(out, r)
		if log != nil {
			fmt.Fprintf(log, "%-8s held %8.3f Mops/s | churned %8.3f Mops/s (%+5.1f%%) | epochs %d->%d | leases %d | orphaned/adopted %d/%d\n",
				scheme, held.Mops, churned.Mops, r.LeaseOverheadPct(),
				held.Reclaim.EpochAdvances, churned.Reclaim.EpochAdvances,
				churned.Reclaim.AcquiredHandles,
				churned.Reclaim.OrphanedNodes, churned.Reclaim.AdoptedNodes)
		}
	}
	return out, nil
}

// DelayConfig describes a Figure 5 (bottom) style experiment: fixed worker
// count, periodic stalls of one worker, per-interval throughput samples.
type DelayConfig struct {
	DS       string
	KeyRange int64
	Schemes  []string // curve names, as in ScalabilityConfig
	Workers  int
	// Scale stretches the paper's 100s/10s schedule: 1.0 is the paper,
	// 0.2 runs the same five stall cycles in 20 seconds.
	Scale float64
	// MemoryLimit is the retired-node budget standing in for RAM (§7.3:
	// "the system runs out of memory and eventually fails"). 0 picks an
	// automatic budget: comfortably above QSense's worst-case backlog
	// (Property 4's 2NC) yet below what a blocking scheme accumulates
	// during one stall on any structure fast enough to matter.
	MemoryLimit int
	Seed        uint64
}

// DelayReclaim returns the reclaim tuning for delay experiments: a fallback
// threshold C just above the legal minimum (so the compressed schedules
// still trigger the switch) and the given or automatic memory budget.
func DelayReclaim(ds string, workers, memoryLimit int) (reclaim.Config, error) {
	hps, err := HPsForDS(ds)
	if err != nil {
		return reclaim.Config{}, err
	}
	rc := defaultReclaim(memoryLimit)
	// C per structure: the linked list retires ~10x slower than the other
	// structures, so its switch threshold must be lower for a stall to
	// trigger the fallback promptly; the fast structures get a higher C
	// so ordinary scheduler-induced backlog does not flap the path.
	floorC := 4096
	if ds == "list" {
		floorC = 512
	}
	rc.C = max(reclaim.LegalC(reclaim.Config{Workers: workers, HPs: hps, Q: rc.Q}), floorC)
	if memoryLimit == 0 {
		// The automatic budget sits between two machine-dependent
		// quantities: above the healthy operating backlog (which on an
		// oversubscribed scheduler includes retire-rate × epoch-advance
		// latency) and below what one stall accumulates under a
		// blocking scheme. Always at least 3x Property 4's 2NC so
		// QSense never trips it. Tune with the -limit flag when the
		// bands overlap on a given machine.
		factor := 8
		if ds == "list" {
			factor = 6
		}
		rc.MemoryLimit = factor * workers * rc.C
	}
	return rc, nil
}

// Fig5Bottom returns one Figure 5 (bottom) panel configuration: QSBR vs
// QSense vs HP (real and HPModelled, as in Fig3).
func Fig5Bottom(ds string, scale float64, memoryLimit int) DelayConfig {
	var kr int64
	switch ds {
	case "list":
		kr = PaperListRange
	case "skiplist":
		kr = PaperSkipRange
	case "bst":
		kr = DefaultBSTRange
	}
	return DelayConfig{
		DS: ds, KeyRange: kr,
		Schemes: []string{"qsbr", "qsense", "hp", HPModelled},
		Workers: 8, Scale: scale, MemoryLimit: memoryLimit,
	}
}

// RunDelays executes the path-switching experiment for each scheme.
func RunDelays(dc DelayConfig, log io.Writer) (map[string]Result, error) {
	if dc.Scale <= 0 {
		dc.Scale = 1
	}
	plan := workload.PaperDelayPlan(dc.Scale)
	total := time.Duration(float64(100*time.Second) * dc.Scale)
	sample := time.Duration(float64(time.Second) * dc.Scale)
	rc, err := DelayReclaim(dc.DS, dc.Workers, dc.MemoryLimit)
	if err != nil {
		return nil, err
	}
	out := make(map[string]Result, len(dc.Schemes))
	for _, scheme := range dc.Schemes {
		cfg := Config{
			DS: dc.DS, Scheme: scheme, Workers: dc.Workers,
			KeyRange: dc.KeyRange, UpdatePct: 50,
			Duration: total, Reclaim: rc,
			Delays: &plan, SampleEvery: sample, Seed: dc.Seed,
		}
		res, err := Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", dc.DS, scheme, err)
		}
		out[scheme] = res
		if log != nil {
			status := "completed"
			if res.Failed {
				status = fmt.Sprintf("FAILED (out of memory) at %v", res.FailedAt.Round(sample))
			}
			fmt.Fprintf(log, "%-8s %-12s %8.3f Mops/s avg, switches %d/%d, %s\n",
				dc.DS, scheme, res.Mops, res.Reclaim.SwitchesToFallback, res.Reclaim.SwitchesToFast, status)
		}
	}
	return out, nil
}

// Overheads summarizes a scalability experiment the way §7.3 quotes it:
// each scheme's average throughput deficit vs the leaky baseline.
func Overheads(curves []Curve) map[string]float64 {
	var base *Curve
	for i := range curves {
		if curves[i].Scheme == "none" {
			base = &curves[i]
		}
	}
	out := map[string]float64{}
	if base == nil {
		return out
	}
	for _, c := range curves {
		if c.Scheme == "none" {
			continue
		}
		var sum float64
		var n int
		for i, p := range c.Points {
			if i < len(base.Points) && base.Points[i].Res.Mops > 0 {
				sum += 1 - p.Res.Mops/base.Points[i].Res.Mops
				n++
			}
		}
		if n > 0 {
			out[c.Scheme] = sum / float64(n) * 100
		}
	}
	return out
}

// SpeedupOver reports scheme a's average throughput multiple over scheme b
// across matching points (the paper's "QSense outperforms HP by 2-3x").
func SpeedupOver(curves []Curve, a, b string) float64 {
	var ca, cb *Curve
	for i := range curves {
		switch curves[i].Scheme {
		case a:
			ca = &curves[i]
		case b:
			cb = &curves[i]
		}
	}
	if ca == nil || cb == nil {
		return 0
	}
	var sum float64
	var n int
	for i, p := range ca.Points {
		if i < len(cb.Points) && cb.Points[i].Res.Mops > 0 {
			sum += p.Res.Mops / cb.Points[i].Res.Mops
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
