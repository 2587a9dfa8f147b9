// Package fence models the cost of memory-barrier instructions, for the
// harnesses that redraw the paper's figures and for nothing else.
//
// The paper's central performance argument is that the classic hazard
// pointer scheme pays an mfence-class instruction ("hundreds of processor
// cycles", §3.2) after every hazard pointer store during traversal, while
// Cadence's stores need no fence. Go complicates a literal reproduction: a
// sync/atomic store is already sequentially consistent (XCHG on amd64), so
// the *ordering* a fence would provide is inherent, hp and Cadence issue the
// same instruction per publication, and on current hardware they cost the
// same — which is what every default path of this repository measures and
// reports (reclaim.NewHP builds no Model unless asked).
//
// A Model puts the paper's gap back where the paper's hardware is being
// reproduced: it represents a fence cost in nanoseconds, paid as a
// calibrated busy-spin only where a harness asks for it
// (reclaim.Config.FenceCost > 0: internal/harness's hp@model50ns curves,
// the hp@model… rows of the root benchmarks, cmd/qsense-calibrate) and never
// by the public package, qsense-kvd or the repository's benchmark. The
// default of 50ns corresponds to ~100 cycles on the paper's 2.1 GHz testbed
// — the low end of "hundreds of processor cycles" (§3.2) — so the reproduced
// HP penalty is, if anything, understated. Every output that carries the
// model names it: with it, hp's distance to Cadence tracks the number of
// publications per operation; without it the two coincide. CI greps that
// DefaultCost and NewModel are referenced from nowhere else.
package fence

import (
	"sync"
	"time"
)

// DefaultCost is the modeled latency of one full memory fence: ~100 cycles
// on the paper's 2.1 GHz Opterons ("hundreds of processor cycles", §3.2).
const DefaultCost = 50 * time.Nanosecond

// Model is a fence latency model. The zero value is a free fence (no cost).
//
// A Model must not be shared across concurrently-fencing goroutines: its
// sink field is written on every Full call, and sharing it would add real
// cross-core cache-line contention that the *model* is not supposed to
// have (a hardware mfence stalls only its own core). Create one Model per
// worker; it is a few bytes.
type Model struct {
	iters int
	cost  time.Duration
	// sink defeats dead-code elimination of the spin loop. Written only
	// by the owning worker and read by nobody else, so it is race-free;
	// padded so adjacent Models never share a cache line.
	sink uint32
	_    [52]byte
}

// NewModel returns a model that makes Full() consume approximately cost.
func NewModel(cost time.Duration) *Model {
	if cost <= 0 {
		return &Model{}
	}
	return &Model{iters: itersFor(cost), cost: cost}
}

// Cost returns the latency this model was built for.
func (m *Model) Cost() time.Duration { return m.cost }

// Full pays the modeled latency of a full memory barrier. In Go the ordering
// itself is provided by the atomic store that precedes this call; Full
// models only the stall an mfence would add on the paper's hardware.
func (m *Model) Full() {
	if m.iters > 0 {
		m.sink = spin(m.iters, m.sink)
	}
}

//go:noinline
func spin(n int, seed uint32) uint32 {
	x := seed ^ 0x9e3779b9
	for i := 0; i < n; i++ {
		x = x*1664525 + 1013904223
	}
	return x
}

var (
	calOnce  sync.Once
	nsPerIt  float64
	calIters = 1 << 20
)

// NsPerIteration reports the calibrated duration of one spin iteration on
// this machine. The first call measures; later calls return the cached value.
func NsPerIteration() float64 {
	calOnce.Do(func() {
		// Warm up, then take the best of three to dodge scheduler noise.
		s := spin(calIters, 0)
		best := time.Duration(1 << 62)
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			s = spin(calIters, s)
			if d := time.Since(t0); d < best {
				best = d
			}
		}
		calSink = s
		nsPerIt = float64(best.Nanoseconds()) / float64(calIters)
		if nsPerIt <= 0 {
			nsPerIt = 0.5 // pathological timer; assume ~2 iters/ns
		}
	})
	return nsPerIt
}

var calSink uint32

func itersFor(cost time.Duration) int {
	it := int(float64(cost.Nanoseconds()) / NsPerIteration())
	if it < 1 {
		it = 1
	}
	return it
}
