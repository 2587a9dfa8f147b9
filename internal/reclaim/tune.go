package reclaim

// Growth-aware threshold re-tuning.
//
// The paper states its bounds in terms of the participating thread count N:
// the scan threshold R (§5.1, default 2NK+64) amortizes scans against the
// N·K hazard pointers a scan must inspect, and QSense's fallback threshold C
// must exceed LegalC's §6.2 bound, whose dominant term is NK+T. Before this
// file both were frozen at construction from the INITIAL Workers, so an
// elastic domain that grew 8 → 16384 slots kept scanning every ~2·8·K
// retires (far too often for the paper's amortization once N_live is large)
// and, worse, kept enforcing C's legality against N=8 while 16384 workers
// could be holding hazard pointers — quietly violating the Property 4
// precondition the constructor checks.
//
// The tuner re-derives both thresholds at every capacity transition —
// growth, segment park, segment unpark — which are exactly the points where
// the effective N changes regime. The N it uses is the UNPARKED capacity
// (published slots minus parked ones): occupancy can rise to that capacity
// without another transition running the tuner, so it is the largest worker
// count the thresholds must stay sound for until the next retune — and
// parking still shrinks it back after a burst drains. Between transitions
// the values are stable, so guards cache them in plain fields (tunerCache)
// and refresh only when the generation counter moved, at naturally cold
// points: lease join, scan completion, quiescent states. The Retire/Begin
// hot paths read the plain cached fields — no new hot-path atomics.
//
// Policy:
//
//   - R: when the caller left Config.R zero (the default formula), R is
//     recomputed as 2·N_eff·K+64 with N_eff the clamped live occupancy. An
//     explicitly configured R is respected verbatim — it is a caller's
//     deliberate perf/memory trade and has no legality constraint.
//   - C: the §6.2 legality bound LegalC is recomputed against N_eff and the
//     current effective R. A defaulted C follows max(LegalC, 8192) as at
//     construction; an explicitly configured C is treated as a FLOOR — it is
//     raised while growth makes it illegal (the §6.2 bound must hold against
//     the current N, not the initial one) and falls back to the configured
//     value when parking shrinks the bound again. NewQSense still rejects a
//     C that is illegal even for the initial N.
//
// Stats.RRetunes / Stats.CRetunes count the applied changes so harnesses
// can observe re-tuning.

import "sync/atomic"

// tuner owns a domain's effective R and C. The slot pool calls retune at
// its capacity transitions, under its growth lock; R/C/gen are read
// lock-free by tunerCache.
type tuner struct {
	cfg Config // defaults applied; cfg.R / cfg.C are the configured values
	cnt *counters
	gen atomic.Uint64
	r   atomic.Int64
	c   atomic.Int64
}

func newTuner(cfg Config, cnt *counters) *tuner {
	t := &tuner{cfg: cfg, cnt: cnt}
	t.r.Store(int64(cfg.R))
	t.c.Store(int64(cfg.C))
	t.gen.Store(1) // caches start at seen=0, so the first refresh loads
	return t
}

// retune recomputes the effective thresholds for an effective worker count
// n (the unparked capacity) over a high-slot arena. Called at capacity
// transitions, serialized by the slot pool's growMu.
func (t *tuner) retune(n, high int64) {
	if n < 1 {
		n = 1
	}
	if n > high {
		n = high
	}
	eff := t.cfg
	eff.Workers = int(n)
	if t.cfg.rAuto {
		eff.R = 2*int(n)*eff.HPs + 64
	}
	legal := LegalC(eff)
	c := t.cfg.C
	if t.cfg.cAuto {
		c = max(legal, 8192)
	} else if c < legal {
		c = legal // §6.2: the bound binds against the CURRENT N
	}
	changed := false
	if int64(eff.R) != t.r.Load() {
		t.r.Store(int64(eff.R))
		t.cnt.retunesR.Add(1)
		changed = true
	}
	if int64(c) != t.c.Load() {
		t.c.Store(int64(c))
		t.cnt.retunesC.Add(1)
		changed = true
	}
	if changed {
		t.gen.Add(1)
	}
}

// tunerCache is a guard's plain-field view of the tuner, refreshed at cold
// points (join, scan completion, quiescent states) via the generation
// counter. The hot paths read r and c directly.
type tunerCache struct {
	seen uint64
	r, c int
}

// refresh reloads the cached thresholds if the tuner's generation moved.
func (tc *tunerCache) refresh(t *tuner) {
	if t == nil {
		return
	}
	if g := t.gen.Load(); g != tc.seen {
		tc.seen = g
		tc.r = int(t.r.Load())
		tc.c = int(t.c.Load())
	}
}
