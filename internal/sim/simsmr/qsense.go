package simsmr

import (
	"qsense/internal/mem"
	"qsense/internal/sim"
)

// QSense is the hybrid scheme (§5.2, Algorithm 5) on the simulator. As in
// the paper, some machinery runs on both paths: hazard pointers are always
// published (fence-free) and retires are always timestamped, so the switch
// to the fallback path is instantly safe (§4.1). The fallback flag, the
// epochs and the presence signals are words in simulated memory.
//
// One representational deviation from Algorithm 5, shared with the native
// implementation's analysis: presence is a per-proc *timestamp* (last
// active virtual time) rather than a flag array reset by a background
// process. "All processes active" becomes "every proc signalled within
// PresenceWindow", which is the same predicate the flag+reset protocol
// evaluates, without needing an agent to perform resets.
type QSense struct {
	cfg      Config
	cnt      counters
	hps      hpArray
	procs    int
	t        uint64
	epoch    sim.Addr // global epoch word
	locals   sim.Addr // per-proc local epochs
	fallback sim.Addr // the fallback-flag (0 fast, 1 fallback)
	presence sim.Addr // per-proc last-active timestamps
	// fallbackAt is the virtual time the fallback flag was last raised
	// (host-side; execution is serialized). Switch-back requires presence
	// evidence newer than this — the timestamp analog of the paper's
	// flag reset: a stalled proc's pre-stall presence must not count as
	// "active again" (§5.2 step 3).
	fallbackAt uint64
	guards     []*qsenseGuard
}

type qsenseGuard struct {
	d        *QSense
	p        *sim.Proc
	w        int
	limbo    [3][]retiredNode
	total    int
	calls    int
	retires  int
	prevFall bool
	snap     map[uint64]struct{}
}

// NewQSense builds a simulated QSense domain (roosters required).
func NewQSense(cfg Config) (*QSense, error) {
	if err := cfg.validate(true); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	n := cfg.Machine.Config().Procs
	d := &QSense{
		cfg:      cfg,
		procs:    n,
		t:        cfg.Machine.Config().RoosterInterval,
		hps:      newHPArray(cfg.Machine, n, cfg.HPs),
		epoch:    cfg.Machine.Reserve(1),
		locals:   cfg.Machine.Reserve(n),
		fallback: cfg.Machine.Reserve(1),
		presence: cfg.Machine.Reserve(n),
	}
	for i := 0; i < n; i++ {
		d.guards = append(d.guards, &qsenseGuard{d: d, p: cfg.Machine.Proc(i), w: i})
	}
	return d, nil
}

// Guard implements Domain.
func (d *QSense) Guard(i int) Guard { return d.guards[i] }

// Name implements Domain.
func (d *QSense) Name() string { return "qsense" }

// Pending implements Domain.
func (d *QSense) Pending() int { return d.cnt.pending() }

// Failed implements Domain.
func (d *QSense) Failed() bool { return d.cnt.failed }

// GlobalEpoch exposes the global epoch for tests (drained value).
func (d *QSense) GlobalEpoch() uint64 { return d.cfg.Machine.Peek(d.epoch) }

// Stats implements Domain.
func (d *QSense) Stats() Stats {
	s := Stats{Scheme: "qsense"}
	d.cnt.fill(&s)
	return s
}

// CollectAll implements Domain.
func (d *QSense) CollectAll() {
	for _, g := range d.guards {
		for b := range g.limbo {
			for _, n := range g.limbo[b] {
				d.cfg.Pool.Reclaim(n.ref)
				d.cnt.freed++
			}
			g.limbo[b] = g.limbo[b][:0]
		}
		g.total = 0
	}
}

// Begin is manage_qsense_state (Algorithm 5, lines 12-34).
func (g *qsenseGuard) Begin() {
	g.calls++
	if g.calls%g.d.cfg.Q != 0 {
		return
	}
	// Signal presence (is_active): publish the current virtual time.
	g.p.AtomicStore(g.d.presence+sim.Addr(g.w), g.p.Now())
	if g.p.Load(g.d.fallback) == 0 {
		// Common case: run the fast path.
		g.quiescent()
		g.prevFall = false
		return
	}
	// Fallback: try to switch back to the fast path.
	if g.allActive() {
		if _, ok := g.p.CAS(g.d.fallback, 1, 0); ok {
			g.d.cnt.toFast++
			g.prevFall = false
			g.quiescent()
			return
		}
	}
	g.prevFall = true
}

// allActive reports whether every proc signalled presence recently AND
// after the fallback engaged (§5.2 step 3, in timestamp form): stale
// pre-stall presence must not trigger a switch-back.
func (g *qsenseGuard) allActive() bool {
	now := g.p.Now()
	for w := 0; w < g.d.procs; w++ {
		ts := g.p.Load(g.d.presence + sim.Addr(w))
		if ts < g.d.fallbackAt {
			return false
		}
		if ts < now && now-ts > g.d.cfg.PresenceWindow {
			return false
		}
	}
	return true
}

// quiescent is QSBR's quiescent state over timestamped buckets (bucket
// arithmetic as in qsbr.go).
func (g *qsenseGuard) quiescent() {
	g.d.cnt.quiesces++
	global := g.p.Load(g.d.epoch)
	local := g.p.Load(g.d.locals + sim.Addr(g.w))
	if local != global {
		g.p.AtomicStore(g.d.locals+sim.Addr(g.w), global)
		g.freeBucket(int(global % 3))
		return
	}
	for w := 0; w < g.d.procs; w++ {
		if w == g.w {
			continue
		}
		if g.p.Load(g.d.locals+sim.Addr(w)) != global {
			return
		}
	}
	if _, ok := g.p.CAS(g.d.epoch, global, global+1); ok {
		g.d.cnt.epochs++
		g.p.AtomicStore(g.d.locals+sim.Addr(g.w), global+1)
		g.freeBucket(int((global + 1) % 3))
	}
}

func (g *qsenseGuard) freeBucket(b int) {
	for _, n := range g.limbo[b] {
		g.d.cfg.Pool.Free(g.p, n.ref)
		g.d.cnt.freed++
	}
	g.total -= len(g.limbo[b])
	g.limbo[b] = g.limbo[b][:0]
}

// Protect publishes fence-free, exactly as in Cadence; hazard pointers are
// maintained on both paths (§4.1).
func (g *qsenseGuard) Protect(i int, r mem.Ref) {
	g.p.Store(g.d.hps.slot(g.w, i), uint64(r.Untagged()))
}

// ClearHPs zeroes this guard's slots with bare stores.
func (g *qsenseGuard) ClearHPs() {
	for i := 0; i < g.d.cfg.HPs; i++ {
		g.p.Store(g.d.hps.slot(g.w, i), 0)
	}
}

// Retire is free_node_later (Algorithm 5, lines 36-61). The wrapper is
// always timestamped and bucketed by the local epoch, whatever the path.
func (g *qsenseGuard) Retire(r mem.Ref) {
	if r.IsNil() {
		panic("simsmr: retire of nil Ref")
	}
	b := g.p.Load(g.d.locals+sim.Addr(g.w)) % 3
	g.limbo[b] = append(g.limbo[b], retiredNode{ref: r.Untagged(), stamp: g.p.Now()})
	g.total++
	g.d.cnt.noteRetire(g.d.cfg.MemoryLimit)
	g.retires++

	seen := g.p.Load(g.d.fallback) != 0
	switch {
	case seen && g.retires%g.d.cfg.R == 0:
		// Fallback mode: Cadence scan over all three limbo buckets.
		g.scanAll()
		g.prevFall = true
	case g.prevFall && !seen:
		// Switch back to the fast path was triggered by another
		// proc. As in the native implementation (and deviating from
		// Algorithm 5's lines 49-52), the quiescent state itself is
		// deferred to the next Begin: free_node_later runs
		// mid-operation, when this proc still holds hazardous
		// references, and quiescing here would let peers' wholesale
		// frees reclaim nodes this proc is using.
		g.prevFall = false
	case !seen && !g.prevFall && g.total >= g.d.cfg.C:
		// Quiescence has not been possible for too long: raise the
		// fallback flag (§5.2 step 1) and scan immediately.
		if _, ok := g.p.CAS(g.d.fallback, 0, 1); ok {
			g.d.cnt.toFall++
			g.d.fallbackAt = g.p.Now()
		}
		g.prevFall = true
		g.scanAll()
	}
}

func (g *qsenseGuard) scanAll() {
	g.total = 0
	for b := range g.limbo {
		g.limbo[b] = scanDeferred(&g.d.cnt, g.d.cfg, g.d.hps, g.d.procs, g.d.t, g.p, g.limbo[b], &g.snap)
		g.total += len(g.limbo[b])
	}
}
