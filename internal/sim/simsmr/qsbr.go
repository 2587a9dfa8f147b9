package simsmr

import (
	"qsense/internal/mem"
	"qsense/internal/sim"
)

// QSBR is quiescent-state-based reclamation (§3.1) on the simulator: three
// logical epochs, per-proc limbo buckets, wholesale frees on epoch
// adoption. The global and local epochs are words in simulated memory;
// epoch publication uses AtomicStore (an x86 XCHG) because the adversarial
// machine never drains plain stores in the background, and an epoch
// announcement stuck in a store buffer would stall every peer's grace
// period — real QSBR implementations rely on hardware draining these plain
// stores promptly, which the atomic op models explicitly.
//
// The bucket arithmetic matches internal/reclaim/qsbr.go: on adopting
// global epoch g, bucket (g mod 3) — retired at epoch g-3 — has passed a
// full grace period and is freed wholesale.
type QSBR struct {
	cfg    Config
	cnt    counters
	procs  int
	epoch  sim.Addr // global epoch word
	locals sim.Addr // per-proc local epoch words
	guards []*qsbrGuard
}

type qsbrGuard struct {
	d     *QSBR
	p     *sim.Proc
	w     int
	limbo [3][]retiredNode
	calls int
}

// NewQSBR builds a simulated QSBR domain.
func NewQSBR(cfg Config) (*QSBR, error) {
	if err := cfg.validate(false); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	n := cfg.Machine.Config().Procs
	d := &QSBR{
		cfg:    cfg,
		procs:  n,
		epoch:  cfg.Machine.Reserve(1),
		locals: cfg.Machine.Reserve(n),
	}
	for i := 0; i < n; i++ {
		d.guards = append(d.guards, &qsbrGuard{d: d, p: cfg.Machine.Proc(i), w: i})
	}
	return d, nil
}

// Guard implements Domain.
func (d *QSBR) Guard(i int) Guard { return d.guards[i] }

// Name implements Domain.
func (d *QSBR) Name() string { return "qsbr" }

// Pending implements Domain.
func (d *QSBR) Pending() int { return d.cnt.pending() }

// Failed implements Domain.
func (d *QSBR) Failed() bool { return d.cnt.failed }

// Stats implements Domain.
func (d *QSBR) Stats() Stats {
	s := Stats{Scheme: "qsbr"}
	d.cnt.fill(&s)
	return s
}

// CollectAll implements Domain.
func (d *QSBR) CollectAll() {
	for _, g := range d.guards {
		for b := range g.limbo {
			for _, n := range g.limbo[b] {
				d.cfg.Pool.Reclaim(n.ref)
				d.cnt.freed++
			}
			g.limbo[b] = g.limbo[b][:0]
		}
	}
}

// GlobalEpoch exposes the global epoch for tests (drained value).
func (d *QSBR) GlobalEpoch() uint64 { return d.cfg.Machine.Peek(d.epoch) }

// Begin declares a quiescent state every Q-th call.
func (g *qsbrGuard) Begin() {
	g.calls++
	if g.calls%g.d.cfg.Q != 0 {
		return
	}
	g.quiescent()
}

func (g *qsbrGuard) quiescent() {
	g.d.cnt.quiesces++
	global := g.p.Load(g.d.epoch)
	local := g.p.Load(g.d.locals + sim.Addr(g.w)) // own word: forwarded
	if local != global {
		g.p.AtomicStore(g.d.locals+sim.Addr(g.w), global)
		g.freeBucket(int(global % 3))
		return
	}
	// Already current: try to advance the global epoch.
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

func (g *qsbrGuard) freeBucket(b int) {
	for _, n := range g.limbo[b] {
		g.d.cfg.Pool.Free(g.p, n.ref)
		g.d.cnt.freed++
	}
	g.limbo[b] = g.limbo[b][:0]
}

// Protect is a no-op: QSBR readers are protected by not being quiescent.
func (g *qsbrGuard) Protect(i int, r mem.Ref) {}

// ClearHPs is a no-op for QSBR.
func (g *qsbrGuard) ClearHPs() {}

func (g *qsbrGuard) Retire(r mem.Ref) {
	if r.IsNil() {
		panic("simsmr: retire of nil Ref")
	}
	b := g.p.Load(g.d.locals+sim.Addr(g.w)) % 3 // own word: forwarded, cheap
	g.limbo[b] = append(g.limbo[b], retiredNode{ref: r.Untagged()})
	g.d.cnt.noteRetire(g.d.cfg.MemoryLimit)
}
