package simsmr

import (
	"qsense/internal/mem"
	"qsense/internal/sim"
)

// HP is Michael's classic hazard pointer scheme (§3.2) on the simulator.
// Protect stores to the shared slot and then executes a real simulated
// fence, draining the proc's store buffer — Algorithm 1, lines 2-3. The
// fence is the dominant per-node cost, which is the paper's entire
// motivation; the NoFence ablation removes it and is demonstrably unsafe
// on this machine (TestAlgorithm2NoFenceUnsafe).
type HP struct {
	cfg    Config
	cnt    counters
	hps    hpArray
	procs  int
	guards []*hpGuard
}

type hpGuard struct {
	d       *HP
	p       *sim.Proc
	w       int
	rl      []retiredNode
	retires int
	snap    map[uint64]struct{}
}

// NewHP builds a simulated hazard pointer domain.
func NewHP(cfg Config) (*HP, error) {
	if err := cfg.validate(false); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	n := cfg.Machine.Config().Procs
	d := &HP{cfg: cfg, procs: n, hps: newHPArray(cfg.Machine, n, cfg.HPs)}
	for i := 0; i < n; i++ {
		d.guards = append(d.guards, &hpGuard{d: d, p: cfg.Machine.Proc(i), w: i})
	}
	return d, nil
}

// Guard implements Domain.
func (d *HP) Guard(i int) Guard { return d.guards[i] }

// Name implements Domain.
func (d *HP) Name() string { return "hp" }

// Pending implements Domain.
func (d *HP) Pending() int { return d.cnt.pending() }

// Failed implements Domain.
func (d *HP) Failed() bool { return d.cnt.failed }

// Stats implements Domain.
func (d *HP) Stats() Stats {
	s := Stats{Scheme: "hp"}
	d.cnt.fill(&s)
	return s
}

// CollectAll implements Domain.
func (d *HP) CollectAll() {
	for _, g := range d.guards {
		for _, n := range g.rl {
			d.cfg.Pool.Reclaim(n.ref)
			d.cnt.freed++
		}
		g.rl = g.rl[:0]
	}
}

func (g *hpGuard) Begin() {}

// Protect publishes slot i and fences (unless the unsafe ablation).
func (g *hpGuard) Protect(i int, r mem.Ref) {
	g.p.Store(g.d.hps.slot(g.w, i), uint64(r.Untagged()))
	if !g.d.cfg.NoFence {
		g.p.Fence()
	}
}

// ClearHPs zeroes this guard's slots (no fence needed: a late-draining
// clear only delays reclamation).
func (g *hpGuard) ClearHPs() {
	for i := 0; i < g.d.cfg.HPs; i++ {
		g.p.Store(g.d.hps.slot(g.w, i), 0)
	}
}

func (g *hpGuard) Retire(r mem.Ref) {
	if r.IsNil() {
		panic("simsmr: retire of nil Ref")
	}
	g.rl = append(g.rl, retiredNode{ref: r.Untagged()})
	g.d.cnt.noteRetire(g.d.cfg.MemoryLimit)
	g.retires++
	if g.retires%g.d.cfg.R == 0 {
		g.scan()
	}
}

// scan is Michael's scan: snapshot all N*K slots (paying the loads), free
// the retirees not in the snapshot.
func (g *hpGuard) scan() {
	g.d.cnt.scans++
	g.snap = g.d.hps.snapshot(g.p, g.d.procs, g.snap)
	kept := g.rl[:0]
	for _, n := range g.rl {
		if _, prot := g.snap[uint64(n.ref)]; prot {
			kept = append(kept, n)
		} else {
			g.d.cfg.Pool.Free(g.p, n.ref)
			g.d.cnt.freed++
		}
	}
	g.rl = kept
}
