package simsmr

import (
	"qsense/internal/mem"
	"qsense/internal/sim"
)

// Cadence is the paper's fallback scheme (§5.1) on the simulator, in its
// original clock formulation: Protect is a bare store (no fence — the store
// sits in the proc's store buffer), the machine's rooster preemptions drain
// every buffer at least once per RoosterInterval T, and Retire stamps the
// node with the current virtual time. A node is old enough once
//
//	now - stamp >= T + ε    (Figure 4)
//
// where ε (Config.Epsilon) covers the preemption's worst-case lag past its
// interval boundary plus cross-proc clock skew — the paper's "oversleeping
// and clock inconsistency" tolerance, made precise by the machine model. By
// then any hazard pointer stored before the removal has been drained, so
// the shared-slot snapshot is conclusive.
//
// The DisableDeferral ablation frees nodes on the snapshot alone; on this
// machine that is demonstrably unsafe (§4.1): a protection still sitting in
// a store buffer is invisible and the node is freed under the reader.
type Cadence struct {
	cfg    Config
	cnt    counters
	hps    hpArray
	procs  int
	t      uint64 // rooster interval
	guards []*cadenceGuard
}

type cadenceGuard struct {
	d       *Cadence
	p       *sim.Proc
	w       int
	rl      []retiredNode
	retires int
	snap    map[uint64]struct{}
}

// NewCadence builds a simulated Cadence domain. The machine must have
// roosters enabled (RoosterInterval > 0): without them there is no bound on
// store visibility and the scheme is unsound by construction.
func NewCadence(cfg Config) (*Cadence, error) {
	if err := cfg.validate(true); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	n := cfg.Machine.Config().Procs
	d := &Cadence{
		cfg:   cfg,
		procs: n,
		t:     cfg.Machine.Config().RoosterInterval,
		hps:   newHPArray(cfg.Machine, n, cfg.HPs),
	}
	for i := 0; i < n; i++ {
		d.guards = append(d.guards, &cadenceGuard{d: d, p: cfg.Machine.Proc(i), w: i})
	}
	return d, nil
}

// Guard implements Domain.
func (d *Cadence) Guard(i int) Guard { return d.guards[i] }

// Name implements Domain.
func (d *Cadence) Name() string { return "cadence" }

// Pending implements Domain.
func (d *Cadence) Pending() int { return d.cnt.pending() }

// Failed implements Domain.
func (d *Cadence) Failed() bool { return d.cnt.failed }

// Stats implements Domain.
func (d *Cadence) Stats() Stats {
	s := Stats{Scheme: "cadence"}
	d.cnt.fill(&s)
	return s
}

// CollectAll implements Domain.
func (d *Cadence) CollectAll() {
	for _, g := range d.guards {
		for _, n := range g.rl {
			d.cfg.Pool.Reclaim(n.ref)
			d.cnt.freed++
		}
		g.rl = g.rl[:0]
	}
}

func (g *cadenceGuard) Begin() {}

// Protect publishes without a fence (Algorithm 3: "No need for a memory
// barrier here"). The store drains at the proc's next rooster preemption.
func (g *cadenceGuard) Protect(i int, r mem.Ref) {
	g.p.Store(g.d.hps.slot(g.w, i), uint64(r.Untagged()))
}

// ClearHPs zeroes this guard's slots with bare stores.
func (g *cadenceGuard) ClearHPs() {
	for i := 0; i < g.d.cfg.HPs; i++ {
		g.p.Store(g.d.hps.slot(g.w, i), 0)
	}
}

// Retire timestamps the node (Algorithm 3's timestamped_node) and scans
// every R retires.
func (g *cadenceGuard) Retire(r mem.Ref) {
	if r.IsNil() {
		panic("simsmr: retire of nil Ref")
	}
	g.rl = append(g.rl, retiredNode{ref: r.Untagged(), stamp: g.p.Now()})
	g.d.cnt.noteRetire(g.d.cfg.MemoryLimit)
	g.retires++
	if g.retires%g.d.cfg.R == 0 {
		g.rl = scanDeferred(&g.d.cnt, g.d.cfg, g.d.hps, g.d.procs, g.d.t, g.p, g.rl, &g.snap)
	}
}

// scanDeferred is Algorithm 3's scan: free nodes that are old enough and
// unprotected; keep the rest. Shared with QSense's fallback path.
func scanDeferred(cnt *counters, cfg Config, hps hpArray, procs int, t uint64, p *sim.Proc, rl []retiredNode, snap *map[uint64]struct{}) []retiredNode {
	cnt.scans++
	*snap = hps.snapshot(p, procs, *snap)
	now := p.Now()
	kept := rl[:0]
	for _, n := range rl {
		oldEnough := now-n.stamp >= t+cfg.Epsilon
		_, prot := (*snap)[uint64(n.ref)]
		if (!cfg.DisableDeferral && !oldEnough) || prot {
			kept = append(kept, n)
		} else {
			cfg.Pool.Free(p, n.ref)
			cnt.freed++
		}
	}
	return kept
}
