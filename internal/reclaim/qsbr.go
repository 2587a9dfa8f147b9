package reclaim

import "qsense/internal/mem"

// QSBR is quiescent-state-based reclamation (§3.1), the paper's fast path.
//
// Every worker cycles through three logical epochs. A node retired while its
// worker is at epoch e goes into limbo bucket e mod 3. When a worker
// declares a quiescent state (every Q-th Begin) it adopts the global epoch
// g; adoption proves a grace period for bucket (g+1) mod 3 — the nodes
// retired two epoch advances ago — which is then freed wholesale, with no
// per-node checks at all. The epoch-advance check walks only OCCUPIED slots
// (the occupancy index of occupancy.go), so its cost tracks live workers,
// not the arena's high-water size.
//
// QSBR is blocking: one worker that stops declaring quiescent states freezes
// the global epoch and no memory is ever reclaimed again (the robustness
// problem of §3.1); with MemoryLimit set, the domain then reports Failed.
type QSBR struct {
	epochDomain
	guards *arena[*qsbrGuard]
}

type qsbrGuard struct {
	epochMember
	d     *QSBR
	calls int
	_     [40]byte // keep hot fields of adjacent guards apart
}

// NewQSBR builds a QSBR domain.
func NewQSBR(cfg Config) (*QSBR, error) {
	d := &QSBR{}
	if err := d.init(nameQSBR, cfg, true); err != nil {
		return nil, err
	}
	d.peer = func(i int) *epochMember { return &d.guards.at(i).epochMember }
	d.guards = openGuards(&d.domainCore, nil, func(int) *qsbrGuard {
		g := &qsbrGuard{d: d}
		g.epochMember.init(&d.epochDomain)
		return g
	})
	return d, nil
}

// join: the fresh tenant holds no shared references, so the lease doubles
// as a quiescent state — under pure handle churn (goroutines too
// short-lived to ever reach a Q-th Begin) these lease-point quiescent
// states are what keep the global epoch advancing and limbo buckets
// draining.
func (g *qsbrGuard) join() {
	g.activate()
	g.quiescent()
}

// drain: declare a final quiescent state (the caller holds no shared
// references, per the Release contract), Leave so the slot stops blocking
// grace periods, and move the remaining limbo backlog to the orphan list in
// one batch stamped with the current global epoch — any worker's later
// quiescent state adopts and frees it once three epochs pass, so the
// vacated slot strands nothing, whether or not it is ever leased again.
func (g *qsbrGuard) drain() {
	g.quiescent()
	g.Leave()
	g.orphan(&g.d.orphans, g.d.epoch.Load(), &g.d.cnt)
}

func (g *qsbrGuard) closeFree() { g.freeBuckets() }

func (g *qsbrGuard) Begin() {
	g.calls++
	if g.calls%g.d.cfg.Q != 0 {
		return
	}
	// Fault point: stalled here, the worker owes a quiescent state it will
	// never deliver — its stale local epoch freezes the global (§3.1's
	// robustness problem, exercised by internal/fault).
	g.d.cfg.fire(FaultQuiesce, g.id)
	g.quiescent()
}

// Protect is a no-op: QSBR readers are protected by not being quiescent.
func (g *qsbrGuard) Protect(i int, r mem.Ref) {}

// ClearHPs is a no-op for QSBR.
func (g *qsbrGuard) ClearHPs() {}

func (g *qsbrGuard) Retire(r mem.Ref) {
	if r.IsNil() {
		panic("reclaim: retire of nil Ref")
	}
	g.retire(retired{ref: r.Untagged()})
}
