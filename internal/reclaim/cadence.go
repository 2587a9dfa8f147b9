package reclaim

import (
	"math"

	"qsense/internal/mem"
	"qsense/internal/rooster"
)

// Cadence is the paper's novel fallback scheme (§5.1): hazard pointers
// without per-node memory fences. It can also be used stand-alone, as here.
//
// Two mechanisms replace the fence:
//
//  1. Rooster passes. Protect publishes into the guard's pending slots with
//     a bare store; the rooster manager copies pending into the shared slots
//     every interval T. A hazard pointer therefore becomes visible to scans
//     at most one full pass after it is stored — the analog of the paper's
//     context-switch-drains-store-buffer argument. The domain registers one
//     flush target (recFlusher) that walks the occupancy index, so a pass
//     flushes only live records however large the arena once grew.
//  2. Deferred reclamation. Retire stamps the node with the current rooster
//     tick; scan only frees nodes whose stamp is at least two completed
//     passes old (rooster.OldEnough — Figure 4's T+ε condition in tick
//     form). By then, any hazard pointer stored before the node was removed
//     has been flushed, so the shared-slot snapshot is conclusive.
//
// Dropping either mechanism is unsafe. Without deferral (the committed
// mutant testdata/mutants/no-deferral.patch, which has scanTick return the
// largest tick) a pending hazard pointer loses its node: the cadence and
// qsense deferral tests fail on it with a use-after-free, as the §4.1 model
// in internal/tso predicts.
type Cadence struct{ hazardDomain }

// cadenceGuard is hazardGuard (hp.go) under a rooster: what the scheme adds
// is the fence-free publication and the retire stamp below.
type cadenceGuard struct{ hazardGuard }

// NewCadence builds a stand-alone Cadence domain and starts its rooster
// manager (unless Config.ManualRooster).
func NewCadence(cfg Config) (*Cadence, error) {
	d := &Cadence{}
	if err := d.init(nameCadence, cfg, true); err != nil {
		return nil, err
	}
	d.tune = newTuner(d.cfg, &d.cnt)
	d.mgr = rooster.NewManager(d.cfg.Rooster)
	d.recs, _ = openHazardGuards(&d.domainCore, func(rec *hprec) *cadenceGuard {
		return &cadenceGuard{hazardGuard{d: &d.hazardDomain, rec: rec}}
	})
	d.startRooster()
	return d, nil
}

// Rooster exposes the manager so tests can drive passes deterministically.
func (d *Cadence) Rooster() *rooster.Manager { return d.mgr }

// Protect publishes without a fence (Algorithm 3, assign_HP: "No need for a
// memory barrier here").
func (g *cadenceGuard) Protect(i int, r mem.Ref) {
	g.rec.publishPending(i, r)
	// Fault point: stalled after the bare-store publication, the reader
	// pins only what its pending slots name once the rooster flushes them.
	g.d.cfg.fire(FaultProtect, g.id)
}

func (g *cadenceGuard) ClearHPs() { g.rec.deactivate(&g.rec.pendingActive) }

// Retire timestamps the node and schedules it (Algorithm 5, free_node_later
// in stand-alone form).
func (g *cadenceGuard) Retire(r mem.Ref) {
	g.d.mgr.Poll() // cooperative rooster: run an overdue pass inline
	g.retire(r, g.d.mgr.Tick())
}

// scanTick is the tick a deferred scan judges oldness against, captured
// before its snapshot (rooster.OldEnoughAt). Without a rooster (hp) it is
// the largest tick, at which every node is old enough.
func (d *domainCore) scanTick() uint64 {
	if d.mgr == nil {
		return math.MaxUint64
	}
	return d.mgr.Tick()
}

// oldAndFree is Cadence's free rule (Algorithm 3, lines 14–33): n is old
// enough at tick, from scanTick, and unprotected in snap. The hazard scans,
// QSense's fallback scan and the rooster's adoption hook all sweep with it.
// It inlines into each sweep, so the age check, which most nodes of a
// deferred scan fail, costs no call.
func oldAndFree(tick uint64, snap *hpSnapshot, n retired) bool {
	return rooster.OldEnoughAt(n.stamp, tick) && !snap.contains(n.ref)
}
