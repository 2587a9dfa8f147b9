package reclaim

import (
	"qsense/internal/fence"
	"qsense/internal/mem"
)

// HP is Michael's classic hazard pointer scheme (§3.2).
//
// Protect publishes straight to the globally visible slot with a
// sequentially consistent store — XCHG on amd64, which IS the per-node full
// barrier the paper charges the scheme — and pays nothing else: hp costs
// what the hardware charges, the same instruction Cadence's publication
// issues (what Cadence removes in Go is the wait for visibility, not an
// instruction). The paper's 2016 Opterons charged "hundreds of processor
// cycles" per fence; Config.FenceCost > 0 puts that stall back as a
// modelled busy-spin (internal/fence) for the harness's figure
// reproductions, which name it in every curve they emit (hp@model50ns). No
// default path sets it.
//
// Every R retires the guard scans: it snapshots the shared hazard pointers
// of every OCCUPIED slot (the occupancy index of occupancy.go, so scan cost
// tracks live workers, not the arena's high-water size) and frees the
// retired nodes not found in the snapshot. R itself re-tunes with live
// occupancy on capacity transitions (tune.go). HP is wait-free and robust:
// no worker can block another's reclamation beyond the K nodes it actually
// protects.
type HP struct{ hazardDomain }

// hazardDomain is the domain of the two stand-alone hazard pointer schemes:
// the kernel plus the record arena their scans snapshot.
type hazardDomain struct {
	domainCore
	recs *arena[*hprec]
}

// hazardGuard is the retire side hp and cadence share: the retire list, the
// scan over it and the lease hooks. What differs between the two here is
// the domain's rooster (d.mgr) — nil for hp, whose scan then judges a node
// by the snapshot alone, which oldAndFree already encodes. Protect,
// ClearHPs and Retire's stamp stay on each scheme's own guard, so the
// per-access path never asks which scheme it serves.
type hazardGuard struct {
	guardCore
	d         *hazardDomain
	rec       *hprec
	rl        []retired
	sinceScan int
	scanBuf   []uint64
}

type hpGuard struct {
	hazardGuard
	// fence is nil unless Config.FenceCost > 0; per guard, because a fence
	// stalls only its own core.
	fence *fence.Model
}

// NewHP builds a hazard pointer domain.
func NewHP(cfg Config) (*HP, error) {
	d := &HP{}
	if err := d.init(nameHP, cfg, true); err != nil {
		return nil, err
	}
	d.tune = newTuner(d.cfg, &d.cnt)
	d.recs, _ = openHazardGuards(&d.domainCore, func(rec *hprec) *hpGuard {
		g := &hpGuard{hazardGuard: hazardGuard{d: &d.hazardDomain, rec: rec}}
		if d.cfg.FenceCost > 0 {
			g.fence = fence.NewModel(d.cfg.FenceCost)
		}
		return g
	})
	return d, nil
}

// join: neither scheme needs a join protocol — a guard protects only what
// it publishes — so a fresh tenant starts from an empty record, which also
// drains anything a racing rooster flush re-published after the previous
// release.
func (g *hazardGuard) join() {
	g.rec.reset()
	g.tc.refresh(g.d.tune)
}

// drain: clear the guard's hazard pointers, scan once so that everything
// provably safe frees immediately, and move the remainder (protected by
// other workers or, under Cadence, not yet old enough) to the orphan list —
// any worker's next scan, or a rooster pass, adopts what its snapshot no
// longer protects.
func (g *hazardGuard) drain() {
	g.rec.reset()
	if len(g.rl) > 0 {
		g.scan()
	}
	if len(g.rl) > 0 {
		g.d.orphans.add(g.rl, 0, &g.d.cnt)
		g.rl = nil
	}
}

func (g *hazardGuard) closeFree() {
	g.d.cnt.tallyFree(&g.tally, freeAll(g.d.cfg.Free, g.rl))
	g.rl = g.rl[:0]
}

func (g *hazardGuard) Begin() {}

// Protect publishes with the store that is the fence (Algorithm 1, lines
// 2–3); the modelled stall follows only where a harness asked for it.
func (g *hpGuard) Protect(i int, r mem.Ref) {
	g.rec.publishShared(i, r)
	if g.fence != nil {
		g.fence.Full()
	}
	// Fault point: stalled after the fenced publication, the reader pins
	// exactly the K nodes its hazard slots name — HP's robustness bound.
	g.d.cfg.fire(FaultProtect, g.id)
}

func (g *hpGuard) ClearHPs() { g.rec.deactivate(&g.rec.sharedActive) }

func (g *hpGuard) Retire(r mem.Ref) { g.retire(r, 0) }

// retire schedules r, stamped by the scheme (Cadence: the rooster tick),
// and scans once per R retires.
func (g *hazardGuard) retire(r mem.Ref, stamp uint64) {
	if r.IsNil() {
		panic("reclaim: retire of nil Ref")
	}
	g.rl = append(g.rl, retired{ref: r.Untagged(), stamp: stamp})
	g.d.cnt.tallyRetire(&g.tally, g.d.cfg.MemoryLimit)
	g.sinceScan++
	if g.sinceScan >= g.tc.r {
		g.sinceScan = 0
		g.scan()
	}
}

// scan is Michael's scan, deferred under a rooster: snapshot the shared
// HPs and free the retirees the snapshot does not protect and that — for
// Cadence — are old enough. The same snapshot then adopts any orphaned
// backlog released slots left behind, so a vacated slot's remainder frees
// as soon as its protectors move on. Order matters: the tick is captured
// and the orphan chain detached BEFORE the snapshot. Michael's
// argument needs every scanned node retired pre-snapshot (a validated
// protection is then published before the unlink and so before the
// snapshot) — a batch pushed after the snapshot could hold a node whose
// protector the stale snapshot missed; rooster.OldEnoughAt and oldAndFree
// carry the tick's half of the argument.
func (g *hazardGuard) scan() {
	d := g.d
	d.cnt.scans.Add(1)
	tick := d.scanTick()
	orphans := d.orphans.detach()
	snap, visited := snapshotShared(d.slots, d.recs, g.scanBuf)
	d.cnt.tallyScanned(&g.tally, visited)
	g.scanBuf = snap.vals // reuse the buffer next scan
	canFree := func(n retired) bool { return oldAndFree(tick, &snap, n) }
	var freed int
	g.rl, freed = sweep(d.cfg.Free, g.rl, canFree)
	d.cnt.tallyFree(&g.tally, freed)
	d.orphans.adopt(orphans, d.cfg.Free, &d.cnt, func(_ uint64, n retired) bool { return canFree(n) })
	d.cnt.flushTally(&g.tally, d.cfg.MemoryLimit)
	g.tc.refresh(d.tune)
}
