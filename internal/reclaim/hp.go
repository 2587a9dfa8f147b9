package reclaim

import (
	"qsense/internal/fence"
	"qsense/internal/mem"
)

// HP is Michael's classic hazard pointer scheme (§3.2).
//
// Protect publishes straight to the globally visible slot and then performs
// a full memory barrier — the per-node fence whose cost is the scheme's
// notorious overhead and the paper's motivation for Cadence (internal/fence
// models its latency: Go's atomic store already orders, but costs no more
// than Cadence's, so the gap the paper measures has to be put back). Every R retires the guard scans: it
// snapshots the shared hazard pointers of every OCCUPIED slot (the
// occupancy index of occupancy.go, so scan cost tracks live workers, not
// the arena's high-water size) and frees the retired nodes not found in the
// snapshot. R itself re-tunes with live occupancy on capacity transitions
// (tune.go). HP is wait-free and robust: no worker can block another's
// reclamation beyond the K nodes it actually protects.
type HP struct {
	domainCore
	recs   *shardedArena[*hprec]
	guards *shardedArena[*hpGuard]
}

type hpGuard struct {
	guardCore
	d         *HP
	rec       *hprec
	fence     *fence.Model // per guard: a fence stalls only its own core
	rl        []retired
	sinceScan int
	scanBuf   []uint64
}

// NewHP builds a hazard pointer domain.
func NewHP(cfg Config) (*HP, error) {
	d := &HP{}
	if err := d.init(nameHP, cfg, true); err != nil {
		return nil, err
	}
	cost := d.cfg.FenceCost
	if cost == 0 {
		cost = fence.DefaultCost
	}
	d.tune = newTuner(d.cfg, &d.cnt)
	d.recs, d.guards = openHazardGuards(&d.domainCore, func(rec *hprec) *hpGuard {
		return &hpGuard{d: d, rec: rec, fence: fence.NewModel(cost)}
	})
	return d, nil
}

// join: HP needs no join protocol — a guard protects only what it
// publishes — so a fresh tenant just starts from an empty record.
func (g *hpGuard) join() {
	g.rec.reset()
	g.tc.refresh(g.d.tune)
}

// drain: clear the guard's hazard pointers, scan once to drain the retire
// list (everything not protected by other workers frees immediately) and
// move the protected remainder to the orphan list — any worker's next scan
// adopts whatever its snapshot no longer protects.
func (g *hpGuard) drain() {
	g.rec.reset()
	if len(g.rl) > 0 {
		g.scan()
	}
	if len(g.rl) > 0 {
		g.d.orphans.at(g.id).add(nil, g.rl, 0, &g.d.cnt)
		g.rl = nil
	}
}

func (g *hpGuard) closeFree() {
	for _, r := range g.rl {
		g.d.cfg.Free(r.ref)
	}
	g.d.cnt.tallyFree(&g.tally, len(g.rl))
	g.rl = g.rl[:0]
}

func (g *hpGuard) Begin() {}

// Protect publishes and fences (Algorithm 1, lines 2–3).
func (g *hpGuard) Protect(i int, r mem.Ref) {
	g.rec.publishShared(i, r)
	g.fence.Full()
	// Fault point: stalled after the fenced publication, the reader pins
	// exactly the K nodes its hazard slots name — HP's robustness bound.
	g.d.cfg.fire(FaultProtect, g.id)
}

func (g *hpGuard) ClearHPs() { g.rec.deactivate(&g.rec.sharedActive) }

func (g *hpGuard) Retire(r mem.Ref) {
	if r.IsNil() {
		panic("reclaim: retire of nil Ref")
	}
	g.rl = append(g.rl, retired{ref: r.Untagged()})
	g.d.cnt.tallyRetire(&g.tally, g.d.cfg.MemoryLimit)
	g.sinceScan++
	if g.sinceScan >= g.tc.r {
		g.sinceScan = 0
		g.scan()
	}
}

// scan is Michael's scan: snapshot shared HPs, free unprotected retirees.
// The same snapshot then adopts any orphaned backlog released slots left
// behind, so a vacated slot's protected remainder frees as soon as its
// protectors move on. Every shard's orphan chain is detached BEFORE the
// one snapshot: Michael's argument needs every scanned node retired
// pre-snapshot (a validated protection is then published, fenced, before
// the unlink and so before the snapshot) — a batch pushed after the
// snapshot could hold a node whose protector the stale snapshot missed.
func (g *hpGuard) scan() {
	g.d.cnt.scans.Add(1)
	batches := g.d.orphans.detachAll()
	snap, visited := snapshotShared(g.d.slots, g.d.recs, g.scanBuf)
	g.d.cnt.tallyScanned(&g.tally, visited)
	g.scanBuf = snap.vals // reuse the buffer next scan
	var freed int
	g.rl, freed = filterDeferred(g.d.cfg, nil, 0, snap, g.rl)
	g.d.cnt.tallyFree(&g.tally, freed)
	g.d.orphans.adoptDetachedAll(batches, snap, nil, 0, g.d.cfg, &g.d.cnt)
	g.d.cnt.flushTally(&g.tally, g.d.cfg.MemoryLimit)
	g.tc.refresh(g.d.tune)
}
