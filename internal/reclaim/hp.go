package reclaim

import (
	"context"

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
	cfg     Config
	cnt     counters
	tune    *tuner
	slots   *shardedPool
	orphans shardedOrphans
	recs    *shardedArena[*hprec]
	guards  *shardedArena[*hpGuard]
}

type hpGuard struct {
	d         *HP
	id        int
	rec       *hprec
	fence     *fence.Model // per guard: a fence stalls only its own core
	rl        []retired
	sinceScan int
	tally     tally
	tc        tunerCache
	scanBuf   []uint64
}

// NewHP builds a hazard pointer domain.
func NewHP(cfg Config) (*HP, error) {
	if err := cfg.Validate(true); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	cost := cfg.FenceCost
	if cost == 0 {
		cost = fence.DefaultCost
	}
	d := &HP{cfg: cfg}
	d.tune = newTuner(cfg, &d.cnt)
	d.orphans.init(cfg.Shards)
	d.recs = newShardedArena(cfg.Shards, cfg.Workers, cfg.HardMaxWorkers, func(i int) *hprec {
		return newHPRec(cfg.HPs)
	})
	d.guards = newShardedArena(cfg.Shards, cfg.Workers, cfg.HardMaxWorkers, func(i int) *hpGuard {
		return &hpGuard{d: d, id: i, rec: d.recs.at(i), fence: fence.NewModel(cost),
			tc: tunerCache{r: cfg.R, c: cfg.C}}
	})
	d.slots = newShardedPool(cfg.Shards, cfg.Workers, cfg.HardMaxWorkers, d.tune, func(s, hi int) {
		d.recs.growShard(s, hi) // records first: guards (and scans) index into them
		d.guards.growShard(s, hi)
	})
	return d, nil
}

// Guard implements Domain (deprecated positional access): pins slot w. Its
// hazard record joins scans with its first Protect.
func (d *HP) Guard(w int) Guard {
	d.slots.pin(w)
	return d.guards.at(w)
}

// Acquire implements Domain. HP needs no join protocol — a guard protects
// only what it publishes — so leasing is just slot bookkeeping plus a
// record that starts empty.
func (d *HP) Acquire() (Guard, error) {
	w, err := d.slots.lease()
	if err != nil {
		return nil, err
	}
	return d.join(w), nil
}

// AcquireWait implements Domain: Acquire that parks until a slot frees or
// ctx is done.
func (d *HP) AcquireWait(ctx context.Context) (Guard, error) {
	w, err := d.slots.leaseWait(ctx)
	if err != nil {
		return nil, err
	}
	return d.join(w), nil
}

func (d *HP) join(w int) Guard {
	g := d.guards.at(w)
	g.rec.reset()
	g.tc.refresh(d.tune)
	return g
}

// Release implements Domain: clear the guard's hazard pointers, scan once to
// drain the retire list (everything not protected by other workers frees
// immediately), move the protected remainder to the orphan list — any
// worker's next scan adopts whatever its snapshot no longer protects — and
// recycle the slot.
func (d *HP) Release(gd Guard) {
	g, ok := gd.(*hpGuard)
	if !ok || g.d != d {
		panic(errForeignGuard)
	}
	d.slots.unlease(g.id, func() {
		g.rec.reset()
		if len(g.rl) > 0 {
			g.scan()
		}
		if len(g.rl) > 0 {
			d.orphans.at(g.id).add(nil, g.rl, 0, &d.cnt)
			g.rl = nil
		}
		d.cnt.releaseTally(&g.tally, d.cfg.MemoryLimit)
	})
}

// Name implements Domain.
func (d *HP) Name() string { return "hp" }

// Failed implements Domain.
func (d *HP) Failed() bool { return d.cnt.failed.Load() }

// Stats implements Domain.
func (d *HP) Stats() Stats {
	s := Stats{Scheme: "hp"}
	d.cnt.fill(&s, d.slots, func(i int) *tally { return &d.guards.at(i).tally })
	d.slots.fillArena(&s)
	return s
}

// Close implements Domain: frees every node still in a retire list and
// drains the orphan list. Only call after all workers have stopped.
func (d *HP) Close() {
	d.guards.forEach(func(g *hpGuard) {
		for _, r := range g.rl {
			d.cfg.Free(r.ref)
		}
		d.cnt.tallyFree(&g.tally, len(g.rl))
		g.rl = g.rl[:0]
		d.cnt.drainTally(&g.tally)
	})
	d.orphans.drain(d.cfg.Free, &d.cnt)
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

func (g *hpGuard) slotID() int { return g.id }

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
	kept := g.rl[:0]
	freed := 0
	for _, n := range g.rl {
		if snap.contains(n.ref) {
			kept = append(kept, n)
		} else {
			g.d.cfg.Free(n.ref)
			freed++
		}
	}
	g.rl = kept
	g.d.cnt.tallyFree(&g.tally, freed)
	g.d.orphans.adoptDetachedAll(batches, snap, nil, 0, g.d.cfg, &g.d.cnt)
	g.d.cnt.flushTally(&g.tally, g.d.cfg.MemoryLimit)
	g.tc.refresh(g.d.tune)
}
