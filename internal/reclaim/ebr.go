package reclaim

import (
	"sync/atomic"

	"qsense/internal/mem"
)

// EBR is epoch-based reclamation in the Fraser style (paper references
// [11], [13], §8 "Epoch-based techniques") — the second classic baseline
// next to QSBR, implemented for the related-work comparison and the
// ablation benchmarks.
//
// Where QSBR asks the application to declare quiescent states and pays
// almost nothing per operation, EBR brackets every operation as a critical
// section: Begin announces (epoch, active) with a sequentially consistent
// store — the announcement must be visible before the traversal's loads, so
// on x86 this costs an XCHG per operation, which is exactly why Hart et
// al. [14] measure EBR behind QSBR. ClearHPs (called by the structures at
// the end of every operation) marks the worker inactive.
//
// The robustness trade sits between QSBR and the pointer schemes: a worker
// delayed BETWEEN operations is inactive and never blocks a grace period
// (QSBR's quiescence requires positive action, so an idle QSBR worker
// blocks); a worker delayed INSIDE an operation pins its announced epoch
// and blocks reclamation after at most two further advances, exactly like
// QSBR. The tests demonstrate both halves.
//
// Epoch arithmetic: retires go into bucket (announced epoch mod 3); the
// global epoch may only advance from e to e+1 when every active worker has
// announced e — a check that walks only OCCUPIED slots (occupancy.go), so
// its cost tracks live workers, not the arena's high-water size; a worker
// freshly announcing epoch g frees its bucket (g mod 3), whose contents
// were retired at announced epoch g-3. By then advances to g-1 and g have
// both happened, so no critical section that could have obtained a
// reference (one announced at g-2 or earlier) survives.
type EBR struct {
	domainCore
	epoch  atomic.Uint64
	guards *arena[*ebrGuard]
}

type ebrGuard struct {
	guardCore
	d *EBR
	// word packs (announced epoch << 1) | active. Peers read it in
	// tryAdvance; the owner writes it in Begin/ClearHPs.
	word      atomic.Uint64
	lastSeen  uint64 // last epoch whose bucket this guard freed
	adoptSeen uint64 // last epoch at which this guard tried orphan adoption
	limbo
	sinceAdvance int
	_            [40]byte // keep adjacent guards' hot words apart
}

// NewEBR builds an epoch-based reclamation domain. Guards are born inactive
// (outside any critical section), so pinning needs no membership work: an
// idle guard never blocks grace periods.
func NewEBR(cfg Config) (*EBR, error) {
	d := &EBR{}
	if err := d.init(nameEBR, cfg, true); err != nil {
		return nil, err
	}
	d.tune = newTuner(d.cfg, &d.cnt)
	d.guards = openGuards(&d.domainCore, nil, func(int) *ebrGuard {
		return &ebrGuard{d: d}
	})
	return d, nil
}

// join catches a leased slot up: free the limbo bucket the current epoch
// proves aged (what Begin would do on its next announcement) and nudge the
// global epoch, which under pure handle churn is the main advance driver.
func (g *ebrGuard) join() {
	d := g.d
	if e := d.epoch.Load(); e != g.lastSeen {
		g.lastSeen = e
		g.freeBucket(int(e % 3))
	}
	g.tryAdvance()
	// Orphan adoption, at most once per epoch advance (adoptOrphans): a
	// lease-churn workload must not detach-and-repush immature batches on
	// every Acquire.
	if !d.orphans.empty() {
		g.adoptOrphans()
	}
	d.cnt.flushTally(&g.tally, d.cfg.MemoryLimit)
	g.tc.refresh(d.tune)
}

// drain: exit the critical section (the guard goes inactive, so it cannot
// block grace periods while the slot sits vacant), help the epoch along and
// move the remaining limbo to the orphan list in one batch stamped with the
// current global epoch, so any worker's Begin adopts it three advances
// later.
func (g *ebrGuard) drain() {
	g.ClearHPs()
	g.tryAdvance()
	g.orphan(&g.d.orphans, g.d.epoch.Load(), &g.d.cnt)
}

func (g *ebrGuard) closeFree() {
	for b := range g.buckets {
		g.freeBucket(b)
	}
}

// GlobalEpoch exposes the global epoch for tests.
func (d *EBR) GlobalEpoch() uint64 { return d.epoch.Load() }

// Begin enters a critical section: announce the current global epoch and
// become active. The announcement uses a sequentially consistent store so
// it is visible to reclaimers before any of the section's loads (the
// per-operation cost EBR pays that QSBR does not). Entering epoch g for
// the first time frees bucket g mod 3 (retired at g-3; see type comment).
func (g *ebrGuard) Begin() {
	e := g.d.epoch.Load()
	g.word.Store(e<<1 | 1)
	// Fault point: stalled here, the worker is active at epoch e forever —
	// after at most two more advances the global epoch freezes on it.
	g.d.cfg.fire(FaultQuiesce, g.id)
	if e != g.lastSeen {
		g.lastSeen = e
		g.freeBucket(int(e % 3))
		g.d.cnt.flushTally(&g.tally, g.d.cfg.MemoryLimit)
	}
	// Orphan adoption: when a released slot left a backlog behind, pure
	// Begin activity must make progress on it — EBR's epoch otherwise only
	// advances from Retire/Acquire/Release. The empty check keeps the
	// common case to one pointer load.
	if !g.d.orphans.empty() {
		g.tryAdvance()
		g.adoptOrphans()
	}
}

// adoptOrphans frees the orphan batches whose epoch evidence has matured
// (the global epoch is three past the batch's stamp: every bucket the
// batch came from has had a full grace period), at most once per epoch
// advance, since maturity only changes when the epoch does.
func (g *ebrGuard) adoptOrphans() {
	d := g.d
	e := d.epoch.Load()
	if e == g.adoptSeen {
		return
	}
	g.adoptSeen = e
	d.orphans.adopt(d.orphans.detach(), d.cfg.Free, &d.cnt, func(stamp uint64, _ retired) bool { return e >= stamp+3 })
}

// ClearHPs exits the critical section: the worker no longer pins its
// announced epoch and cannot block grace periods while idle.
func (g *ebrGuard) ClearHPs() {
	g.word.Store(g.word.Load() &^ 1)
}

// Protect is a no-op: EBR readers are protected by their active epoch.
func (g *ebrGuard) Protect(i int, r mem.Ref) {}

func (g *ebrGuard) Retire(r mem.Ref) {
	if r.IsNil() {
		panic("reclaim: retire of nil Ref")
	}
	g.put(g.word.Load()>>1, retired{ref: r.Untagged()})
	g.d.cnt.tallyRetire(&g.tally, g.d.cfg.MemoryLimit)
	g.sinceAdvance++
	if g.sinceAdvance >= g.tc.r {
		g.sinceAdvance = 0
		g.tryAdvance()
		g.tc.refresh(g.d.tune)
	}
}

// tryAdvance increments the global epoch if every active worker has
// announced it. The check walks only occupied slots — a vacant guard's
// word has the active bit clear (Release runs ClearHPs in its drain), so
// skipping it changes no outcome — and inactive workers (idle between
// operations) are skipped as before: the robustness half EBR has over
// QSBR. A tenant whose lease races the walk is born inactive and announces
// only epochs current at or after its lease, so missing it cannot fake a
// grace period (the argument of occupancy.go, previously made in arena.go
// for the published-high bound).
func (g *ebrGuard) tryAdvance() {
	e := g.d.epoch.Load()
	ok := true
	visited := g.d.slots.walkOccupied(func(i int) bool {
		w := g.d.guards.at(i).word.Load()
		if w&1 == 1 && w>>1 != e {
			ok = false
			return false
		}
		return true
	})
	g.d.cnt.tallyScanned(&g.tally, visited)
	if !ok {
		return
	}
	if g.d.epoch.CompareAndSwap(e, e+1) {
		g.d.cnt.epochs.Add(1)
	}
}

func (g *ebrGuard) freeBucket(b int) {
	g.d.cnt.tallyFree(&g.tally, g.free(b, g.d.cfg.Free))
}
