package reclaim

import (
	"sync/atomic"

	"qsense/internal/mem"
)

// Hyaline is snapshot-free reclamation in the style of Nikolaev & Ravindran
// (arXiv:1905.07903, PAPERS.md): the second post-paper scheme family, next
// to IBR. No scheme-side scans, no epochs, no per-pointer publications —
// retired nodes travel as reference-counted batches handed directly to the
// slots that might still hold references.
//
// Every guard owns a lock-free *inbox* (a Treiber stack of batch entries).
// A slot is ACTIVE while it is inside an operation — Begin activates the
// inbox, ClearHPs deactivates it — and a retiring guard, once its local
// batch reaches Q nodes, pushes one entry per active inbox and seeds the
// batch's reference counter with the number of successful pushes. Each
// recipient acknowledges its inbox at its next quiescent boundary (the
// following Begin, or ClearHPs at operation end) by decrementing every
// delivered batch's counter; whoever moves a counter to zero frees the
// whole batch. The counter is seeded at zero and raised by the publisher
// AFTER the push sweep, so early acknowledgers drive it negative and the
// publisher's own add detects the all-acked case — the zero crossing
// happens exactly once no matter how the adds interleave.
//
// The safety argument is the epoch argument restated per batch: a batch's
// nodes were unlinked before it was published, so an operation that begins
// after the publisher read its slot (inactive-skip or post-push activation)
// can never reach them from the root; an operation that was active at
// publish time received a delivery and the batch outlives it by refcount.
//
// Era-filtered delivery (the IBR+Hyaline combo of Nikolaev's crystalline
// line, ROADMAP PR-8 follow-up): each guard also publishes an era upper
// bound — set to the current birth-era clock at Begin, BEFORE the inbox
// activates, and widened by Protect like an IBR reservation. publish
// computes the batch's minimum birth era and skips active inboxes whose
// upper bound predates it: such a reader entered its operation before any
// of the batch's nodes were even allocated and has not widened since, so it
// cannot have traversed to them — formally, dereferencing a batch node
// requires widening upper to >= that node's birth era and then passing link
// re-validation; re-validation passing means the link load preceded the
// node's unlink, which preceded its retire, which preceded this publish, so
// the publisher's upper read would have observed the widened bound and
// delivered. The clock advances once per publish, so with Config.Era wired
// to the structure's pool a reader stalled INSIDE an operation pins only
// batches containing nodes born before its bound — bounded garbage, where
// the unfiltered scheme (Era nil: every birth reads 0, the filter never
// engages and delivery degenerates to all-active, the previous behaviour)
// sat at EBR's unbounded robustness. A reader idle BETWEEN operations has
// an inactive inbox and pins nothing either way — Stats reports the live
// pin mass as HyalineBatchRefs.
//
// Release reuses the orphan-list machinery as its handoff ramp: the
// leftover local batch moves to the list in one CAS (counted
// OrphanedNodes), and the next guard to pass a quiescent boundary adopts it
// by REPUBLISHING it through the inboxes as an orphan-flagged refcounted
// batch — its zero-crossing free counts AdoptedNodes, and when no inbox is
// active the republisher frees it on the spot. A vacated slot never strands
// retired nodes.
type Hyaline struct {
	domainCore
	era     EraSource    // birth-era clock for delivery filtering (localEra fallback)
	outRefs atomic.Int64 // sum of unacknowledged deliveries (Stats)
	guards  *arena[*hguard]
}

// hbatch is one published retire batch. refs is the outstanding delivery
// count: seeded 0, raised by the publisher after its push sweep, lowered by
// every acknowledgment; the add that lands on exactly 0 frees.
type hbatch struct {
	refs   atomic.Int64
	nodes  []retired
	orphan bool // Release handoff: free via noteAdopted, not the tally
}

// hentry is one inbox delivery: a cons cell pointing at the shared batch.
// Each (batch, slot) pair gets its own entry, so inbox chains stay
// single-owner after detach.
type hentry struct {
	next  *hentry
	batch *hbatch
}

// hInactive is the inbox sentinel marking a slot outside any operation.
// Publishers skip sentinel inboxes; only the owner installs or removes it.
// The zero inbox value (nil) means ACTIVE-empty, so guards must be born
// with the sentinel installed — the arena constructor does it, before the
// slot is visible to any walk.
var hInactive = &hentry{}

type hguard struct {
	guardCore
	d     *Hyaline
	inbox atomic.Pointer[hentry]
	// upper is the guard's era reservation bound, read by publishers to
	// filter deliveries: stored (down or up — the guard holds no references
	// at Begin) before the inbox activates, widened by Protect while the
	// operation runs. Meaningless while the inbox is inactive.
	upper atomic.Uint64
	batch []retired
	_     [40]byte // keep adjacent guards' hot words apart
}

// NewHyaline builds a Hyaline domain. It has no scan or fallback
// thresholds, so like None it has no tuner (Stats.EffectiveR/C stay zero);
// Q is its one knob — the publish batch size.
func NewHyaline(cfg Config) (*Hyaline, error) {
	d := &Hyaline{}
	if err := d.init(nameHyaline, cfg, true); err != nil {
		return nil, err
	}
	if d.era = d.cfg.Era; d.era == nil {
		// All-zero births: the delivery filter never engages (every batch's
		// minimum birth is 0) and publish degenerates to deliver-to-all.
		d.era = &localEra{}
	}
	// HyalineBatchRefs can transiently read negative while an
	// acknowledgment races the publisher's post-push add; clamp — it
	// converges to the true outstanding-delivery sum at every quiescent
	// point.
	d.extraStats = func(s *Stats) { s.HyalineBatchRefs = max(0, d.outRefs.Load()) }
	d.guards = openGuards(&d.domainCore, nil, func(int) *hguard {
		g := &hguard{d: d}
		g.inbox.Store(hInactive)
		return g
	})
	return d, nil
}

// join catches a leased slot up: adopt any stranded backlog (handle churn
// must be an adoption driver, like the epoch schemes' joins). The inbox
// stays inactive until Begin — a freshly leased, not-yet-operating slot
// must not accumulate deliveries it would only acknowledge later.
func (g *hguard) join() {
	if !g.d.orphans.empty() {
		g.adoptOrphans()
	}
	g.d.cnt.flushTally(&g.tally, g.d.cfg.MemoryLimit)
}

// drain: deactivate (acknowledging any deliveries) and move the leftover
// local batch to the orphan list in one CAS, from which any worker's next
// quiescent boundary republishes it through the inboxes: the nodes count
// OrphanedNodes now and AdoptedNodes when an adopter's republication
// crosses zero.
func (g *hguard) drain() {
	g.ClearHPs()
	if len(g.batch) > 0 {
		g.d.orphans.add(g.batch, 0, &g.d.cnt)
		g.batch = nil
	}
}

// closeFree acknowledges the inbox (each batch's counter crosses zero under
// exactly one of Close's acks) and frees the unpublished local batch.
func (g *hguard) closeFree() {
	if h := g.inbox.Swap(hInactive); h != nil && h != hInactive {
		g.ack(h)
	}
	g.d.cnt.tallyFree(&g.tally, freeAll(g.d.cfg.Free, g.batch))
	g.batch = nil
}

// Begin enters an operation — Hyaline's quiescent boundary: activate the
// inbox (publishers start delivering), acknowledge any backlog from the
// previous operation, publish the local retire batch once it has reached
// Q nodes, and adopt any stranded backlog. Active-and-empty with nothing
// banked, the common case, is one load plus two length checks.
func (g *hguard) Begin() {
	// Reset the era bound BEFORE the inbox activates (SC program order), so
	// a publisher that sees this inbox active sees this bound or a wider
	// one. Resetting downward is sound exactly here: Begin's contract is a
	// reference-free state, and any later dereference re-widens first.
	g.upper.Store(g.d.era.Era())
	h := g.inbox.Load()
	if h == hInactive {
		// Owner-only transition: publishers never CAS a sentinel head.
		g.inbox.Store(nil)
	} else if h != nil {
		g.ack(g.inbox.Swap(nil))
	}
	// Fault point: stalled here the inbox is active and nothing delivered
	// from now on will ever be acknowledged — but the era filter keeps the
	// pinned mass to batches born before this guard's bound.
	g.d.cfg.fire(FaultInbox, g.id)
	if len(g.batch) >= g.d.cfg.Q {
		g.d.publish(g.batch, false, g)
		g.batch = nil
	}
	if !g.d.orphans.empty() {
		g.adoptOrphans()
	}
}

// Protect widens the guard's era bound to the current clock, exactly like
// an IBR reservation's upper half: after it returns (and the caller's link
// re-validation passes) every node the reader can still reach was born at
// or before the bound, so no publisher will filter a batch this reader
// could dereference. One owner-only load/store pair, no fence — freedom
// from per-pointer publication is retained; only the bound is maintained.
func (g *hguard) Protect(i int, r mem.Ref) {
	if r.IsNil() {
		return
	}
	if e := g.d.era.Era(); e > g.upper.Load() {
		g.upper.Store(e)
	}
}

// ClearHPs exits the operation: deactivate the inbox and acknowledge
// everything delivered during the operation. Inactive already is one load.
func (g *hguard) ClearHPs() {
	if g.inbox.Load() == hInactive {
		return
	}
	if h := g.inbox.Swap(hInactive); h != nil && h != hInactive {
		g.ack(h)
	}
}

// Retire banks r in the local batch. Publication waits for the guard's
// next quiescent boundary (Begin): a batch published mid-operation would
// have to deliver to the retirer's own still-active inbox anyway, and
// boundary-only publication is what lets a never-quiescing leaver's
// backlog strand cleanly onto the orphan list at Release.
func (g *hguard) Retire(r mem.Ref) {
	if r.IsNil() {
		panic("reclaim: retire of nil Ref")
	}
	if g.batch == nil {
		g.batch = make([]retired, 0, g.d.cfg.Q)
	}
	g.batch = append(g.batch, retired{ref: r.Untagged()})
	g.d.cnt.tallyRetire(&g.tally, g.d.cfg.MemoryLimit)
}

// adoptOrphans detaches the orphan chain and republishes each batch
// through the inboxes as an orphan-flagged refcounted batch. Safe from any
// context: coverage comes from active-inbox delivery, not from the
// republisher's own state — a slot active since before the batch was
// orphaned receives a delivery and holds it to its next boundary; a slot
// activating later began after the nodes were unlinked and cannot reach
// them.
func (g *hguard) adoptOrphans() {
	for b := g.d.orphans.detach(); b != nil; b = b.next {
		g.d.publish(b.nodes, true, g)
	}
}

// publish delivers one batch to every active inbox whose era bound reaches
// the batch's oldest birth, then seeds the reference counter with the push
// count. A sweep that found no eligible inbox frees on the spot — for an
// inactive slot no operation overlapping the nodes' retirement exists (the
// soundness edge every walk-skip relies on), and for a filtered slot the
// type comment's era argument shows the reader can never pass link
// re-validation for any batch node. The push CAS re-reads the head each
// attempt, so a slot deactivating mid-push is skipped and one reactivating
// is simply delivered to (conservative: its next boundary acknowledges).
// Each publish also advances the era clock, so birth stamps partition into
// eras at batch granularity and the filter gains traction without any
// separate cadence knob.
func (d *Hyaline) publish(nodes []retired, orphan bool, g *hguard) {
	b := &hbatch{nodes: nodes, orphan: orphan}
	bmin := ^uint64(0)
	for _, n := range nodes {
		if be := d.era.BirthEra(n.ref); be < bmin {
			bmin = be
		}
	}
	pushed := 0
	visited := d.slots.walkOccupied(func(i int) bool {
		p := d.guards.at(i)
		e := &hentry{batch: b}
		for {
			h := p.inbox.Load()
			if h == hInactive {
				return true
			}
			if bmin > 0 && p.upper.Load() < bmin {
				// Era filter: this reader's bound predates every node in
				// the batch — it began before any of them was allocated
				// and has not widened past them since, so it cannot hold
				// (or ever validate) a reference into the batch.
				return true
			}
			e.next = h
			if p.inbox.CompareAndSwap(h, e) {
				pushed++
				return true
			}
		}
	})
	d.era.AdvanceEra()
	d.cnt.tallyScanned(&g.tally, visited)
	if pushed == 0 {
		d.freeBatch(b, g)
		d.cnt.flushTally(&g.tally, d.cfg.MemoryLimit)
		return
	}
	d.outRefs.Add(int64(pushed))
	if b.refs.Add(int64(pushed)) == 0 {
		// Every recipient acknowledged between our pushes and this add.
		d.freeBatch(b, g)
		d.cnt.flushTally(&g.tally, d.cfg.MemoryLimit)
	}
}

// ack acknowledges a detached inbox chain: one decrement per delivery,
// freeing each batch whose counter lands on zero. Chains are nil-terminated
// and sentinel-free (entries only ever push onto non-sentinel heads).
func (g *hguard) ack(h *hentry) {
	d := g.d
	freed := false
	for e := h; e != nil; e = e.next {
		if e.batch.refs.Add(-1) == 0 {
			d.freeBatch(e.batch, g)
			freed = true
		}
		d.outRefs.Add(-1)
	}
	if freed {
		d.cnt.flushTally(&g.tally, d.cfg.MemoryLimit)
	}
}

// freeBatch returns a batch's nodes to the pool, attributing the frees to
// the calling guard's tally (orphan batches go straight to the shared
// adopted/freed counters, like every orphan adopter).
func (d *Hyaline) freeBatch(b *hbatch, g *hguard) {
	n := freeAll(d.cfg.Free, b.nodes)
	if b.orphan {
		d.cnt.noteAdopted(n)
	} else {
		d.cnt.tallyFree(&g.tally, n)
	}
}
