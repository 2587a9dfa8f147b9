package reclaim

// Orphan limbo adoption — no node's fate may depend on one specific slot.
//
// Release drains what it can prove safe, but an epoch scheme's limbo buckets
// and the deferred schemes' retire lists usually hold nodes whose grace
// period has not yet elapsed at release time. Before this file, that backlog
// stayed parked on the vacated slot, to be freed only by the slot's *next
// tenant* — if the slot never re-leased, the nodes were stranded forever,
// counting against Config.MemoryLimit. That violates the robustness story
// (§7.3: robust schemes "should never fail" under delays) with a failure
// mode of our own leasing layer's making.
//
// The fix is the shape Hyaline and DEBRA take for stalled threads, applied
// to vacant slots: Release moves the unprovable backlog onto a per-domain
// lock-free *orphan list* as one batch, and every worker's reclamation pass
// — epoch advance, hazard-pointer scan, RC sweep, rooster pass — *adopts*
// the list and frees what it can. Reclamation progress then requires only
// that the system as a whole stays active, never that one particular slot
// re-leases.
//
// The evidence travels with the nodes; the rule travels with the adopter.
// A batch is the same []retired every backlog holds — each node keeps its
// rooster-tick or era stamps — plus the global epoch observed at release.
// There is one adopt, and each adopter hands it its own scheme's free rule,
// the same canFree its own backlog is swept with:
//
//   - epoch (QSBR, EBR, QSense's fast path): the releasing guard quiesced
//     first, so nothing in the batch was retired after the stamped epoch G.
//     Once the global epoch reaches G+3 every worker has passed through
//     quiescent states proving a full grace period for the whole batch —
//     the same bound membership.go uses for Join re-entry.
//   - old enough and unprotected (HP, Cadence, QSense's fallback path and
//     rooster passes): oldAndFree against a fresh shared-HP snapshot,
//     exactly Cadence's scan argument. A QSense batch carries both forms of
//     evidence, so whichever path the domain is on makes progress.
//   - interval (ibr): the node's lifetime [birth, retire] misses every
//     reservation.
//   - claim (RC): the count-table claim CAS succeeds, i.e. no reader holds
//     the node.
//
// The two snapshot rules need the chain detached BEFORE the snapshot (and,
// for the deferred schemes, the tick captured before that): every node in
// the chain was then retired before the snapshot, so any validated
// protection of it was published before the unlink and, once flushed, is
// visible to the snapshot. That order lives at each adopter's call site.
//
// (Hyaline judges nothing: its Release parks the leftover local batch here,
// and an adopter REPUBLISHES the batch through the active slots' inboxes as
// a reference-counted delivery — the handoff itself is the grace-period
// argument, so adoption is one detach plus one publish.)
//
// The list is a Treiber stack of batches. Adopters detach the whole list
// with one swap, so concurrent adopters own disjoint chains and a node is
// freed exactly once; survivors are pushed back in their batch, which keeps
// its epoch stamp. The empty check is a single pointer load, which keeps the
// hooks free on the hot path — domains that never strand anything never pay
// more than that. A Release pushes its whole backlog in one CAS: the batch,
// never the node, is the unit that crosses threads (Hyaline's batched
// handoff).

import (
	"sync/atomic"

	"qsense/internal/mem"
)

// orphanBatch is one released slot's unprovable backlog.
type orphanBatch struct {
	next  *orphanBatch
	nodes []retired
	epoch uint64 // global epoch observed at orphaning (epoch evidence)
}

// orphanList is the per-domain lock-free list of orphan batches.
type orphanList struct {
	head atomic.Pointer[orphanBatch]
}

// empty is the hot-path check: one pointer load.
func (l *orphanList) empty() bool { return l.head.Load() == nil }

// push adds a batch to the list (Treiber push).
func (l *orphanList) push(b *orphanBatch) {
	for {
		h := l.head.Load()
		b.next = h
		if l.head.CompareAndSwap(h, b) {
			return
		}
	}
}

// add orphans a fresh backlog: ownership of the slice passes to the list
// (callers must not reuse the backing array). No-op for an empty backlog.
func (l *orphanList) add(nodes []retired, epoch uint64, cnt *counters) {
	if len(nodes) == 0 {
		return
	}
	cnt.orphaned.Add(uint64(len(nodes)))
	l.push(&orphanBatch{nodes: nodes, epoch: epoch})
}

// detach atomically takes the entire list. The caller owns the returned
// chain exclusively; batches it cannot free must be pushed back. The empty
// case is a single load — callers on scan hot paths pay no RMW on the
// shared head when nothing is orphaned.
func (l *orphanList) detach() *orphanBatch {
	if l.empty() {
		return nil
	}
	return l.head.Swap(nil)
}

// adopt sweeps a detached chain with the adopter's free rule, which sees
// each node with its batch's epoch stamp. What the rule frees counts as
// adopted; each batch's survivors go back on the list.
func (l *orphanList) adopt(b *orphanBatch, free func(mem.Ref), cnt *counters, canFree func(epoch uint64, n retired) bool) {
	for b != nil {
		next := b.next
		var freed int
		b.nodes, freed = sweep(free, b.nodes, func(n retired) bool { return canFree(b.epoch, n) })
		cnt.noteAdopted(freed)
		if len(b.nodes) > 0 {
			l.push(b)
		}
		b = next
	}
}

// adoptHook returns the rooster-pass adoption hook (Cadence, QSense): tick
// capture, then the detach, then the snapshot — the order oldAndFree needs.
func (d *domainCore) adoptHook(recs *arena[*hprec]) func() {
	var buf []uint64
	return func() {
		if d.orphans.empty() {
			return
		}
		tick := d.scanTick()
		b := d.orphans.detach()
		snap, visited := snapshotShared(d.slots, recs, buf)
		buf = snap.vals
		d.cnt.scanned.Add(uint64(visited))
		d.orphans.adopt(b, d.cfg.Free, &d.cnt, func(_ uint64, n retired) bool {
			return oldAndFree(tick, &snap, n)
		})
	}
}

// drain frees everything unconditionally — the Close path, valid only once
// all workers have stopped (every grace period has trivially elapsed).
// Drained nodes count as freed but not adopted: adoption is the runtime
// rescue, Close is terminal.
func (l *orphanList) drain(free func(mem.Ref), cnt *counters) {
	for b := l.detach(); b != nil; b = b.next {
		cnt.freed.Add(uint64(freeAll(free, b.nodes)))
	}
}
