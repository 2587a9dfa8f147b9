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
// lock-free *orphan list*, each batch stamped with the grace-period evidence
// it still needs, and every worker's reclamation pass — epoch advance,
// hazard-pointer scan, RC sweep, rooster pass — *adopts* eligible batches
// and frees them. Reclamation progress then requires only that the system
// as a whole stays active, never that one particular slot re-leases.
//
// Evidence comes in four forms, matching the schemes' safety arguments:
//
//   - epoch: the batch records the global epoch G observed at release (the
//     releasing guard quiesced first, so nothing in the batch was retired
//     after G). Once the global epoch reaches G+3 every worker has passed
//     through quiescent states proving a full grace period for the whole
//     batch — the same bound membership.go uses for Join re-entry — and the
//     batch frees wholesale (QSBR, EBR, QSense fast path).
//   - deferred scan: the nodes carry their rooster-tick stamps; an adopter
//     frees each node that is old enough and absent from a fresh shared-HP
//     snapshot, exactly Cadence's scan argument (HP, Cadence, QSense —
//     either evidence form suffices for a QSense batch, so whichever path
//     the domain is on makes progress).
//   - claim: RC nodes free when the count-table claim CAS succeeds, i.e.
//     no reader holds them.
//   - interval: ibr nodes carry their lifetime [birth, retire] in eras; an
//     adopter frees each node whose interval misses every reservation in a
//     snapshot collected AFTER the chain was detached (adoptInterval — the
//     same detach-then-snapshot ordering adoptDetached requires).
//
// (Hyaline needs no evidence stamp at all: its Release parks the leftover
// local batch here as plain refs, and an adopter REPUBLISHES the batch
// through the active slots' inboxes as a reference-counted delivery — the
// handoff itself is the grace-period argument, so adoption is one detach
// plus one publish, with no maturity check.)
//
// The list is a Treiber stack of batches. Adopters detach the whole list
// with one swap, so concurrent adopters own disjoint chains and a node is
// freed exactly once; ineligible batches are pushed back intact. The empty
// check is a single pointer load, which keeps the hooks free on the hot
// path — domains that never strand anything never pay more than that. A
// Release pushes its whole backlog in one CAS: the batch, never the node, is
// the unit that crosses threads (Hyaline's batched handoff).

import (
	"sync/atomic"

	"qsense/internal/mem"
	"qsense/internal/rooster"
)

// orphanBatch is one released slot's unprovable backlog. Epoch-only schemes
// fill refs; stamped schemes fill nodes; a batch never carries both.
type orphanBatch struct {
	next  *orphanBatch
	refs  []mem.Ref // plain refs (QSBR, EBR, RC)
	nodes []retired // tick-stamped nodes (HP, Cadence, QSense)
	epoch uint64    // global epoch observed at orphaning (epoch evidence)
}

func (b *orphanBatch) size() int { return len(b.refs) + len(b.nodes) }

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

// add orphans a fresh backlog: ownership of the slices passes to the list
// (callers must not reuse the backing arrays). No-op for an empty backlog.
func (l *orphanList) add(refs []mem.Ref, nodes []retired, epoch uint64, cnt *counters) {
	b := &orphanBatch{refs: refs, nodes: nodes, epoch: epoch}
	n := b.size()
	if n == 0 {
		return
	}
	cnt.orphaned.Add(uint64(n))
	l.push(b)
}

// addRefBuckets coalesces a guard's three plain-ref limbo buckets into one
// batch stamped with epoch and orphans it — QSBR's and EBR's release
// drains. Bucket ownership passes to the list; the guard's buckets are
// nilled so the next tenant starts empty.
func (l *orphanList) addRefBuckets(limbo *[3][]mem.Ref, epoch uint64, cnt *counters) {
	var refs []mem.Ref
	for b := range limbo {
		if len(limbo[b]) == 0 {
			continue
		}
		if refs == nil {
			refs = limbo[b]
		} else {
			refs = append(refs, limbo[b]...)
		}
		limbo[b] = nil
	}
	l.add(refs, nil, epoch, cnt)
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

// adoptEpoch frees every batch whose epoch evidence has matured: the global
// epoch moved >= 3 past the batch's stamp, proving a full grace period (see
// the epoch arithmetic on epochMember.quiescent and Join's bound). Immature
// batches go back on the list.
func (l *orphanList) adoptEpoch(global uint64, free func(mem.Ref), cnt *counters) {
	if l.empty() {
		return
	}
	for b := l.detach(); b != nil; {
		next := b.next
		if global >= b.epoch+3 {
			for _, r := range b.refs {
				free(r)
			}
			for _, n := range b.nodes {
				free(n.ref)
			}
			cnt.noteAdopted(b.size())
		} else {
			l.push(b)
		}
		b = next
	}
}

// adoptDetached runs Cadence's per-node check over a chain the caller
// detached EARLIER — before taking snap (and, for the deferred schemes,
// after capturing tick, also pre-snapshot). The order is the safety
// argument: a node in the chain was retired before the detach, so any
// validated protection of it was published before the unlink and, once
// flushed (classic HP: immediately, fenced; Cadence: by the captured tick
// per OldEnoughAt), is visible in the snapshot. Free what is old enough
// (skipped when mgr is nil — classic HP has no deferral) and unprotected;
// survivors are pushed back as a trimmed batch that keeps its epoch stamp,
// so epoch-evidence adopters can still take it.
func (l *orphanList) adoptDetached(b *orphanBatch, snap hpSnapshot, mgr *rooster.Manager, tick uint64, cfg Config, cnt *counters) {
	for b != nil {
		next := b.next
		var freed int
		b.nodes, freed = filterDeferred(cfg, mgr, tick, snap, b.nodes)
		cnt.noteAdopted(freed)
		// Plain refs carry no stamps for the scan rule to judge; a batch
		// holding any (epoch-evidence schemes') survives for an
		// epoch-evidence adopter rather than leaking silently.
		if b.size() > 0 {
			l.push(b)
		}
		b = next
	}
}

// adoptHook returns the rooster-pass adoption hook (Cadence, QSense): tick
// capture, then the detach, then the snapshot — adoptDetached's
// safety-critical order.
func (l *orphanList) adoptHook(mgr *rooster.Manager, p *slotPool, recs *arena[*hprec], cfg Config, cnt *counters) func() {
	var buf []uint64
	return func() {
		if l.empty() {
			return
		}
		tick := mgr.Tick()
		b := l.detach()
		snap, visited := snapshotShared(p, recs, buf)
		buf = snap.vals
		cnt.scanned.Add(uint64(visited))
		l.adoptDetached(b, snap, mgr, tick, cfg, cnt)
	}
}

// eraInterval is one guard's active reservation [lo, hi], in eras.
type eraInterval struct{ lo, hi uint64 }

// intervalMissesAll reports whether node n's lifetime [birth, stamp] is
// disjoint from every reservation — ibr's free condition.
func intervalMissesAll(res []eraInterval, n retired) bool {
	for _, r := range res {
		if n.birth <= r.hi && n.stamp >= r.lo {
			return false
		}
	}
	return true
}

// adoptInterval runs ibr's interval check over a chain the caller detached
// BEFORE collecting res — the ordering is the safety argument, exactly as
// for adoptDetached: every node in the chain was retired before the detach,
// so any reservation that could cover a still-reachable reference was
// published before the collection read its slot. Survivors go back as a
// trimmed batch; plain-ref batches (no per-node stamps to judge) survive
// intact for an epoch-evidence adopter.
func (l *orphanList) adoptInterval(b *orphanBatch, res []eraInterval, free func(mem.Ref), cnt *counters) {
	for b != nil {
		next := b.next
		kept := b.nodes[:0]
		freed := 0
		for _, n := range b.nodes {
			if intervalMissesAll(res, n) {
				free(n.ref)
				freed++
			} else {
				kept = append(kept, n)
			}
		}
		b.nodes = kept
		cnt.noteAdopted(freed)
		if b.size() > 0 {
			l.push(b)
		}
		b = next
	}
}

// adoptClaim is RC's adoption: free every orphan whose count-table claim
// succeeds (no reader holds it); the rest wait for a later sweep.
func (l *orphanList) adoptClaim(table *countTable, free func(mem.Ref), cnt *counters) {
	if l.empty() {
		return
	}
	for b := l.detach(); b != nil; {
		next := b.next
		kept := b.refs[:0]
		freed := 0
		for _, r := range b.refs {
			if table.tryClaim(r) {
				free(r)
				freed++
			} else {
				kept = append(kept, r)
			}
		}
		cnt.noteAdopted(freed)
		if len(kept) > 0 {
			b.refs = kept
			l.push(b)
		}
		b = next
	}
}

// drain frees everything unconditionally — the Close path, valid only once
// all workers have stopped (every grace period has trivially elapsed).
// Drained nodes count as freed but not adopted: adoption is the runtime
// rescue, Close is terminal.
func (l *orphanList) drain(free func(mem.Ref), cnt *counters) {
	for b := l.detach(); b != nil; b = b.next {
		for _, r := range b.refs {
			free(r)
		}
		for _, n := range b.nodes {
			free(n.ref)
		}
		cnt.freed.Add(uint64(b.size()))
	}
}
