package reclaim

// Occupancy-proportional iteration and segment parking.
//
// PR 3 made the arena elastic, but every reclamation walk — HP snapshot
// scans, epoch-advance checks, QSense's presence sweep and reset, rooster
// flush passes, Stats residue sums — still iterated every published slot up
// to the monotone high bound. One 10,000-goroutine burst therefore inflated
// every later scan to O(high-water) forever, which is exactly the cost model
// DEBRA and Hyaline avoid by keeping reclamation work proportional to the
// *active* participants. This file restores that property in two layers:
//
//  1. An active-slot index, in two tiers. Segment 0 — the initial arena,
//     never parked, home of every no-growth workload — needs no separate
//     index at all: its slot STATE array already publishes occupancy (the
//     lease's state store free->leased is the publication), so walks simply
//     load its <= Config.Workers state words and the lease path pays
//     nothing. Grown segments carry an occupancy bitmap, one bit per slot:
//     tryPop sets a grown slot's bit immediately after winning the
//     freelist pop — BEFORE the guard is handed to the caller —
//     and unlease clears it only AFTER the release drain has emptied the
//     guard, so the index is exact up to in-flight drains. walkOccupied
//     then visits only occupied slots: a walk over a drained 16k-slot
//     arena with 4 live workers loads segment 0's few states plus a
//     handful of bitmap words instead of touching 16384 records — and a
//     domain that never grew pays not one extra RMW for any of it. Eager
//     clearing is what keeps a burst DRAIN linear too — each release's own
//     quiescent/advance walk sees only the survivors, not every slot the
//     burst ever touched.
//
//  2. Segment parking: when a trailing segment's slots are all free and
//     occupancy sits below the low-water mark (live leases <= half the
//     capacity BELOW the segment), the segment is parked — its slots are
//     pulled out of the freelist and every walk skips the segment outright,
//     bitmap words included, so even the per-walk word-scan cost decays
//     after a burst instead of ratcheting. Growth unparks the lowest
//     parked segment (re-publishing its slots to the freelist) before ever
//     appending a new one. Parked segments stay published: guards and
//     hazard records never move, and ArenaSize still reports them.
//
// # Safety argument (mirrors arena.go's publish-order argument)
//
// A walk must either observe a concurrently leased slot or that slot must be
// provably irrelevant to the walk's conclusion. The ordering that provides
// this, with Go atomics being sequentially consistent:
//
//	unpark(parkedFrom++)  ≺  freelist push  ≺  lease pop  ≺  bit set
//	  ≺  every action of the tenant (Protect, Retire, epoch announcement)
//
// and on the way out
//
//	release drain (protections cleared, epoch Leave, limbo orphaned)
//	  ≺  bit clear  ≺  slot free  ≺  freelist push.
//
// (For segment 0 read "state store to leased" for "bit set" and "state store
// to free, after the drain" for "bit clear" — the same two edges, one
// tier down.) So if a walk's bitmap-word load (or state load, or
// parked-bound load) misses a slot, that load precedes the tenant's bit
// set in the SC total order, hence precedes everything the tenant ever
// published. For hazard-pointer snapshots this is
// the case Michael's retire-before-snapshot argument already tolerates: a
// scan only frees nodes retired before its snapshot, and a validated
// protection of such a node was published (and, for Cadence, flushed by the
// captured tick) before the unlink — before the snapshot began — so the
// snapshot's loads, all later in SC order than the bit set, do see the bit
// and the protection. For epoch advances it is the join-quiescent case: a
// tenant whose bit the advance missed adopted the current-or-later global
// epoch while holding no references, which cannot invalidate the grace
// period being proven (the same argument arena.go makes for slots published
// after the advance's high-bound load). Conversely a walk that still sees a
// bit mid-release only visits a slot whose drain is in progress: its hazard
// arrays are being zeroed and its membership is inactive or about to Leave —
// visiting it is harmless, exactly like visiting an idle worker.
//
// Parking adds nothing new to this argument: a segment is parked only while
// every one of its slots is verifiably free AND detached from the freelist
// (checked under growMu with the whole freelist in hand), so a parked
// segment cannot gain an occupant until unpark republishes its slots — and
// unpark raises parkedFrom before the first push, re-entering the ordering
// chain above.
//
// Nor does walk skipping: a walk that loads a pool live count of zero
// returns at once, without loading segment 0's states. A tenant's live
// increment (markOccupied) precedes its every action in SC order, so a walk
// that loaded zero precedes everything that tenant ever published — the
// same missed-slot case both arguments above already tolerate.

import "math/bits"

// markOccupied publishes slot i to reclamation walks; called by tryPop
// after winning the freelist pop, before the guard reaches the tenant. The
// pool-wide live count is maintained for EVERY slot — it is the exact
// occupancy that walk skipping, high-water and parking all read — while
// the two-tier index splits as before: segment-0 slots need nothing further
// (their state word IS the index), grown slots set their segment's bitmap
// bit.
func (p *slotPool) markOccupied(i int) {
	p.live.Add(1)
	if uint32(i) < p.init {
		return
	}
	s, off := segOf(uint32(i), p.init)
	sg := p.segs[s].Load()
	sg.occ[off>>6].Or(1 << (off & 63))
	sg.live.Add(1)
}

// clearOccupied hides slot i from reclamation walks. Called by unlease
// after the release drain completed, before the slot re-enters the
// freelist. Segment-0 releases publish vacancy through the state store
// instead of a bitmap bit; the pool live count decrements for every slot.
func (p *slotPool) clearOccupied(i int) {
	if uint32(i) >= p.init {
		s, off := segOf(uint32(i), p.init)
		sg := p.segs[s].Load()
		sg.occ[off>>6].And(^(uint64(1) << (off & 63)))
		sg.live.Add(-1)
	}
	p.live.Add(-1)
}

// walkOccupied calls visit for every occupied (leased or draining) slot of
// every unparked segment, in ascending index order, and returns the
// number of slots visited. visit returning false stops the walk. This is
// THE iteration primitive for every reclamation pass — HP snapshot
// collection, epoch-advance checks, presence sweeps and resets, rooster
// flush walks — and its cost is O(Config.Workers + occupied slots + bitmap
// words of unparked segments), independent of how large the arena once
// grew — and an idle domain's is one load. See the file comment for why a
// slot leased concurrently with the walk is either observed or provably
// irrelevant.
func (p *slotPool) walkOccupied(visit func(i int) bool) int {
	if p.live.Load() == 0 {
		return 0
	}
	visited := 0
	// Tier 1: segment 0 by state — occupied means anything but free.
	for i := range p.seg0.state {
		if p.seg0.state[i].Load() != slotFree {
			visited++
			if !visit(i) {
				return visited
			}
		}
	}
	// Tier 2: grown segments by bitmap, up to the parked suffix.
	hi := p.high.Load()
	pf := int(p.parkedFrom.Load())
	for s := 1; s < pf; s++ {
		lo, _ := segBounds(s, p.init, p.cap)
		if lo >= hi {
			break
		}
		sg := p.segs[s].Load()
		for wi := range sg.occ {
			w := sg.occ[wi].Load()
			for w != 0 {
				b := bits.TrailingZeros64(w)
				w &^= 1 << b
				visited++
				if !visit(int(lo) + wi<<6 + b) {
					return visited
				}
			}
		}
	}
	return visited
}

// occupancyEstimate reads the current occupancy — the pool's exact live
// count, clamped to [0, high] against transient reorderings with a
// concurrent grow's high publication.
func (p *slotPool) occupancyEstimate() int64 {
	occ := p.live.Load()
	if occ < 0 {
		occ = 0
	}
	if hi := int64(p.high.Load()); occ > hi {
		occ = hi
	}
	return occ
}

// parkCandidate returns the highest unparked segment index (>= 1) that the
// cheap, lock-free preconditions currently allow parking, or -1.
// Preconditions: the segment exists and is beyond segment 0 (the initial
// arena, Config.Workers, is the floor capacity never shrinks below — and
// its state-array index has no parked form), its live count is zero (no
// leased slot — so a drain's releases skip park attempts in O(1) while the
// trailing segment is still partially occupied), and occupancy sits at or
// below the low-water mark — half the capacity that would remain below
// the parked segment, which doubles as the unpark hysteresis (growth
// unparks only when the freelist runs dry, i.e. occupancy reached that
// remaining capacity). Whether the segment is really all-free is verified
// exactly inside parkSegLocked, with the freelist in hand; the live==0
// precheck bounds how often that detach runs (an abort then requires a
// release caught between its live decrement and its freelist push — a
// transient that resolves itself, so no backoff state is needed).
func (p *slotPool) parkCandidate() int {
	hi := p.high.Load()
	if hi <= p.init {
		return -1
	}
	cand, _ := segOf(hi-1, p.init) // top published segment
	if pf := int(p.parkedFrom.Load()); pf <= cand {
		cand = pf - 1
	}
	if cand < 1 {
		return -1
	}
	sg := p.segs[cand].Load()
	if sg == nil || sg.live.Load() != 0 {
		return -1
	}
	lo, _ := segBounds(cand, p.init, p.cap)
	if 2*p.occupancyEstimate() > int64(lo) {
		return -1
	}
	return cand
}

// maybePark is the release-path parking hook: when the cheap preconditions
// hold it takes the growth lock (TryLock — parking is best-effort and must
// never block a release; the next release retries) and parks every trailing
// segment the conditions allow. The common case — occupancy healthy, or
// nothing grown, or the trailing segment still in use — is a handful of
// loads and no lock.
func (p *slotPool) maybePark() {
	if p.parkCandidate() < 0 {
		return
	}
	if !p.growMu.TryLock() {
		return
	}
	defer p.growMu.Unlock()
	parked := false
	for p.parkSegLocked() {
		parked = true
	}
	if parked {
		p.retuneLocked()
	}
}

// parkSegLocked parks the current candidate segment, if any, and reports
// whether it did. Caller holds growMu. The freelist is detached wholesale
// (the same one-CAS detach the orphan list uses), the candidate's slots are
// filtered out, and everything else is pushed back; if any candidate slot is
// missing from the detached chain — a concurrent release has cleared its
// occupancy bit but not yet pushed it — the park aborts and restores the
// list untouched. Holding the whole freelist makes the check sound: a slot
// in hand cannot be popped, so a verified-all-free segment cannot gain an
// occupant before parkedFrom publishes the park.
func (p *slotPool) parkSegLocked() bool {
	cand := p.parkCandidate()
	if cand < 0 {
		return false
	}
	lo, end := segBounds(cand, p.init, p.cap)
	top := p.detachFreeLocked()
	var keep, seg []int
	for idx := top; idx != 0; {
		i := int(idx - 1)
		nx, _ := p.slot(i)
		idx = nx.Load()
		if uint32(i) >= lo && uint32(i) < end {
			seg = append(seg, i)
		} else {
			keep = append(keep, i)
		}
	}
	ok := len(seg) == int(end-lo)
	if ok {
		p.parkedFrom.Store(int32(cand))
		p.parkedSlots.Add(int64(end - lo))
		p.parks.Add(1)
	} else {
		// A slot of the candidate is mid-release (live already 0, push
		// still in flight): abort and restore; that release's own
		// maybePark — or any later one — retries once the push lands.
		keep = append(keep, seg...)
	}
	// Push kept slots back in reverse traversal order so the original top
	// ends back on top (LIFO warmth preserved).
	for j := len(keep) - 1; j >= 0; j-- {
		p.pushSlot(keep[j])
	}
	return ok
}

// detachFreeLocked atomically takes the entire freelist, returning the old
// top index+1 (0 = empty). Concurrent pops fail their CAS and retry against
// the emptied head — finding it empty they call grow, which serializes on
// the growMu the caller holds and re-checks the head after the caller's
// push-back. Caller holds growMu.
func (p *slotPool) detachFreeLocked() uint32 {
	for {
		h := p.head.Load()
		if uint32(h) == 0 {
			return 0
		}
		if p.head.CompareAndSwap(h, (h>>32+1)<<32) {
			return uint32(h)
		}
	}
}

// unparkOneLocked republishes the lowest parked segment's slots to the
// freelist, and reports whether there was one. Caller holds growMu (the
// grow path). Ordering: parkedFrom rises FIRST — walks and flush passes
// include the segment again (its records are drained, so the extra visits
// are no-ops) — and only then do the slots become leasable, re-entering the
// bit-set-before-tenant-activity chain of the file comment.
func (p *slotPool) unparkOneLocked() bool {
	pf := int(p.parkedFrom.Load())
	hi := p.high.Load()
	top, _ := segOf(hi-1, p.init)
	if pf > top {
		return false
	}
	lo, end := segBounds(pf, p.init, p.cap)
	next := pf + 1
	if pf == top {
		// Nothing left parked: back to the "none parked" sentinel, not
		// top+1 — a segment grown later would otherwise be born inside the
		// parked suffix and its tenants skipped by every walk.
		next = len(p.segs)
	}
	p.parkedFrom.Store(int32(next))
	p.parkedSlots.Add(-int64(end - lo))
	p.unparks.Add(1)
	for i := int(end) - 1; i >= int(lo); i-- {
		p.pushSlot(i)
	}
	p.retuneLocked()
	return true
}

// retuneLocked re-derives the scheme's scan/fallback thresholds after a
// capacity transition (grow, park, unpark). Caller holds growMu, which
// serializes every retune. The effective N handed to the tuner is the
// unparked capacity — high minus parked — not the instantaneous occupancy:
// between transitions occupancy can rise to that capacity without the tuner
// running again, and C's §6.2 legality bound must hold for every worker
// count reachable before the next retune. Parking still decays it — a
// drained arena parks down to segment 0, so N_eff falls back to the initial
// size. No-op for schemes without tunable thresholds (QSBR, None).
func (p *slotPool) retuneLocked() {
	if p.tune != nil {
		hi := int64(p.high.Load())
		p.tune.retune(hi-p.parkedSlots.Load(), hi)
	}
}
