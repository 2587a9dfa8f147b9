package reclaim

import (
	"slices"
	"sync/atomic"

	"qsense/internal/mem"
)

// hpSlot is a single hazard-pointer cell, padded to a cache line so that a
// worker's publications do not false-share with its neighbours' — the same
// layout discipline the paper's C implementation (and ASCYLIB) uses.
type hpSlot struct {
	v atomic.Uint64
	_ [56]byte
}

// hprec is one worker's hazard pointer record.
//
// shared is the array scans read — the paper's globally visible HP array.
// pending models the store buffer: Cadence and QSense publish here without a
// fence, and only a rooster flush pass copies pending into shared — the
// behavioural analog of a context switch draining a TSO store buffer. Classic
// HP bypasses pending and stores straight to shared, a sequentially
// consistent store: the fence is the store's own. An unflushed pending entry is invisible to scans, exactly as a
// fenceless HP store sitting in a store buffer is invisible to a reclaimer
// on another core.
//
// Each array has a record-level ACTIVE word, so that ending an operation is
// one store instead of K. The owner raises the word of the array it
// publishes to on the first Protect of an operation (on is its private
// mirror, a plain field) and deactivate lowers it without touching a slot;
// slot values left behind are stale. A reader of an array — a scan of
// shared, a rooster flush of pending — loads the word first and skips the
// record when it is clear:
//
//   - Reading "inactive" just before an activation is the case of reading
//     a nil slot just before a store: the owner validates after its
//     activation and its publication, so a node the reader could be
//     deciding about (already unlinked) fails that validation.
//   - Reading "active" with a stale slot value over-protects one node per
//     slot, K per leased record at most — the N·K term of the paper's bound
//     already counts them. They last until the slot is next written or the
//     guard is released: reset (join and Release) zeroes every slot and
//     both words, so an unleased record contributes nothing and needs no
//     flag of its own. A flush racing a Release can re-raise a shared word
//     over stale slots; the record is unoccupied, so no walk visits it, and
//     the next tenant's join resets it — stale entries delay reclamation,
//     never unblock it.
type hprec struct {
	on            bool
	pendingActive atomic.Bool
	sharedActive  atomic.Bool
	pending       []hpSlot
	shared        []hpSlot
}

func newHPRec(k int) *hprec {
	return &hprec{pending: make([]hpSlot, k), shared: make([]hpSlot, k)}
}

// publishPending is the fence-free assign_HP of Cadence/QSense.
func (h *hprec) publishPending(i int, r mem.Ref) {
	h.pending[i].v.Store(uint64(r.Untagged()))
	if !h.on {
		h.on = true
		h.pendingActive.Store(true)
	}
}

// publishShared is classic HP's assign_HP: the sequentially consistent store
// is the fence. (A harness that asked for the paper's modelled stall adds it
// after the call — hpGuard.Protect.)
func (h *hprec) publishShared(i int, r mem.Ref) {
	h.shared[i].v.Store(uint64(r.Untagged()))
	if !h.on {
		h.on = true
		h.sharedActive.Store(true)
	}
}

// deactivate is ClearHPs: the owner lowers the word it raised.
func (h *hprec) deactivate(active *atomic.Bool) {
	if h.on {
		h.on = false
		active.Store(false)
	}
}

// FlushHP makes shared say what pending says; called by rooster passes. An
// inactive record is published as inactive with one store (none when it
// already was); an active one has its CHANGED slots copied and only then
// its shared word raised, so a scan that sees "active" sees this pass's
// slots. A cleared or overwritten pending slot is copied like any other, so
// protections do not outlive their release by more than one pass.
func (h *hprec) FlushHP() {
	if !h.pendingActive.Load() {
		if h.sharedActive.Load() {
			h.sharedActive.Store(false)
		}
		return
	}
	for i := range h.pending {
		if v := h.pending[i].v.Load(); h.shared[i].v.Load() != v {
			h.shared[i].v.Store(v)
		}
	}
	if !h.sharedActive.Load() {
		h.sharedActive.Store(true)
	}
}

// reset zeroes every slot and both active words (join and Release: the
// record leaves and enters a lease contributing nothing).
func (h *hprec) reset() {
	for i := range h.pending {
		if h.pending[i].v.Load() != 0 {
			h.pending[i].v.Store(0)
		}
		if h.shared[i].v.Load() != 0 {
			h.shared[i].v.Store(0)
		}
	}
	h.on = false
	h.pendingActive.Store(false)
	h.sharedActive.Store(false)
}

// hpSnapshot is a sorted snapshot of every worker's shared hazard pointers,
// built once per scan (Michael's scan, stage 1).
type hpSnapshot struct {
	vals []uint64
}

// recFlusher is the rooster flush target of the fence-free schemes
// (Cadence, QSense): ONE registered target per domain that walks the
// occupancy index and flushes only occupied records. It replaces the old
// per-record registration, so rooster passes cost O(live occupancy) too,
// parked segments are skipped outright (their records were drained at
// release and cannot re-lease while parked), and growth no longer touches
// the rooster at all. A record whose lease races a pass publishes its first
// pending protection after its occupancy bit was set, so the pass that must
// flush it (the one defining its nodes' old-enough ticks) walks after the
// bit is visible — the tick-rule argument in rooster's package doc is
// unchanged.
type recFlusher struct {
	p    *slotPool
	recs *arena[*hprec]
	cnt  *counters
}

// FlushHP implements rooster.Target.
func (f *recFlusher) FlushHP() {
	n := f.p.walkOccupied(func(w int) bool {
		f.recs.at(w).FlushHP()
		return true
	})
	f.cnt.scanned.Add(uint64(n))
}

// snapshotShared collects the non-nil shared HPs of all occupied, active
// records (an inactive record may be skipped whatever its slots hold; see
// hprec) and reports how many records it visited. Michael's argument needs
// every scanned node retired before the snapshot and every relevant
// protection published (and flushed) before the unlink.
func snapshotShared(p *slotPool, recs *arena[*hprec], buf []uint64) (hpSnapshot, int) {
	vals := buf[:0]
	visited := p.walkOccupied(func(i int) bool {
		r := recs.at(i)
		if !r.sharedActive.Load() {
			return true
		}
		for j := range r.shared {
			if v := r.shared[j].v.Load(); v != 0 {
				vals = append(vals, v)
			}
		}
		return true
	})
	slices.Sort(vals) // sort.Slice would allocate on every scan
	return hpSnapshot{vals: vals}, visited
}

// contains reports whether r is protected in the snapshot (stage 2 lookup).
// Kept out of line: inlined, it would push oldAndFree past the inlining
// budget, and every node a deferred scan judges would pay a call.
//
//go:noinline
func (s hpSnapshot) contains(r mem.Ref) bool {
	_, found := slices.BinarySearch(s.vals, uint64(r.Untagged()))
	return found
}
