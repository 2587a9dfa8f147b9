package reclaim

// Dynamic handle leasing — the elastic slot allocator behind
// Domain.Acquire/Release.
//
// A domain owns an arena of guard slots that starts at Config.Workers (the
// paper's N; the public Options.MaxWorkers) and, by default, GROWS on
// demand: when Acquire finds the freelist empty, the pool first unparks the
// lowest parked segment (capacity reclaimed from an earlier burst — see
// occupancy.go) and only then appends a publish-once segment of fresh slots
// (see arena.go for the geometry and the publication ordering), so Acquire
// only fails once the arena has reached Config.HardMaxWorkers with every
// slot leased — and an elastic domain (no hard cap) effectively never
// fails. The paper freezes the worker set at construction; leasing turned
// each slot into a recyclable resource, and elasticity removes the last
// sizing guess: an unbounded population of short-lived goroutines (a Go
// server's goroutine-per-request world) can share the arena without anyone
// predicting its peak.
//
// A lease is the only way to occupy a slot, so each slot is in one of three
// states and moves through them in a cycle:
//
//	free      — in the freelist (or held aside by a parked segment),
//	            available to Acquire.
//	leased    — popped by Acquire; exactly one goroutine owns the guard,
//	            for as long as it likes: a worker that leases once and holds
//	            the guard for its whole run is the paper's fixed process.
//	releasing — Release claimed the slot and the scheme's drain is running;
//	            invisible to Acquire until the drain's last store, then free.
//
// Leased and releasing slots are additionally indexed in their segment's
// occupancy bitmap (occupancy.go), which is what keeps every reclamation
// walk proportional to live occupancy rather than the arena's high-water
// size.
//
// The freelist is a Treiber stack over slot indices with a version-counted
// head (the same ABA discipline the node pools use): head packs
// (version<<32 | index+1), next[i] holds the successor's index+1. LIFO
// order deliberately keeps recently released slots hot — their guards'
// limbo backlogs are the youngest and their cache lines the warmest — and
// means growth happens only when the *concurrent* lease count exceeds
// everything released so far, never from mere churn.
import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// ErrNoSlots is returned by Acquire when the arena has grown to its
// HardMaxWorkers cap and every slot is leased. Callers can wait
// with AcquireWait, retry after other workers Release, or build the domain
// with a larger (or absent) cap. Elastic domains — no cap configured —
// only see it at the library ceiling MaxArenaSlots.
var ErrNoSlots = errors.New("reclaim: all worker slots are leased up to the hard cap (raise HardMaxWorkers or release a handle)")

const (
	slotFree int32 = iota
	slotLeased
	slotReleasing // release claimed; guard state is being drained
)

// slotSeg is one published segment of allocator state; next and state are
// indexed by in-segment offset. For grown segments (never segment 0, whose
// state array doubles as its occupancy index), occ is the occupancy bitmap
// (bit off&63 of word off>>6, set while the slot is leased) and live its
// occupied count — the active-slot index every reclamation walk iterates
// (occupancy.go).
type slotSeg struct {
	next  []atomic.Uint32 // next[off] = freelist successor's index+1 (global)
	state []atomic.Int32  // slotFree / slotLeased / slotReleasing
	occ   []atomic.Uint64 // occupancy bitmap
	live  atomic.Int32    // occupied slots here; parking's cheap precheck
}

func newSlotSeg(n int) *slotSeg {
	return &slotSeg{
		next:  make([]atomic.Uint32, n),
		state: make([]atomic.Int32, n),
		occ:   make([]atomic.Uint64, (n+63)/64),
	}
}

// slotPool is the lock-free slot allocator. All methods are safe for
// concurrent use; growth, parking and unparking are serialized by growMu
// but never block pops of already-published slots.
type slotPool struct {
	head atomic.Uint64 // (version<<32) | (top index+1); low word 0 = empty
	init uint32        // initial (soft) arena size, segment-0 size
	cap  uint32        // hard slot-count ceiling (HardMaxWorkers)
	high atomic.Uint32 // published slot count; monotone
	segs []atomic.Pointer[slotSeg]

	seg0 *slotSeg // segment 0, immutable after construction: the fast path

	tune *tuner // nil: the scheme has no tunable threshold

	// live is the pool's exact occupancy, maintained on every occupancy
	// transition including segment 0's. It is what walks use to skip an
	// idle domain outright, and what the high-water and parking estimates
	// read.
	live atomic.Int64

	// Lease and quiescent-state tallies (Stats.AcquiredHandles,
	// ReleasedHandles, QuiescentStates).
	acquired atomic.Uint64
	released atomic.Uint64
	quiesce  atomic.Uint64

	// leaseWait's parking: waiters counts parked callers, and wake holds
	// the current wake generation, closed by an unlease that saw waiters.
	wake    atomic.Pointer[chan struct{}]
	waiters atomic.Int32

	growMu sync.Mutex
	// onGrow publishes the owning scheme's per-slot state (guards, hazard
	// records) for all slots below the given bound, BEFORE the pool's own
	// segment and high are published — so a leased index always resolves in
	// every scheme-side table.
	onGrow func(hi int)

	grows     atomic.Uint64 // segment publications past the initial one
	highWater atomic.Int64  // peak simultaneous occupancy

	// Segment parking (occupancy.go): segments [parkedFrom, top] are
	// parked — all-free, out of the freelist, skipped by every walk.
	// parkedFrom starts past the directory, meaning "none parked".
	parkedFrom  atomic.Int32
	parkedSlots atomic.Int64
	parks       atomic.Uint64
	unparks     atomic.Uint64
}

// newSlotPool builds the allocator with segment 0 (the initial soft size)
// published and its slots pushed free, low indices on top. tune, when
// non-nil, is retuned at every capacity transition.
func newSlotPool(init, hardMax int, tune *tuner, onGrow func(hi int)) *slotPool {
	p := &slotPool{
		init:   uint32(init),
		cap:    uint32(hardMax),
		tune:   tune,
		onGrow: onGrow,
		segs:   make([]atomic.Pointer[slotSeg], numSegs(uint32(init), uint32(hardMax))),
	}
	ch := make(chan struct{})
	p.wake.Store(&ch)
	p.seg0 = newSlotSeg(init)
	p.segs[0].Store(p.seg0)
	p.high.Store(uint32(init))
	p.parkedFrom.Store(int32(len(p.segs)))
	for i := init - 1; i >= 0; i-- {
		p.pushSlot(i)
	}
	return p
}

// slot resolves index i to its allocator cells. Segment-0 indices — all of
// them until growth happens — take the direct path; grown indices pay one
// directory hop (the elastic redesign's single extra indirection).
func (p *slotPool) slot(i int) (next *atomic.Uint32, state *atomic.Int32) {
	if u := uint32(i); u < p.init {
		return &p.seg0.next[u], &p.seg0.state[u]
	}
	s, off := segOf(uint32(i), p.init)
	sg := p.segs[s].Load()
	return &sg.next[off], &sg.state[off]
}

// pushSlot is the Treiber push of slot i (construction, growth, unlease).
func (p *slotPool) pushSlot(i int) {
	nx, _ := p.slot(i)
	p.pushSlotVia(nx, i)
}

func (p *slotPool) pushSlotVia(nx *atomic.Uint32, i int) {
	for {
		h := p.head.Load()
		nx.Store(uint32(h))
		if p.head.CompareAndSwap(h, (h>>32+1)<<32|uint64(i+1)) {
			return
		}
	}
}

// tryPop pops a free slot and marks it leased. Returns -1 when the freelist
// is empty — growth is lease's decision. The occupancy index (including the
// pool live count) is updated before the index is returned, so a tenant's
// every action is preceded by its slot becoming visible to walks
// (occupancy.go).
func (p *slotPool) tryPop() int {
	for {
		h := p.head.Load()
		top := uint32(h)
		if top == 0 {
			return -1
		}
		i := int(top - 1)
		nx, st := p.slot(i)
		nxt := nx.Load()
		// The version bump makes a concurrent pop/push cycle of the same
		// slot fail this CAS instead of corrupting the list (ABA).
		if !p.head.CompareAndSwap(h, (h>>32+1)<<32|uint64(nxt)) {
			continue
		}
		// Only free slots are ever listed (unlease stores slotFree before
		// its push), and the pop made this caller the slot's sole owner.
		st.Store(slotLeased)
		p.markOccupied(i)
		return i
	}
}

// grow refills the freelist: it first unparks the lowest parked segment
// (capacity already published, just resting) and only then appends the next
// slot segment, publishing scheme state first and pushing the new slots
// free last (lowest index on top). Reports false at the hard cap. Racing
// growers serialize on growMu; the loser usually finds the list refilled
// and just retries its pop.
func (p *slotPool) grow() bool {
	p.growMu.Lock()
	defer p.growMu.Unlock()
	if uint32(p.head.Load()) != 0 {
		return true // another grower (or a release) refilled the list
	}
	if p.unparkOneLocked() {
		return true
	}
	hi := p.high.Load()
	if hi >= p.cap {
		return false
	}
	s, _ := segOf(hi, p.init) // hi is a segment boundary: the next segment
	lo, end := segBounds(s, p.init, p.cap)
	seg := newSlotSeg(int(end - lo))
	if p.onGrow != nil {
		p.onGrow(int(end)) // guards/records for [lo,end) exist before any lease
	}
	p.segs[s].Store(seg)
	p.high.Store(end)
	p.grows.Add(1)
	for i := int(end) - 1; i >= int(lo); i-- {
		p.pushSlot(i)
	}
	p.retuneLocked()
	return true
}

// noteHighWater raises the occupancy high-water mark. Steady state (occ
// below the recorded peak) is a single load; the CAS loop only runs while
// the peak is actually climbing. Candidate values are clamped to the
// published arena size: a live-count read can race a concurrent grow and
// transiently exceed the high bound this pool published when the reader
// loaded it, but true occupancy never exceeds the arena, so the clamp
// keeps HighWaterWorkers <= ArenaSize invariantly (both are monotone).
func (p *slotPool) noteHighWater(occ int64) {
	if hi := int64(p.high.Load()); occ > hi {
		occ = hi
	}
	for {
		hw := p.highWater.Load()
		if occ <= hw || p.highWater.CompareAndSwap(hw, occ) {
			return
		}
	}
}

// lease pops a free slot, growing the arena while the freelist is empty,
// and fails with ErrNoSlots only at the hard cap. A granted lease is counted
// and the moment's occupancy — the live count tryPop already incremented —
// folded into the high-water mark.
func (p *slotPool) lease() (int, error) {
	for {
		if w := p.tryPop(); w >= 0 {
			p.acquired.Add(1)
			p.noteHighWater(p.live.Load())
			return w, nil
		}
		if !p.grow() {
			return -1, ErrNoSlots
		}
	}
}

// leaseWait is lease that parks while the arena is exhausted at its hard
// cap, woken by the next unlease, or fails with ctx.Err() when ctx is done
// first. (An elastic domain grows instead of parking, so leaseWait only
// ever blocks under a HardMaxWorkers cap.)
//
// Lost-wakeup freedom: the waiter loads the wake channel BEFORE its retry,
// and unlease pushes the slot BEFORE checking the waiter count. If the
// releaser misses our count (we registered after its check), its push is
// already visible to our retry; if our retry misses the slot, the releaser
// saw our count and closes the very channel generation we hold (or a later
// release does) — either way we cannot sleep through a free slot.
func (p *slotPool) leaseWait(ctx context.Context) (int, error) {
	if w, err := p.lease(); err == nil {
		return w, nil
	}
	p.waiters.Add(1)
	defer p.waiters.Add(-1)
	for {
		ch := *p.wake.Load()
		if w, err := p.lease(); err == nil {
			return w, nil
		}
		select {
		case <-ctx.Done():
			return -1, ctx.Err()
		case <-ch:
		}
	}
}

// fillArena copies the capacity subsystem's counters into a Stats snapshot.
func (p *slotPool) fillArena(s *Stats) {
	s.ArenaSize = int(p.high.Load())
	s.HighWaterWorkers = int(p.highWater.Load())
	s.ArenaGrowths = p.grows.Load()
	s.ParkedSlots = int(p.parkedSlots.Load())
	s.SegmentParks = p.parks.Load()
	s.SegmentUnparks = p.unparks.Load()
	s.AcquiredHandles = p.acquired.Load()
	s.ReleasedHandles = p.released.Load()
	s.QuiescentStates = p.quiesce.Load()
	if p.tune != nil {
		s.EffectiveR = int(p.tune.r.Load())
		s.EffectiveC = int(p.tune.c.Load())
	}
}

// unlease runs the release protocol for slot i: claim the release (exactly
// one caller wins; an already-released slot is refused), run the scheme's
// drain while the slot is in the releasing state — off the freelist, so no
// new tenant's join can interleave with the drain's trailing cleanup (e.g.
// resetting an hprec) — then clear the occupancy bit (reclamation walks
// stop visiting the drained record) and recycle it. Finally it gives
// segment parking a chance: if this release left the trailing segment
// all-free with occupancy under the low-water mark, the segment retires
// from every walk (occupancy.go). Reports whether this call performed the
// release.
func (p *slotPool) unlease(i int, drain func()) bool {
	nx, st := p.slot(i)
	if !st.CompareAndSwap(slotLeased, slotReleasing) {
		return false
	}
	drain()
	p.clearOccupied(i)
	st.Store(slotFree)
	p.pushSlotVia(nx, i)
	p.released.Add(1)
	if p.waiters.Load() > 0 {
		ch := make(chan struct{})
		close(*p.wake.Swap(&ch)) // every parked leaseWait retries
	}
	p.maybePark()
	return true
}
