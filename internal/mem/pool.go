package mem

import (
	"fmt"
	"sync"
	"sync/atomic"
)

const (
	slabShift = 13
	// SlabSize is the number of slots added to a pool each time it grows.
	SlabSize = 1 << slabShift
	slabMask = SlabSize - 1

	// free-list head packing: | aba (31 bits) | idx+1 (33 bits) |
	headIdxBits = 33
	headIdxMask = 1<<headIdxBits - 1

	nilIdx = ^uint32(0)
)

// Config controls pool construction.
type Config struct {
	// MaxSlots bounds the pool size; Alloc panics with ErrExhausted once
	// reached. Rounded up to a multiple of SlabSize. Default 1<<25.
	MaxSlots int
	// Poison clears a slot's value on Free (see poison), so stale readers
	// that hold a raw pointer (rather than a Ref) observe cleared memory in
	// tests.
	Poison bool
	// Name appears in violation and exhaustion messages.
	Name string
}

// ErrExhausted is the panic value used when a pool reaches MaxSlots. It is
// the substrate analog of malloc returning NULL.
type ErrExhausted struct{ Name string }

func (e *ErrExhausted) Error() string { return fmt.Sprintf("mem: pool %q exhausted", e.Name) }

type slot[T any] struct {
	gen   atomic.Uint32 // odd = live, even = free; bumped on every transition
	next  atomic.Uint32 // free-list link; meaningful only while free
	birth uint64        // pool era at Alloc time; read-only while live
	val   T
}

type slab[T any] struct {
	slots []slot[T]
}

// Pool is a typed slab allocator handing out generation-tagged Refs.
// All methods are safe for concurrent use.
//
// Layout rule: cfg and dir are read by every resolve of every traversal and
// never written after NewPool; every word below the pad is written by some
// worker's Alloc, Free or grow. The pad keeps the two groups on different
// cache lines wherever the struct lands (TestPoolLayout pins it). With dir
// beside freeHead/allocs/frees, each Alloc or Free on one core invalidates
// the line every resolve on the other core reads: 6 % of lib-mixed's
// throughput and 8 % of its CPU per operation on the 2-vCPU ruler box. It is
// the reads beside the counters that cost, not the counters' own contention
// — striping them was neutral.
type Pool[T any] struct {
	cfg Config
	dir []atomic.Pointer[slab[T]] // fixed directory, entries published once
	_   [64]byte

	nSlabs   atomic.Uint32
	freeHead atomic.Uint64 // packed (aba, idx+1); 0 idx part = empty
	era      atomic.Uint64 // birth-era clock; slots are stamped at Alloc
	growMu   sync.Mutex

	allocs atomic.Uint64
	frees  atomic.Uint64
	grows  atomic.Uint64
}

// NewPool creates an empty pool; the first Alloc triggers slab growth.
func NewPool[T any](cfg Config) *Pool[T] {
	if cfg.MaxSlots <= 0 {
		cfg.MaxSlots = 1 << 25
	}
	nDirs := (cfg.MaxSlots + SlabSize - 1) / SlabSize
	if cfg.Name == "" {
		cfg.Name = "pool"
	}
	return &Pool[T]{cfg: cfg, dir: make([]atomic.Pointer[slab[T]], nDirs)}
}

func (p *Pool[T]) slotAt(idx uint32) *slot[T] {
	return &p.dir[idx>>slabShift].Load().slots[idx&slabMask]
}

// Resolved is a slot whose address Resolve has already computed: what a
// traversal carries so that using a node again costs one load and compare on
// the node's own cache line instead of another directory walk. It is not a
// licence to skip the check — Get re-checks the generation on every use.
// The zero Resolved names no slot and must not be used.
type Resolved[T any] struct {
	gen *atomic.Uint32
	val *T
}

// Resolve walks the directory to r's slot and checks its generation. It
// panics with *Violation if r is stale (the slot has been freed, or freed
// and reallocated, since r was created) — the analog of a use-after-free
// fault. It panics with a plain message on a nil Ref (the analog of a
// null-pointer dereference). Tag bits must be cleared by the caller (use
// Ref.Untagged).
func (p *Pool[T]) Resolve(r Ref) Resolved[T] {
	if r.IsNil() {
		panic("mem: nil Ref dereference")
	}
	idx := r.index()
	s := &p.dir[idx>>slabShift].Load().slots[idx&slabMask]
	res := Resolved[T]{&s.gen, &s.val}
	res.Get(r)
	return res
}

// Get is Resolve for callers that use the slot once.
func (p *Pool[T]) Get(r Ref) *T { return p.Resolve(r).val }

// Get returns the slot's value after re-checking that the slot still holds
// r's generation; r must be the Ref the slot was resolved from. It panics
// with *Violation exactly as Resolve does. It must stay inlinable — that is
// the whole saving — and sits exactly at go1.24's budget of 80: r.gen() is
// written out, the report is built out of line (`go build -gcflags=-m
// ./internal/skiplist` shows "inlining call to mem.Resolved").
func (s Resolved[T]) Get(r Ref) *T {
	if s.gen.Load()&genMask != uint32(r>>genShift) {
		stale(r, s.gen)
	}
	return s.val
}

// Peek is Resolve for an optimistic reader holding a Ref it kept across
// operations and protected by nothing (the skip list's node index words, and
// its Prefetch, which follows them and the links they lead to): a stale r is
// reported, not raised — nothing is wrong yet, the hint is merely old. raw is for the atomic loads the reader validates
// afterwards with Live; plain fields, and everything once Live has passed, go
// through Get.
// r must have come from this pool's Alloc.
func (p *Pool[T]) Peek(r Ref) (res Resolved[T], raw *T, live bool) {
	s := p.slotAt(r.index())
	res = Resolved[T]{&s.gen, &s.val}
	return res, &s.val, res.Live(r)
}

// Live is Get's check, reported instead of raised. Generations only grow:
// true means every load of the slot since r's Alloc saw r's incarnation.
func (s Resolved[T]) Live(r Ref) bool { return s.gen.Load()&genMask == uint32(r>>genShift) }

// stale raises the use-after-free report. It reloads the generation, so Got
// is the slot's state when the report is built.
//
//go:noinline
func stale(r Ref, gen *atomic.Uint32) {
	panic(&Violation{Op: "get", Ref: r, Want: r.gen(), Got: gen.Load() & genMask})
}

// TryGet is Get returning an error instead of panicking; intended for tests
// and debugging tools.
func (p *Pool[T]) TryGet(r Ref) (v *T, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			if viol, ok := rec.(*Violation); ok {
				v, err = nil, viol
				return
			}
			err = fmt.Errorf("mem: %v", rec)
		}
	}()
	return p.Get(r), nil
}

// Valid reports whether r currently resolves to a live slot.
func (p *Pool[T]) Valid(r Ref) bool {
	if r.IsNil() {
		return false
	}
	idx := r.index()
	sl := p.dir[idx>>slabShift].Load()
	if sl == nil {
		return false
	}
	return sl.slots[idx&slabMask].gen.Load()&genMask == r.gen()
}

// Alloc pops a free slot, marks it live, and returns its Ref and value
// pointer. The value is in its previous state unless Poison is set (freed
// slots are zeroed at Free time); callers initialize all fields before
// linking the node into a structure. Panics with *ErrExhausted at MaxSlots.
func (p *Pool[T]) Alloc() (Ref, *T) {
	for {
		if idx, ok := p.popFree(); ok {
			s := p.slotAt(idx)
			s.birth = p.era.Load() // before the gen bump makes the slot visible
			gen := s.gen.Add(1)    // even -> odd: live
			p.allocs.Add(1)
			return makeRef(idx, gen), &s.val
		}
		p.grow()
	}
}

// Free returns the slot named by r to the pool. It panics with *Violation on
// a double free or a stale reference. Tag bits must be cleared first.
func (p *Pool[T]) Free(r Ref) {
	if r.IsNil() {
		panic("mem: free of nil Ref")
	}
	idx := r.index()
	s := p.slotAt(idx)
	g := s.gen.Load()
	if g&genMask != r.gen() || g&1 == 0 {
		panic(&Violation{Op: "free", Ref: r, Want: r.gen(), Got: g & genMask})
	}
	if !s.gen.CompareAndSwap(g, g+1) { // odd -> even: free; CAS defeats racing double frees
		panic(&Violation{Op: "free", Ref: r, Want: r.gen(), Got: s.gen.Load() & genMask})
	}
	if p.cfg.Poison {
		poison(&s.val)
	}
	p.frees.Add(1)
	p.pushFree(idx)
}

// poison clears a freed slot so that a stale raw pointer reads cleared
// memory. An optimistic reader (Peek) may be loading the slot's atomic
// fields at that moment, and a plain store beside an atomic load is a data
// race: a node type with such readers supplies Scrub, which clears its
// atomic fields with atomic stores; any other type is assigned its zero.
func poison[T any](v *T) {
	if s, ok := any(v).(interface{ Scrub() }); ok {
		s.Scrub()
		return
	}
	var zero T
	*v = zero
}

func encodeIdx(idx uint32) uint64 {
	if idx == nilIdx {
		return 0
	}
	return uint64(idx) + 1
}

func decodeIdx(h uint64) uint32 {
	v := h & headIdxMask
	if v == 0 {
		return nilIdx
	}
	return uint32(v - 1)
}

func (p *Pool[T]) popFree() (uint32, bool) {
	for {
		h := p.freeHead.Load()
		idx := decodeIdx(h)
		if idx == nilIdx {
			return 0, false
		}
		next := p.slotAt(idx).next.Load()
		nh := (h>>headIdxBits+1)<<headIdxBits | encodeIdx(next)
		if p.freeHead.CompareAndSwap(h, nh) {
			return idx, true
		}
	}
}

func (p *Pool[T]) pushFree(idx uint32) {
	s := p.slotAt(idx)
	for {
		h := p.freeHead.Load()
		s.next.Store(decodeIdx(h))
		nh := (h>>headIdxBits+1)<<headIdxBits | encodeIdx(idx)
		if p.freeHead.CompareAndSwap(h, nh) {
			return
		}
	}
}

// pushFreeChain splices a pre-linked chain [first..last] onto the free list.
func (p *Pool[T]) pushFreeChain(first, last uint32) {
	lastSlot := p.slotAt(last)
	for {
		h := p.freeHead.Load()
		lastSlot.next.Store(decodeIdx(h))
		nh := (h>>headIdxBits+1)<<headIdxBits | encodeIdx(first)
		if p.freeHead.CompareAndSwap(h, nh) {
			return
		}
	}
}

func (p *Pool[T]) grow() {
	p.growMu.Lock()
	defer p.growMu.Unlock()
	// Another grower may have refilled the list while we waited.
	if decodeIdx(p.freeHead.Load()) != nilIdx {
		return
	}
	n := p.nSlabs.Load()
	if int(n) >= len(p.dir) {
		panic(&ErrExhausted{Name: p.cfg.Name})
	}
	sl := &slab[T]{slots: make([]slot[T], SlabSize)}
	base := n * SlabSize
	for i := 0; i < SlabSize-1; i++ {
		sl.slots[i].next.Store(base + uint32(i) + 1)
	}
	sl.slots[SlabSize-1].next.Store(nilIdx)
	p.dir[n].Store(sl)
	p.nSlabs.Store(n + 1)
	p.grows.Add(1)
	p.pushFreeChain(base, base+SlabSize-1)
}

// Era returns the pool's current birth-era clock. The clock only moves when
// AdvanceEra is called; a pool whose domain does not use interval-based
// reclamation stays at era 0 and every slot's birth stamp is 0.
func (p *Pool[T]) Era() uint64 { return p.era.Load() }

// AdvanceEra bumps the birth-era clock and returns the new value. Interval-
// based reclamation schemes call this on their retire/alloc cadence so that
// node lifetimes partition into disjoint eras.
func (p *Pool[T]) AdvanceEra() uint64 { return p.era.Add(1) }

// BirthEra returns the era stamped on r's slot at Alloc time. It is only
// meaningful while r is live: the caller must hold a protection (or otherwise
// know the slot cannot be recycled), exactly as for Get. Unlike Get it does
// not validate the generation — interval reclamation reads it at Retire time,
// when the retirer owns the node.
func (p *Pool[T]) BirthEra(r Ref) uint64 {
	if r.IsNil() {
		return 0
	}
	idx := r.index()
	sl := p.dir[idx>>slabShift].Load()
	if sl == nil {
		return 0
	}
	return sl.slots[idx&slabMask].birth
}

// Stats is a point-in-time snapshot of pool counters.
type Stats struct {
	Allocs uint64
	Frees  uint64
	Live   uint64 // Allocs - Frees
	Slabs  uint32
	Slots  uint64 // capacity currently backed by slabs
}

// Stats returns a snapshot of the pool's counters. Live is computed from
// racy reads of two counters and may be transiently off by in-flight ops.
func (p *Pool[T]) Stats() Stats {
	a, f := p.allocs.Load(), p.frees.Load()
	live := uint64(0)
	if a > f {
		live = a - f
	}
	n := p.nSlabs.Load()
	return Stats{Allocs: a, Frees: f, Live: live, Slabs: n, Slots: uint64(n) * SlabSize}
}
