package qsense

import (
	"context"

	"qsense/internal/bst"
	"qsense/internal/list"
	"qsense/internal/mem"
	"qsense/internal/queue"
	"qsense/internal/reclaim"
	"qsense/internal/skiplist"
	"qsense/internal/stack"
)

// SetHandle is a goroutine's leased view of a concurrent sorted set. All
// set-like containers (Set, SkipSet, TreeSet, HashSet) hand out SetHandles
// from Acquire. A handle must be used by one goroutine at a time and
// Released exactly once, when its goroutine is done with the container.
//
// Two structures reserve a few extreme int64 values as internal sentinel
// keys (math.MinInt64 and math.MaxInt64 for SkipSet, the top three values
// for TreeSet; Set and HashSet reserve none). Reserved keys are out of the
// container's domain:
// Contains and Delete report them absent and Insert rejects them with
// false — they are never stored and never corrupt the structure.
type SetHandle interface {
	// Contains reports whether key is in the set.
	Contains(key int64) bool
	// Insert adds key, reporting false if it was already present.
	Insert(key int64) bool
	// Delete removes key, reporting false if it was absent.
	Delete(key int64) bool
	// Release returns the handle's reclamation slot to the container so
	// another goroutine can Acquire it. The handle must not be used
	// afterwards; extra calls are no-ops.
	Release()
}

// setOps is the scheme-agnostic operation surface the structure packages
// implement; the containers wrap it with lease bookkeeping.
type setOps interface {
	Contains(key int64) bool
	Insert(key int64) bool
	Delete(key int64) bool
}

// leasedSet is a structure handle for the length of one lease.
type leasedSet struct {
	setOps
	lease
}

// leaseCore carries the domain plumbing shared by every leased container:
// guard leasing, the per-slot structure handle, stats and close. It is
// generic over the structure's operation surface O and the public handle
// type H that wraps it for one lease, so the sets (setOps, SetHandle), the
// map (mapOps, MapHandle), Queue and Stack run on one machinery; a
// container adds only its constructor and Len.
//
// A slot's structure handle is built on the slot's first lease and kept,
// as a *O, in the slot's client cell (reclaim.SlotClient), so every later
// tenant reuses it and the Acquire hot path allocates no structure state
// (for SkipSet that includes its preds/succs buffers). Slot w's guard is a
// stable object, so the handle's guard binding stays correct across
// tenants.
type leaseCore[O, H any] struct {
	d    reclaim.Domain
	mk   func(g reclaim.Guard, seed uint64) O
	wrap func(ops O, d reclaim.Domain, g reclaim.Guard) H
}

func newLeaseCore[O, H any](opts Options, hps int, free func(mem.Ref), era reclaim.EraSource,
	mk func(g reclaim.Guard, seed uint64) O, wrap func(O, reclaim.Domain, reclaim.Guard) H) (*leaseCore[O, H], error) {
	d, err := newDomain(withHPs(opts, hps), free, era)
	if err != nil {
		return nil, err
	}
	return &leaseCore[O, H]{d: d.d, mk: mk, wrap: wrap}, nil
}

// Acquire leases a handle for the calling goroutine, growing the guard
// arena when all slots are in use. It returns ErrNoSlots only at an
// Options.HardMaxWorkers cap; AcquireWait blocks there instead.
func (c *leaseCore[O, H]) Acquire() (H, error) {
	return c.leased(c.d.Acquire())
}

// AcquireWait is Acquire that blocks while every slot is leased, woken by
// the next Release. It returns ctx.Err() if ctx is done before a slot
// frees; with context.Background() it waits indefinitely.
func (c *leaseCore[O, H]) AcquireWait(ctx context.Context) (H, error) {
	return c.leased(c.d.AcquireWait(ctx))
}

// leased wraps slot g's cached structure handle, built on the slot's first
// lease, for the new tenant. Seeds derive from the slot index (stable,
// distinct).
func (c *leaseCore[O, H]) leased(g reclaim.Guard, err error) (H, error) {
	if err != nil {
		var none H
		return none, err
	}
	cell := reclaim.SlotClient(g)
	p, built := (*cell).(*O)
	if !built {
		ops := c.mk(g, uint64(reclaim.SlotIndex(g))+1)
		p = &ops
		*cell = p
	}
	return c.wrap(*p, c.d, g), nil
}

// Stats returns the reclamation counters.
func (c *leaseCore[O, H]) Stats() Stats { return Stats(c.d.Stats()) }

// Close reclaims all pending memory and stops background machinery. Call
// only after all workers have stopped.
func (c *leaseCore[O, H]) Close() { c.d.Close() }

// setCore is leaseCore for the four set containers.
type setCore = leaseCore[setOps, SetHandle]

func newSetCore(opts Options, hps int, free func(mem.Ref), era reclaim.EraSource, mk func(g reclaim.Guard, seed uint64) setOps) (*setCore, error) {
	return newLeaseCore(opts, hps, free, era, mk, func(ops setOps, d reclaim.Domain, g reclaim.Guard) SetHandle {
		return &leasedSet{setOps: ops, lease: lease{d: d, g: g}}
	})
}

func withHPs(opts Options, hps int) Options {
	if opts.HPs < hps {
		opts.HPs = hps
	}
	return opts
}

// Set is a lock-free sorted set backed by the Harris–Michael linked list —
// right for small key ranges and cheap iteration-free membership.
type Set struct {
	*setCore
	l *list.List
}

// NewSet builds a linked-list set wired to a reclamation domain.
func NewSet(opts Options) (*Set, error) {
	l := list.New(list.Config{MaxSlots: opts.MaxNodes})
	core, err := newSetCore(opts, list.HPs, l.FreeNode, l.Pool(),
		func(g reclaim.Guard, _ uint64) setOps { return l.NewHandle(g) })
	if err != nil {
		return nil, err
	}
	return &Set{setCore: core, l: l}, nil
}

// Len counts elements; only meaningful while no workers are active.
func (s *Set) Len() int { return s.l.Len() }

// SkipSet is a lock-free sorted set backed by the Fraser skip list —
// logarithmic operations over large key ranges.
type SkipSet struct {
	*setCore
	s *skiplist.SkipList
}

// NewSkipSet builds a skip-list set wired to a reclamation domain.
func NewSkipSet(opts Options) (*SkipSet, error) {
	sl := skiplist.New(skiplist.Config{MaxSlots: opts.MaxNodes})
	core, err := newSetCore(opts, skiplist.HPsFor(sl.Levels()), sl.FreeNode, sl.Pool(),
		func(g reclaim.Guard, seed uint64) setOps { return sl.NewHandle(g, seed*0x9E3779B9+1) })
	if err != nil {
		return nil, err
	}
	return &SkipSet{setCore: core, s: sl}, nil
}

// Len counts elements; only meaningful while no workers are active.
func (s *SkipSet) Len() int { return s.s.Len() }

// MapHandle is a goroutine's leased view of a concurrent ordered key→value
// map. Like SetHandle, it must be used by one goroutine at a time and
// Released exactly once when its goroutine is done with the container.
//
// math.MinInt64 and math.MaxInt64 are the skip list's sentinel keys and
// out of the map's domain: Get and Delete report them absent, Put rejects
// them with false without storing anything. Callers exposing the map to
// untrusted key sources (as qsense-kvd does) should reject them up front
// for a clearer error.
type MapHandle interface {
	// Get returns a copy of key's value bytes.
	Get(key int64) (val []byte, ok bool)
	// GetAppend appends key's value to dst and returns the extended
	// slice — the allocation-free read path.
	GetAppend(key int64, dst []byte) ([]byte, bool)
	// Put sets key's value to a copy of val: true if key was newly
	// inserted, false if an existing key's value was replaced (the
	// displaced value is retired through the map's reclamation domain).
	// Values up to 7 bytes are stored inline in the node's value word; a
	// longer first value lives in the key's own node, and a longer
	// replacement spills to a reclaimed value node.
	Put(key int64, val []byte) bool
	// PutUint64 sets key's value to val's minimal little-endian
	// encoding — the uint64 fast path (values below 2^56 never
	// allocate). It interoperates with Put/Get of the same bytes.
	PutUint64(key int64, val uint64) bool
	// GetUint64 returns key's value decoded as a little-endian uint64
	// (the first 8 bytes, for longer values).
	GetUint64(key int64) (uint64, bool)
	// Delete removes key, reporting false if it was absent. The removed
	// value is retired through the domain alongside the node.
	Delete(key int64) bool
	// Prefetch loads into the cache what the next operations on keys
	// will touch first, all keys' misses at once, so that a batch of
	// operations does not wait out one cache miss after another. It
	// changes nothing and answers nothing: a batch that calls it and then
	// runs its operations gets the same results as one that does not.
	Prefetch(keys []int64)
	// Leave takes the handle out of reclamation while its goroutine waits
	// on something other than the map (a socket read, a queue), keeping
	// the lease: under QSBR and QSense an idle handle otherwise holds
	// back every grace period, and QSense's fast path with them. Call it
	// between operations, never inside one; call Join before the next
	// operation. The pair behaves as Guard.Leave and Guard.Join do, and
	// is a no-op on schemes without epoch membership.
	Leave()
	// Join brings a handle that Left back into reclamation before its
	// next operation. It is not counted in Stats.Rejoins.
	Join()
	// Release returns the handle's reclamation slot to the container so
	// another goroutine can Acquire it. The handle must not be used
	// afterwards; extra calls are no-ops.
	Release()
}

// mapOps is the operation surface of a value-carrying structure; the map
// containers wrap it with lease bookkeeping, as setOps for the sets.
// The method names are the structure handle's (skiplist.Handle): Put/Get
// move uint64 words, PutBytes/GetAppend move byte payloads.
type mapOps interface {
	Get(key int64) (uint64, bool)
	Put(key int64, val uint64) bool
	GetAppend(key int64, dst []byte) ([]byte, bool)
	PutBytes(key int64, val []byte) bool
	Delete(key int64) bool
	Prefetch(keys []int64)
}

// leasedMap is a map structure handle for the length of one lease, adapting
// the structure's method names to the public MapHandle surface.
type leasedMap struct {
	ops mapOps
	lease
}

func (h *leasedMap) Get(key int64) ([]byte, bool) { return h.ops.GetAppend(key, nil) }
func (h *leasedMap) GetAppend(key int64, dst []byte) ([]byte, bool) {
	return h.ops.GetAppend(key, dst)
}
func (h *leasedMap) Put(key int64, val []byte) bool       { return h.ops.PutBytes(key, val) }
func (h *leasedMap) PutUint64(key int64, val uint64) bool { return h.ops.Put(key, val) }
func (h *leasedMap) GetUint64(key int64) (uint64, bool)   { return h.ops.Get(key) }
func (h *leasedMap) Delete(key int64) bool                { return h.ops.Delete(key) }
func (h *leasedMap) Prefetch(keys []int64)                { h.ops.Prefetch(keys) }

// SkipMap is a lock-free sorted key→value map: the Fraser skip list of
// SkipSet with a per-node value word. It is the structure qsense-kvd
// serves over TCP — a goroutine-per-connection server Acquires one handle
// per connection (AcquireWait under a HardMaxWorkers admission cap) and
// the guard arena grows and parks with the connection count.
type SkipMap struct {
	*leaseCore[mapOps, MapHandle]
	s *skiplist.SkipList
}

// NewSkipMap builds a skip-list map wired to a reclamation domain.
func NewSkipMap(opts Options) (*SkipMap, error) {
	sl := skiplist.New(skiplist.Config{MaxSlots: opts.MaxNodes})
	lc, err := newLeaseCore(opts, skiplist.HPsFor(sl.Levels()), sl.FreeNode, sl.Pool(),
		func(g reclaim.Guard, seed uint64) mapOps { return sl.NewHandle(g, seed*0x9E3779B9+1) },
		func(ops mapOps, d reclaim.Domain, g reclaim.Guard) MapHandle {
			return &leasedMap{ops: ops, lease: lease{d: d, g: g}}
		})
	if err != nil {
		return nil, err
	}
	return &SkipMap{leaseCore: lc, s: sl}, nil
}

// Len counts entries; only meaningful while no workers are active.
func (m *SkipMap) Len() int { return m.s.Len() }

// ValueStats is a snapshot of a SkipMap's value-arena gauges: how many
// payload bytes are live, how many values are too long to inline, and how
// the retire traffic splits between value nodes and
// structural (link-bearing) nodes. Under update-heavy workloads
// ValueRetires dominates StructRetires — the regime the reclamation
// schemes are benchmarked in.
type ValueStats struct {
	Bytes         int64  // live value payload bytes
	Spilled       int64  // live values over 7 bytes (own node or value node)
	ValueRetires  uint64 // value nodes retired through the domain
	StructRetires uint64 // structural nodes retired through the domain
}

// Values returns the map's value-arena gauges. Gauges are maintained with
// racy atomics and may be transiently off by in-flight operations.
func (m *SkipMap) Values() ValueStats {
	vs := m.s.ValueStats()
	return ValueStats{
		Bytes:         vs.Bytes,
		Spilled:       vs.Spilled,
		ValueRetires:  vs.ValueRetires,
		StructRetires: vs.StructRetires,
	}
}

// TreeSet is a lock-free sorted set backed by the Natarajan–Mittal
// external binary search tree — the paper's third workload.
type TreeSet struct {
	*setCore
	t *bst.Tree
}

// NewTreeSet builds a BST set wired to a reclamation domain.
func NewTreeSet(opts Options) (*TreeSet, error) {
	tr := bst.New(bst.Config{MaxSlots: opts.MaxNodes})
	core, err := newSetCore(opts, bst.HPs, tr.FreeNode, tr.Pool(),
		func(g reclaim.Guard, _ uint64) setOps { return tr.NewHandle(g) })
	if err != nil {
		return nil, err
	}
	return &TreeSet{setCore: core, t: tr}, nil
}

// Len counts elements; only meaningful while no workers are active.
func (s *TreeSet) Len() int { return s.t.Len() }

// HashSet is a lock-free hash set backed by Michael's hash table (a fixed
// array of list.HashBuckets Harris–Michael chains: Set's list, with more
// buckets) — constant-time membership.
type HashSet struct {
	*setCore
	l *list.List
}

// NewHashSet builds a hash set wired to a reclamation domain.
func NewHashSet(opts Options) (*HashSet, error) {
	l := list.New(list.Config{Buckets: list.HashBuckets, MaxSlots: opts.MaxNodes})
	core, err := newSetCore(opts, list.HPs, l.FreeNode, l.Pool(),
		func(g reclaim.Guard, _ uint64) setOps { return l.NewHandle(g) })
	if err != nil {
		return nil, err
	}
	return &HashSet{setCore: core, l: l}, nil
}

// Len counts elements; only meaningful while no workers are active.
func (s *HashSet) Len() int { return s.l.Len() }

// Queue is a lock-free FIFO queue (Michael–Scott) of uint64 values.
type Queue struct {
	*leaseCore[*queue.Handle, QueueHandle]
	q *queue.Queue
}

// NewQueue builds a queue wired to a reclamation domain.
func NewQueue(opts Options) (*Queue, error) {
	q := queue.New(queue.Config{MaxSlots: opts.MaxNodes})
	lc, err := newLeaseCore(opts, queue.HPs, q.FreeNode, q.Pool(),
		func(g reclaim.Guard, _ uint64) *queue.Handle { return q.NewHandle(g) },
		func(h *queue.Handle, d reclaim.Domain, g reclaim.Guard) QueueHandle {
			return QueueHandle{h: h, l: &lease{d: d, g: g}}
		})
	if err != nil {
		return nil, err
	}
	return &Queue{leaseCore: lc, q: q}, nil
}

// QueueHandle is a goroutine's leased view of a Queue. A handle must be
// used by one goroutine at a time and Released when done.
type QueueHandle struct {
	h *queue.Handle
	l *lease
}

// Enqueue appends v at the tail.
func (h QueueHandle) Enqueue(v uint64) { h.h.Enqueue(v) }

// Dequeue removes and returns the oldest value; ok=false when empty.
func (h QueueHandle) Dequeue() (v uint64, ok bool) { return h.h.Dequeue() }

// Release returns the handle's reclamation slot to the queue. The handle
// must not be used afterwards; extra calls are no-ops.
func (h QueueHandle) Release() { h.l.Release() }

// Len counts elements; only meaningful while no workers are active.
func (q *Queue) Len() int { return q.q.Len() }

// Stack is a lock-free LIFO stack (Treiber) of uint64 values.
type Stack struct {
	*leaseCore[*stack.Handle, StackHandle]
	s *stack.Stack
}

// NewStack builds a stack wired to a reclamation domain.
func NewStack(opts Options) (*Stack, error) {
	s := stack.New(stack.Config{MaxSlots: opts.MaxNodes})
	lc, err := newLeaseCore(opts, stack.HPs, s.FreeNode, s.Pool(),
		func(g reclaim.Guard, _ uint64) *stack.Handle { return s.NewHandle(g) },
		func(h *stack.Handle, d reclaim.Domain, g reclaim.Guard) StackHandle {
			return StackHandle{h: h, l: &lease{d: d, g: g}}
		})
	if err != nil {
		return nil, err
	}
	return &Stack{leaseCore: lc, s: s}, nil
}

// StackHandle is a goroutine's leased view of a Stack. A handle must be
// used by one goroutine at a time and Released when done.
type StackHandle struct {
	h *stack.Handle
	l *lease
}

// Push adds v on top.
func (h StackHandle) Push(v uint64) { h.h.Push(v) }

// Pop removes and returns the top value; ok=false when empty.
func (h StackHandle) Pop() (v uint64, ok bool) { return h.h.Pop() }

// Release returns the handle's reclamation slot to the stack. The handle
// must not be used afterwards; extra calls are no-ops.
func (h StackHandle) Release() { h.l.Release() }

// Len counts elements; only meaningful while no workers are active.
func (s *Stack) Len() int { return s.s.Len() }
