package qsense

import (
	"context"
	"sync/atomic"

	"qsense/internal/mem"
	"qsense/internal/reclaim"
)

// Ref is a generation-tagged handle to a node in a Pool — the library's
// replacement for a raw pointer. The zero Ref is nil. Two low tag bits are
// reserved for the data structure (deletion marks and the like), exactly
// as C implementations pack flags into pointer low bits; clear them with
// Untagged before resolving.
//
// Unlike a raw pointer, a Ref to a freed (and possibly reallocated) node
// is detectable: resolving it panics with a use-after-free violation
// instead of reading someone else's memory.
type Ref uint64

// TagBits is the number of low bits of a Ref reserved for structure use.
const TagBits = mem.TagBits

// IsNil reports whether r refers to no node (ignoring tag bits).
func (r Ref) IsNil() bool { return mem.Ref(r).IsNil() }

// Untagged returns r with the structure tag bits cleared.
func (r Ref) Untagged() Ref { return Ref(mem.Ref(r).Untagged()) }

// Tag returns the structure tag bits of r.
func (r Ref) Tag() uint64 { return mem.Ref(r).Tag() }

// WithTag returns r with the given tag bits set (existing tags cleared).
func (r Ref) WithTag(tag uint64) Ref { return Ref(mem.Ref(r).WithTag(tag)) }

// Pool is a typed node allocator for custom structures. Alloc hands out
// Refs; Free (usually called by the Domain, not the application) recycles
// the slot and invalidates outstanding Refs. Safe for concurrent use.
type Pool[T any] struct {
	p *mem.Pool[T]
}

// PoolOptions configures a Pool.
type PoolOptions struct {
	// MaxNodes bounds the pool; Alloc panics once it is reached
	// (malloc returning NULL). 0 = library default.
	MaxNodes int
	// Name appears in violation messages.
	Name string
}

// NewPool creates an empty pool of T nodes.
func NewPool[T any](opts PoolOptions) *Pool[T] {
	return &Pool[T]{p: mem.NewPool[T](mem.Config{MaxSlots: opts.MaxNodes, Name: opts.Name})}
}

// Alloc returns a fresh node and its Ref. Initialize every field before
// publishing the Ref to other workers.
func (p *Pool[T]) Alloc() (Ref, *T) {
	r, v := p.p.Alloc()
	return Ref(r), v
}

// Get resolves r. It panics with a use-after-free violation if r is stale
// and with a nil-dereference message if r is nil. Tag bits must be cleared
// (Untagged).
func (p *Pool[T]) Get(r Ref) *T { return p.p.Get(mem.Ref(r)) }

// Valid reports whether r currently resolves to a live node.
func (p *Pool[T]) Valid(r Ref) bool { return p.p.Valid(mem.Ref(r)) }

// Free returns r's node to the pool directly — only for nodes that were
// never reachable by other workers (e.g. a lost insertion race); anything
// that was shared goes through Guard.Retire instead.
func (p *Pool[T]) Free(r Ref) { p.p.Free(mem.Ref(r)) }

// Live returns the number of currently allocated nodes.
func (p *Pool[T]) Live() uint64 { return p.p.Stats().Live }

// FreeFunc adapts the pool's Free for NewDomain.
func (p *Pool[T]) FreeFunc() func(Ref) { return func(r Ref) { p.p.Free(mem.Ref(r)) } }

// Era returns the pool's current era — *Pool[T] implements EraSource, so a
// custom structure passes its pool as Options.Era under SchemeIBR.
func (p *Pool[T]) Era() uint64 { return p.p.Era() }

// AdvanceEra increments the pool's era clock and returns the new value.
// The domain drives this; structures normally never call it.
func (p *Pool[T]) AdvanceEra() uint64 { return p.p.AdvanceEra() }

// BirthEra returns the era r's node was allocated in (0 for nil).
func (p *Pool[T]) BirthEra(r Ref) uint64 { return p.p.BirthEra(mem.Ref(r)) }

// Domain manages safe memory reclamation for one custom structure. Create
// with NewDomain; each goroutine leases a Guard with Acquire and returns it
// with Release when done. The guard arena starts at Options.MaxWorkers and
// grows on demand, so concurrent leases are unbounded unless
// Options.HardMaxWorkers caps them.
type Domain struct {
	d reclaim.Domain
}

// NewDomain builds a reclamation domain for a custom structure. free
// returns a retired node's memory to its pool (Pool.FreeFunc). Options.HPs
// must cover the structure's maximum simultaneous protections per worker.
// Under SchemeIBR, set Options.Era to the structure's pool so era stamps
// reflect true node lifetimes.
func NewDomain(opts Options, free func(Ref)) (*Domain, error) {
	return newDomain(opts, func(r mem.Ref) { free(Ref(r)) }, nil)
}

// newDomain is NewDomain with the era clock injectable from the internal
// layer: the containers pass their structure's own *mem.Pool (which
// implements reclaim.EraSource directly), and that authoritative source
// wins over any Options.Era the caller set — the container's nodes live in
// the container's pool, so only that pool's clock stamps them.
func newDomain(opts Options, free func(mem.Ref), era reclaim.EraSource) (*Domain, error) {
	hps := opts.HPs
	if hps <= 0 {
		hps = 2
	}
	cfg := opts.reclaimConfig(hps, free)
	if era != nil {
		cfg.Era = era
	}
	d, err := reclaim.New(opts.scheme(), cfg)
	if err != nil {
		return nil, err
	}
	return &Domain{d: d}, nil
}

// Acquire leases a guard slot to the calling goroutine, growing the
// domain's arena when every slot is in use — by default it does not fail.
// The scheme's join path runs underneath (epoch adoption, aged-limbo
// reclamation), so guards recycled from earlier workers resume cleanly.
// With Options.HardMaxWorkers set it returns ErrNoSlots at the cap;
// callers may then retry after another goroutine Releases, or use
// AcquireWait to block instead.
func (d *Domain) Acquire() (Guard, error) {
	return d.leased(d.d.Acquire())
}

// AcquireWait is Acquire that blocks while the arena is exhausted at an
// Options.HardMaxWorkers cap: the caller parks on the domain's waiter
// channel and is woken by the next Release — no ErrNoSlots retry loop
// needed. It returns ctx.Err() if ctx is done before a slot frees; with
// context.Background() it waits indefinitely. On an elastic domain (no
// hard cap) it behaves exactly like Acquire — growth preempts waiting.
func (d *Domain) AcquireWait(ctx context.Context) (Guard, error) {
	return d.leased(d.d.AcquireWait(ctx))
}

func (d *Domain) leased(g reclaim.Guard, err error) (Guard, error) {
	if err != nil {
		return Guard{}, err
	}
	return Guard{g: g, l: &lease{d: d.d, g: g}}, nil
}

// Stats returns a snapshot of the domain's counters.
func (d *Domain) Stats() Stats { return Stats(d.d.Stats()) }

// Failed reports whether the domain breached Options.MemoryLimit.
func (d *Domain) Failed() bool { return d.d.Failed() }

// Close stops background machinery and frees every node still awaiting
// reclamation. Call only after all workers have stopped.
func (d *Domain) Close() { d.d.Close() }

// lease is one tenancy of a guard slot — what every public handle kind
// (Guard, SetHandle, MapHandle, QueueHandle, StackHandle) holds besides its
// operations, and the one place a slot is given back.
type lease struct {
	d        reclaim.Domain
	g        reclaim.Guard
	released atomic.Bool
}

// Release returns the slot exactly once. The once-flag matters: the slot
// may be re-leased to another goroutine the moment it is released, so a
// second Release must not touch it. A nil lease (the zero value of a
// public handle type) releases nothing.
func (l *lease) Release() {
	if l == nil || !l.released.CompareAndSwap(false, true) {
		return
	}
	l.d.Release(l.g)
}

// Leave and Join are the one implementation of the park protocol behind
// Guard.Leave/Join and MapHandle.Leave/Join (reclaim.Leaver; no-ops on
// schemes without epoch membership).
func (l *lease) Leave() {
	if m, ok := l.g.(reclaim.Leaver); ok {
		m.Leave()
	}
}

func (l *lease) Join() {
	if m, ok := l.g.(reclaim.Leaver); ok {
		m.Join()
	}
}

// Guard is a worker's reclamation handle — the paper's three-call
// interface (§4.2). Methods must be called only by the owning worker.
// Guards are leased from Domain.Acquire; call Release when done. The zero
// Guard is invalid.
type Guard struct {
	g reclaim.Guard
	l *lease
}

// Begin is the paper's manage_qsense_state: call it at a point where the
// worker holds no references to shared nodes, conventionally at the start
// of every structure operation.
func (g Guard) Begin() { g.g.Begin() }

// Protect is the paper's assign_HP: publish slot i as protecting r. After
// Protect returns, re-validate the link r was loaded from and retry the
// operation if it changed — that re-validation is what makes the
// protection sound (§3.2).
func (g Guard) Protect(i int, r Ref) { g.g.Protect(i, mem.Ref(r)) }

// Retire is the paper's free_node_later: hand over a node that has been
// unlinked from the structure; the scheme frees it once no worker can
// hold it.
func (g Guard) Retire(r Ref) { g.g.Retire(mem.Ref(r)) }

// End releases all of this guard's protections; call at the end of an
// operation.
func (g Guard) End() { g.g.ClearHPs() }

// Release returns a leased guard's slot to the domain: protections are
// drained, epoch schemes Leave (the slot stops blocking grace periods and
// QSense's presence scan), and the slot becomes available to other
// goroutines' Acquires. Retired nodes whose grace period has not yet
// elapsed are moved to the domain's orphan list and freed later by other
// workers' reclamation passes (see Stats.OrphanedNodes/AdoptedNodes) — a
// released slot never strands memory, even if it is never leased again.
// Call exactly once, from the owning goroutine, at a
// point where the worker holds no references to shared nodes; the guard
// must not be used afterwards. Extra calls are no-ops.
func (g Guard) Release() { g.l.Release() }

// Leave removes this worker from grace-period accounting while it parks
// (blocking I/O, waiting on a queue) without giving up its slot. Call only
// at a point where the worker holds no references to shared nodes, and
// Join before operating again. On schemes without epoch membership (HP,
// Cadence, RC, None) Leave is a no-op — those schemes never wait on an
// idle worker in the first place.
func (g Guard) Leave() { g.l.Leave() }

// Join re-enters the protocol after Leave: the guard adopts the current
// epoch, and limbo buckets that aged out while away are freed wholesale.
// It is the same quiet re-entry a lease makes, so it counts no
// Stats.Rejoins. No-op on schemes without epoch membership.
func (g Guard) Join() { g.l.Join() }
