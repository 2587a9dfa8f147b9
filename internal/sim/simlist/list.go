// Package simlist is the Harris–Michael lock-free sorted linked list
// (paper reference [24], Appendix B) running on the TSO machine simulator —
// the structure under which simsmr's conformance, stall and pending-bound
// tests run the schemes. It guards that proof and measures nothing.
//
// It mirrors internal/list exactly: nodes carry (key, next) with the
// logical-deletion mark in the next word's low tag bit, and every traversal
// follows the §3.2 hazard pointer methodology — read link, Protect, re-read
// to validate, only then dereference. Because node fields live in simulated
// memory, a scheme that frees too early produces a *mem.Violation (the
// simulator's segfault) in the reader, not a silent wrong answer.
package simlist

import (
	"fmt"

	"qsense/internal/mem"
	"qsense/internal/sim"
	"qsense/internal/sim/simmem"
	"qsense/internal/sim/simsmr"
)

// HPs is the number of hazard pointers a handle uses: prev, cur, next.
const HPs = 3

const (
	hpPrev = 0
	hpCur  = 1

	fKey  = 0
	fNext = 1

	markBit = 1

	headKey = uint64(0)
	tailKey = ^uint64(0)
)

// Fields is the number of simulated words per node.
const Fields = 2

// List is the shared structure. Build with New during machine setup.
type List struct {
	pool *simmem.Pool
	head mem.Ref
	tail mem.Ref
}

// New creates an empty list backed by a fresh pool of the given node
// capacity (two slots go to the sentinels). Valid user keys lie in
// [1, 2^64-2].
func New(m *sim.Machine, capacity int) *List {
	pool := simmem.NewPool(m, capacity, Fields, "simlist")
	l := &List{pool: pool}
	l.tail = pool.AllocHost()
	pool.PokeField(l.tail, fKey, tailKey)
	pool.PokeField(l.tail, fNext, 0)
	l.head = pool.AllocHost()
	pool.PokeField(l.head, fKey, headKey)
	pool.PokeField(l.head, fNext, uint64(l.tail))
	return l
}

// Pool exposes the node pool (stats, Free hookup).
func (l *List) Pool() *simmem.Pool { return l.pool }

// FillHost inserts keys host-side during setup (cost-free, pre-Run).
// Returns how many were new.
func (l *List) FillHost(keys []uint64) int {
	added := 0
	for _, k := range keys {
		if l.insertHost(k) {
			added++
		}
	}
	return added
}

func (l *List) insertHost(key uint64) bool {
	if key <= headKey || key >= tailKey {
		panic(fmt.Sprintf("simlist: key %d out of range", key))
	}
	prev := l.head
	cur := mem.Ref(l.pool.PeekField(prev, fNext)).Untagged()
	for l.pool.PeekField(cur, fKey) < key {
		prev = cur
		cur = mem.Ref(l.pool.PeekField(cur, fNext)).Untagged()
	}
	if l.pool.PeekField(cur, fKey) == key {
		return false
	}
	n := l.pool.AllocHost()
	l.pool.PokeField(n, fKey, key)
	l.pool.PokeField(n, fNext, uint64(cur))
	l.pool.PokeField(prev, fNext, uint64(n))
	return true
}

// Keys walks the drained list host-side (post-Run validation).
func (l *List) Keys() []uint64 {
	var ks []uint64
	r := mem.Ref(l.pool.PeekField(l.head, fNext)).Untagged()
	for r != l.tail {
		w := l.pool.PeekField(r, fNext)
		if w&markBit == 0 {
			ks = append(ks, l.pool.PeekField(r, fKey))
		}
		r = mem.Ref(w).Untagged()
	}
	return ks
}

// Validate checks structural invariants host-side: strictly increasing
// unmarked keys, proper tail termination. Returns the unmarked node count
// and an error description ("" if sound).
func (l *List) Validate() (int, string) {
	prevKey := headKey
	n := 0
	r := mem.Ref(l.pool.PeekField(l.head, fNext)).Untagged()
	for r != l.tail {
		if r.IsNil() {
			return n, "nil link before tail sentinel"
		}
		if !l.pool.Valid(r) {
			return n, "reachable node is not live (freed while linked)"
		}
		w := l.pool.PeekField(r, fNext)
		if w&markBit == 0 {
			k := l.pool.PeekField(r, fKey)
			if k <= prevKey {
				return n, "keys not strictly increasing"
			}
			prevKey = k
			n++
		}
		r = mem.Ref(w).Untagged()
	}
	return n, ""
}

// CountReachable walks the drained list host-side and returns the number of
// live nodes reachable from head, sentinels and marked nodes included —
// this must equal the pool's live count once every retired node has been
// collected (leak check).
func (l *List) CountReachable() int {
	n := 1 // head
	r := mem.Ref(l.pool.PeekField(l.head, fNext)).Untagged()
	for !r.IsNil() {
		n++
		if r == l.tail {
			break
		}
		r = mem.Ref(l.pool.PeekField(r, fNext)).Untagged()
	}
	return n
}

// Handle is one proc's accessor: guard + proc context. Use only from the
// proc's program.
type Handle struct {
	l *List
	p *sim.Proc
	g simsmr.Guard
}

// NewHandle binds proc p's guard to the list.
func (l *List) NewHandle(p *sim.Proc, g simsmr.Guard) *Handle {
	return &Handle{l: l, p: p, g: g}
}

// search locates the first node with key >= key, unlinking (and retiring)
// marked nodes it passes — the paper's search_and_cleanup (Algorithm 7).
// On return prev and cur are protected, prev.key < key <= cur.key.
func (h *Handle) search(key uint64) (prev, cur mem.Ref) {
	pool := h.l.pool
retry:
	for {
		prev = h.l.head
		h.g.Protect(hpPrev, prev)
		cur = mem.Ref(pool.Load(h.p, prev, fNext)).Untagged()
		for {
			// Protect cur, then validate the link it came from
			// (§3.2 step 4). hp pays a fence here; cadence/qsense
			// do not — that is the experiment.
			h.g.Protect(hpCur, cur)
			if mem.Ref(pool.Load(h.p, prev, fNext)) != cur {
				continue retry
			}
			nextWord := pool.Load(h.p, cur, fNext)
			next := mem.Ref(nextWord).Untagged()
			if nextWord&markBit != 0 {
				// cur is logically deleted: splice it out; the
				// unlinker retires it.
				if _, ok := pool.CAS(h.p, prev, fNext, uint64(cur), uint64(next)); !ok {
					continue retry
				}
				h.g.Retire(cur)
				cur = next
				continue
			}
			if pool.Load(h.p, cur, fKey) >= key {
				return prev, cur
			}
			prev = cur
			h.g.Protect(hpPrev, prev)
			cur = next
		}
	}
}

// Contains reports whether key is in the set.
func (h *Handle) Contains(key uint64) bool {
	h.g.Begin()
	_, cur := h.search(key)
	found := h.l.pool.Load(h.p, cur, fKey) == key
	h.g.ClearHPs()
	return found
}

// Insert adds key; false if already present.
func (h *Handle) Insert(key uint64) bool {
	if key <= headKey || key >= tailKey {
		panic(fmt.Sprintf("simlist: key %d out of range", key))
	}
	h.g.Begin()
	defer h.g.ClearHPs()
	pool := h.l.pool
	var nref mem.Ref
	for {
		prev, cur := h.search(key)
		if pool.Load(h.p, cur, fKey) == key {
			if !nref.IsNil() {
				pool.Free(h.p, nref) // allocated, never linked
			}
			return false
		}
		if nref.IsNil() {
			nref = pool.Alloc(h.p)
			pool.Store(h.p, nref, fKey, key)
		}
		pool.Store(h.p, nref, fNext, uint64(cur))
		// The linking CAS is a full fence, draining the node
		// initialization stores — publication is safe on TSO.
		if _, ok := pool.CAS(h.p, prev, fNext, uint64(cur), uint64(nref)); ok {
			return true
		}
	}
}

// Delete removes key; false if absent. Two-phase: mark (logical), then
// unlink (physical); the unlinker retires.
func (h *Handle) Delete(key uint64) bool {
	h.g.Begin()
	defer h.g.ClearHPs()
	pool := h.l.pool
	for {
		prev, cur := h.search(key)
		if pool.Load(h.p, cur, fKey) != key {
			return false
		}
		nextWord := pool.Load(h.p, cur, fNext)
		if nextWord&markBit != 0 {
			continue // another deleter won; help via search and retry
		}
		if _, ok := pool.CAS(h.p, cur, fNext, nextWord, nextWord|markBit); !ok {
			continue
		}
		if _, ok := pool.CAS(h.p, prev, fNext, uint64(cur), nextWord); ok {
			h.g.Retire(cur)
		} else {
			h.search(key) // cleanup pass unlinks and retires
		}
		return true
	}
}
