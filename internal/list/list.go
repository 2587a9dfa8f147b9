// Package list implements the lock-free sorted linked list the paper
// evaluates and the hash table built from it (Michael, "High performance
// dynamic lock-free hash tables and list-based sets", SPAA 2002 — reference
// [24]; the paper's Appendix B shows exactly this list wired to QSense).
//
// One chain engine serves both. A List is a power-of-two array of bucket
// head words over one node pool, each bucket an ordered Harris–Michael
// chain in Michael's sentinel-free form: a chain starts at its bucket word
// and ends at a nil link, so every int64 is an ordinary key. With one bucket
// it is the sorted list (Config's default); with HashBuckets it is Michael's
// hash table — the same chains, only shorter.
//
// Nodes live in a mem.Pool and link through tagged Refs: bit 0 of a node's
// next word is the logical-deletion mark. All traversals follow the hazard
// pointer methodology of §3.2: read a link, Protect the target, re-read the
// link to validate, only then dereference. With QSBR guards Protect is a
// no-op and the epoch machinery provides safety; the code is scheme-agnostic
// exactly as the paper's interface intends.
package list

import (
	"math/bits"
	"sync/atomic"

	"qsense/internal/mem"
	"qsense/internal/reclaim"
)

// HPs is the number of hazard pointers a list handle uses: prev, cur, next.
const HPs = 3

// HashBuckets is the bucket count of the hash table (qsense.NewHashSet and
// the harness's "hashmap"): a constant, not an option.
const HashBuckets = 1024

const (
	hpPrev = 0
	hpCur  = 1
	hpNext = 2

	markBit = 1 // low Ref tag bit: target of this link is logically deleted
)

// node is padded so one node fills a cache line together with its slot
// header, as ASCYLIB does for its C nodes.
type node struct {
	key  int64
	next atomic.Uint64 // mem.Ref of successor | markBit
	_    [40]byte
}

// Config controls list construction.
type Config struct {
	// Buckets is rounded up to a power of two. Default 1: the sorted list.
	Buckets int
	// MaxSlots bounds the node pool (default mem default).
	MaxSlots int
	// Poison zeroes freed nodes (tests).
	Poison bool
}

// List is the shared structure. Obtain one Handle per worker.
type List struct {
	pool    *mem.Pool[node]
	buckets []atomic.Uint64 // head link words; nil ends a chain
	mask    uint64
}

// New creates an empty list.
func New(cfg Config) *List {
	n := max(cfg.Buckets, 1)
	if n&(n-1) != 0 {
		n = 1 << bits.Len(uint(n))
	}
	return &List{
		pool:    mem.NewPool[node](mem.Config{MaxSlots: cfg.MaxSlots, Poison: cfg.Poison, Name: "list"}),
		buckets: make([]atomic.Uint64, n),
		mask:    uint64(n - 1),
	}
}

// FreeNode returns a node to the pool; pass it as reclaim.Config.Free.
func (l *List) FreeNode(r mem.Ref) { l.pool.Free(r) }

// Pool exposes the node pool for stats and tests.
func (l *List) Pool() *mem.Pool[node] { return l.pool }

// Buckets returns the bucket count.
func (l *List) Buckets() int { return len(l.buckets) }

// hash is Fibonacci hashing; each bucket's chain stays ordered by key.
func (l *List) hash(key int64) uint64 {
	return (uint64(key) * 0x9e3779b97f4a7c15) >> 32 & l.mask
}

// Handle is a worker's accessor: guard + allocation magazine. Not safe for
// concurrent use; create one per worker.
type Handle struct {
	l     *List
	guard reclaim.Guard
	cache *mem.Cache[node]
}

// NewHandle binds a worker's guard to the list.
func (l *List) NewHandle(g reclaim.Guard) *Handle {
	return &Handle{l: l, guard: g, cache: l.pool.NewCache(0)}
}

func isMarked(w uint64) bool { return w&markBit != 0 }

// link is the word that points at prev's successor: prev's next field,
// re-checked through pp, or the bucket word head when prev is nil.
func link(head *atomic.Uint64, prev mem.Ref, pp mem.Resolved[node]) *atomic.Uint64 {
	if prev.IsNil() {
		return head
	}
	return &pp.Get(prev).next
}

// search locates the first node of head's chain with key >= key, unlinking
// (and retiring) any marked nodes it passes — the paper's search_and_cleanup
// (Algorithm 7). On return cur is that node, or nil at the chain end, and
// prev its predecessor, or nil for the bucket word; both are protected
// (which of the two traversal slots holds which rotates as the walk
// advances), prev.key < key <= cur.key, and prev's link == cur was observed
// unmarked.
//
// Each node is resolved once, right after the link it was loaded from is
// re-validated — before that a freed node is not yet a fault — and carried
// as pp/cp from then on. Every later use is Resolved.Get, the generation
// re-check on the node's own line: only the directory walk is saved, never
// the check (TestChainDetectionNotThinned).
func (h *Handle) search(head *atomic.Uint64, key int64) (prev mem.Ref, pp mem.Resolved[node], cur mem.Ref, cp mem.Resolved[node]) {
	pool := h.l.pool
retry:
	for {
		ps, cs := hpPrev, hpCur
		prev, pp = 0, mem.Resolved[node]{}
		cur = mem.Ref(head.Load()).Untagged()
		for !cur.IsNil() {
			// Protect cur, then validate the link we got it from
			// (§3.2 step 4; no fence needed beyond the scheme's own).
			h.guard.Protect(cs, cur)
			if mem.Ref(link(head, prev, pp).Load()) != cur {
				continue retry
			}
			cp = pool.Resolve(cur) // the hop's one directory walk
			nextWord := cp.Get(cur).next.Load()
			next := mem.Ref(nextWord).Untagged()
			if isMarked(nextWord) {
				// cur is logically deleted: splice it out. The
				// unlinker is the remover and retires it.
				//
				// No re-link exposure here (cf. the skip list's
				// upper-level edge ABA; its package doc's
				// "non-repeating edges" invariant holds trivially):
				// a node enters a chain through exactly one link
				// CAS, made while the node is still private —
				// Insert re-points nptr.next only BEFORE that CAS —
				// so a marked node can never be published again and
				// the splice CAS's expected value cannot repeat.
				// The frozen successor installed below is therefore
				// still reachable through cur, hence unretired
				// (skiplist invariant 3): installing it unprotected
				// is safe.
				if !link(head, prev, pp).CompareAndSwap(uint64(cur), uint64(next)) {
					continue retry
				}
				h.guard.Retire(cur)
				cur = next
				continue
			}
			if cp.Get(cur).key >= key {
				return prev, pp, cur, cp
			}
			// Advance by swapping slot ROLES, never by copying the
			// protection between slots: scans read slots one at a
			// time, so a cross-slot copy can be missed by a snapshot
			// that reads the destination before the copy and the
			// source after its overwrite — freeing a node mid-use.
			prev, pp = cur, cp
			ps, cs = cs, ps // cur keeps its slot, now in the prev role
			cur = next
		}
		return prev, pp, 0, mem.Resolved[node]{}
	}
}

// bucket is key's bucket head word.
func (h *Handle) bucket(key int64) *atomic.Uint64 { return &h.l.buckets[h.l.hash(key)] }

// Contains reports whether key is in the set.
func (h *Handle) Contains(key int64) bool {
	h.guard.Begin()
	_, _, cur, cp := h.search(h.bucket(key), key)
	found := !cur.IsNil() && cp.Get(cur).key == key
	h.guard.ClearHPs()
	return found
}

// Insert adds key; false if already present.
func (h *Handle) Insert(key int64) bool {
	h.guard.Begin()
	defer h.guard.ClearHPs()
	head := h.bucket(key)
	var nref mem.Ref
	var nptr *node
	for {
		prev, pp, cur, cp := h.search(head, key)
		if !cur.IsNil() && cp.Get(cur).key == key {
			if !nref.IsNil() {
				// Allocated but never linked: free directly
				// (node state Allocated -> Free, §2.1).
				h.cache.Free(nref)
			}
			return false
		}
		if nref.IsNil() {
			nref, nptr = h.cache.Alloc()
			nptr.key = key
		}
		nptr.next.Store(uint64(cur))
		if link(head, prev, pp).CompareAndSwap(uint64(cur), uint64(nref)) {
			return true
		}
		// Contention: retry with a fresh search (the node is reused).
	}
}

// Delete removes key; false if absent. Removal is two-phase: mark the
// node's next word (logical), then unlink (physical); whoever unlinks
// retires the node.
func (h *Handle) Delete(key int64) bool {
	h.guard.Begin()
	defer h.guard.ClearHPs()
	head := h.bucket(key)
	for {
		prev, pp, cur, cp := h.search(head, key)
		if cur.IsNil() || cp.Get(cur).key != key {
			return false
		}
		nextWord := cp.Get(cur).next.Load()
		if isMarked(nextWord) {
			// Another deleter got here first; help and retry.
			continue
		}
		// Logical delete: mark cur's next.
		if !cp.Get(cur).next.CompareAndSwap(nextWord, nextWord|markBit) {
			continue
		}
		// Physical unlink; on failure a later search cleans up.
		if link(head, prev, pp).CompareAndSwap(uint64(cur), nextWord) {
			h.guard.Retire(cur)
		} else {
			h.search(head, key)
		}
		return true
	}
}

// Len is Validate's count of unmarked nodes; only meaningful when quiesced.
func (l *List) Len() int {
	n, _ := l.Validate()
	return n
}

// Validate checks that every chain is strictly increasing and every key in
// its hash's bucket; only meaningful when quiesced. Returns the number of
// unmarked nodes and an error description ("" if OK).
func (l *List) Validate() (int, string) {
	n := 0
	for b := range l.buckets {
		var prev *node
		for r := mem.Ref(l.buckets[b].Load()).Untagged(); !r.IsNil(); {
			nd := l.pool.Get(r)
			w := nd.next.Load()
			if !isMarked(w) {
				if l.hash(nd.key) != uint64(b) {
					return n, "key in wrong bucket"
				}
				if prev != nil && nd.key <= prev.key {
					return n, "chain not strictly increasing"
				}
				prev = nd
				n++
			}
			r = mem.Ref(w).Untagged()
		}
	}
	return n, ""
}
