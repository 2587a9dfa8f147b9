// Package bst implements the lock-free external binary search tree the
// paper evaluates (Natarajan & Mittal, "Fast concurrent lock-free binary
// search trees", PPoPP 2014 — reference [27]).
//
// Keys live at the leaves; internal nodes route (key < node.key goes left).
// Deletion is edge-based: the edge to the doomed leaf is FLAGged, the edge
// to its sibling is TAGged (freezing both), and the grandparent edge is then
// swung to the sibling, splicing out the parent and the leaf in one CAS —
// the two low tag bits of mem.Ref carry FLAG and TAG. One delete removes
// two nodes (the paper's m=2 in the legal-C rule of §6.2).
//
// The structure uses six hazard pointers per worker, as the paper notes in
// §7.3: ancestor, successor, parent, leaf, the next child during descent,
// and a spare.
package bst

import (
	"math"
	"sync/atomic"

	"qsense/internal/mem"
	"qsense/internal/reclaim"
)

// HPs is the number of hazard pointers a BST handle uses.
const HPs = 6

const (
	hpAnc  = 0
	hpSucc = 1
	hpPar  = 2
	hpLeaf = 3
	hpCur  = 4

	flagBit = 1 // edge's child is a leaf scheduled for deletion
	tagBit  = 2 // edge is frozen as the sibling of a deletion

	// Sentinel keys: all user keys must be strictly below inf0.
	inf0 = math.MaxInt64 - 2
	inf1 = math.MaxInt64 - 1
	inf2 = math.MaxInt64

	// MaxKey is the largest user key the tree accepts.
	MaxKey = inf0 - 1
)

type node struct {
	key   int64
	left  atomic.Uint64 // edge word: mem.Ref | flagBit | tagBit; 0 in leaves
	right atomic.Uint64
	_     [32]byte
}

// Config controls tree construction.
type Config struct {
	// MaxSlots bounds the node pool.
	MaxSlots int
	// Poison zeroes freed nodes (tests).
	Poison bool
}

// Tree is the shared structure. Obtain one Handle per worker.
type Tree struct {
	pool *mem.Pool[node]
	root mem.Ref // R: key inf2
	s    mem.Ref // S: key inf1, R's left child
}

// New creates an empty tree with the three-sentinel skeleton of the paper:
// R(inf2) with children S and leaf(inf2); S(inf1) with leaf children
// leaf(inf0) and leaf(inf1).
func New(cfg Config) *Tree {
	pool := mem.NewPool[node](mem.Config{MaxSlots: cfg.MaxSlots, Poison: cfg.Poison, Name: "bst"})
	t := &Tree{pool: pool}
	leaf := func(key int64) mem.Ref {
		r, n := pool.Alloc()
		n.key = key
		n.left.Store(0)
		n.right.Store(0)
		return r
	}
	sr, sn := pool.Alloc()
	sn.key = inf1
	sn.left.Store(uint64(leaf(inf0)))
	sn.right.Store(uint64(leaf(inf1)))
	rr, rn := pool.Alloc()
	rn.key = inf2
	rn.left.Store(uint64(sr))
	rn.right.Store(uint64(leaf(inf2)))
	t.root, t.s = rr, sr
	return t
}

// FreeNode returns a node to the pool; pass it as reclaim.Config.Free.
func (t *Tree) FreeNode(r mem.Ref) { t.pool.Free(r) }

// Pool exposes the node pool for stats and tests.
func (t *Tree) Pool() *mem.Pool[node] { return t.pool }

// Handle is a worker's accessor. Not safe for concurrent use.
type Handle struct {
	t     *Tree
	guard reclaim.Guard
	cache *mem.Cache[node]
}

// NewHandle binds a worker's guard to the tree.
func (t *Tree) NewHandle(g reclaim.Guard) *Handle {
	return &Handle{t: t, guard: g, cache: t.pool.NewCache(0)}
}

// seekRecord captures the paper's seek result: the last untagged edge on
// the access path runs ancestor -> successor; parent is the leaf's parent.
type seekRecord struct {
	ancestor  mem.Ref
	successor mem.Ref
	parent    mem.Ref
	leaf      mem.Ref
}

func flagged(w uint64) bool { return w&flagBit != 0 }
func tagged(w uint64) bool  { return w&tagBit != 0 }
func addr(w uint64) mem.Ref { return mem.Ref(w).Untagged() }

// childField returns the edge of n toward key.
func childField(n *node, key int64) *atomic.Uint64 {
	if key < n.key {
		return &n.left
	}
	return &n.right
}

// seek descends to the leaf for key, maintaining the hazard pointer set and
// re-validating every edge after protecting its target (§3.2 methodology).
// On return all four record entries are protected.
//
// Unlike the GC-reliant original, seek refuses to traverse flagged or tagged
// edges. A dirty edge is frozen, so re-reading it cannot tell whether its
// target has already been spliced out and retired — a hazard pointer
// published after the splice-winner's scan would not save the reader
// (Condition 1 of §3.2 would be violated). Instead the seeker helps the
// in-progress deletion to completion and restarts; only targets reached
// through clean, validated edges are provably unretired at protection time.
//
// As the window shifts down a level, slot ROLES rotate with the nodes
// instead of copying protections between slots: a cross-slot copy can be
// missed entirely by a concurrent snapshot that reads the destination slot
// before the copy and the source slot after its overwrite (see
// skiplist.search). Each node therefore stays in the one slot it was
// validated into: parent's slot becomes the ancestor slot, current's the
// successor+parent slot (those two roles always alias here), next's the
// leaf slot, and the freed ancestor slot protects the next descent target.
func (h *Handle) seek(key int64) seekRecord {
	pool := h.t.pool
retry:
	for {
		sa, ss, sp, sl, sc := hpAnc, hpSucc, hpPar, hpLeaf, hpCur
		anc := h.t.root
		h.guard.Protect(sa, anc)
		succ := h.t.s // R.left target; this edge is immutable
		h.guard.Protect(ss, succ)
		parent := succ
		h.guard.Protect(sp, parent)
		parentField := pool.Get(parent).left.Load() // S.left edge; never dirty (S is a sentinel)
		current := addr(parentField)
		h.guard.Protect(sl, current)
		if pool.Get(parent).left.Load() != parentField || parentField&(flagBit|tagBit) != 0 {
			continue retry
		}
		for {
			cn := pool.Get(current)
			lw := cn.left.Load()
			if lw == 0 {
				// current is a leaf.
				return seekRecord{ancestor: anc, successor: succ, parent: parent, leaf: current}
			}
			// Descend toward key.
			var curField uint64
			if key < cn.key {
				curField = lw
			} else {
				curField = cn.right.Load()
			}
			next := addr(curField)
			h.guard.Protect(sc, next)
			if childField(pool.Get(current), key).Load() != curField {
				continue retry
			}
			if curField&(flagBit|tagBit) != 0 {
				// A deletion is in progress under current: help it
				// finish, then retry from the top. next may already
				// be retired; cleanup never dereferences it. The
				// record describes next's position: its parent is
				// current and its grandparent — the splice point —
				// is parent (anc/succ sit one level higher and
				// describe current's own position).
				h.cleanup(key, seekRecord{ancestor: parent, successor: current, parent: current, leaf: next})
				continue retry
			}
			// The edge parent -> current was proven clean before this hop,
			// so the paper's "if that edge is untagged" step always moves
			// the ancestor/successor pair down to it.
			freed := sa
			anc, sa = parent, sp
			succ, ss = current, sl
			parent, sp = current, sl
			current, sl = next, sc
			sc = freed
		}
	}
}

// cleanup attempts the physical removal for the deletion whose flag sits on
// one of sr.parent's edges: tag the sibling edge, then swing the ancestor's
// successor edge to the sibling (preserving the sibling's own flag). The
// winner of the swing CAS retires the two spliced-out nodes. Returns whether
// this call performed the splice.
func (h *Handle) cleanup(key int64, sr seekRecord) bool {
	pool := h.t.pool
	par := pool.Get(sr.parent)
	ancEdge := childField(pool.Get(sr.ancestor), key)

	var keptAddr, removedAddr *atomic.Uint64
	if key < par.key {
		removedAddr, keptAddr = &par.left, &par.right
	} else {
		removedAddr, keptAddr = &par.right, &par.left
	}
	if !flagged(removedAddr.Load()) {
		// The leaf on our search side is not the doomed one; the
		// deletion (if any) targets the other child, and our side is
		// the kept sibling.
		keptAddr, removedAddr = removedAddr, keptAddr
		if !flagged(removedAddr.Load()) {
			// No deletion in progress on this parent (stale record):
			// tagging anything here could freeze an innocent edge.
			return false
		}
	}
	// Freeze the sibling edge so the kept subtree cannot change under us.
	for {
		w := keptAddr.Load()
		if tagged(w) {
			break
		}
		if keptAddr.CompareAndSwap(w, w|tagBit) {
			break
		}
	}
	kept := keptAddr.Load()
	// Swing: ancestor's edge from (successor, clean) to the kept child,
	// clearing the tag but preserving the kept child's own flag.
	//
	// Immune to the skip list's upper-level edge ABA (its package doc's
	// invariants 2 and 3), by construction rather than by a claim step:
	// edges here are single-assignment between deletions because Insert
	// publishes fresh private nodes only, and the value this swing
	// installs — the kept child frozen under the tag — cannot have been
	// retired: retiring it would require flagging its incoming edge,
	// which is exactly the edge the tag froze (a flag CAS expects a
	// clean word), so its deletion cannot even start until the swing
	// re-exposes it through a clean ancestor edge. The expected value
	// (successor, clean) cannot repeat either: a spliced-out successor
	// is retired by the swing winner and never re-published.
	newWord := kept &^ tagBit
	if !ancEdge.CompareAndSwap(uint64(sr.successor), newWord) {
		return false
	}
	// We removed parent and the flagged leaf: retire both (m = 2).
	h.guard.Retire(addr(removedAddr.Load()))
	h.guard.Retire(sr.parent)
	return true
}

// Contains reports whether key is in the set. Keys above MaxKey collide
// with the sentinel skeleton and are never present.
func (h *Handle) Contains(key int64) bool {
	if key > MaxKey {
		return false
	}
	h.guard.Begin()
	sr := h.seek(key)
	found := h.t.pool.Get(sr.leaf).key == key
	h.guard.ClearHPs()
	return found
}

// Insert adds key; false if already present. Keys above MaxKey are
// rejected (false), never grafted next to a sentinel leaf.
func (h *Handle) Insert(key int64) bool {
	if key > MaxKey {
		return false
	}
	h.guard.Begin()
	defer h.guard.ClearHPs()
	pool := h.t.pool
	var internalRef, leafRef mem.Ref
	var internalPtr, leafPtr *node
	for {
		sr := h.seek(key)
		oldLeaf := sr.leaf
		leafKey := pool.Get(oldLeaf).key
		if leafKey == key {
			if !internalRef.IsNil() {
				// Never linked: free both directly.
				h.cache.Free(internalRef)
				h.cache.Free(leafRef)
			}
			return false
		}
		if internalRef.IsNil() {
			leafRef, leafPtr = h.cache.Alloc()
			leafPtr.key = key
			leafPtr.left.Store(0)
			leafPtr.right.Store(0)
			internalRef, internalPtr = h.cache.Alloc()
		}
		// Internal routing node: key = max(key, leafKey); smaller goes left.
		if key < leafKey {
			internalPtr.key = leafKey
			internalPtr.left.Store(uint64(leafRef))
			internalPtr.right.Store(uint64(oldLeaf))
		} else {
			internalPtr.key = key
			internalPtr.left.Store(uint64(oldLeaf))
			internalPtr.right.Store(uint64(leafRef))
		}
		parEdge := childField(pool.Get(sr.parent), key)
		if parEdge.CompareAndSwap(uint64(oldLeaf), uint64(internalRef)) {
			return true
		}
		// The edge changed: help an in-progress deletion if that is
		// what blocks us, then retry.
		w := parEdge.Load()
		if addr(w) == oldLeaf && (flagged(w) || tagged(w)) {
			h.cleanup(key, sr)
		}
	}
}

// Delete removes key; false if absent. Two modes, per the paper: INJECTION
// flags the leaf's incoming edge (the linearization point); CLEANUP then
// performs the physical splice, possibly helped by or helping others.
// Keys above MaxKey are absent by definition — without the guard a delete
// of a sentinel key would flag and splice out the sentinel leaf itself.
func (h *Handle) Delete(key int64) bool {
	if key > MaxKey {
		return false
	}
	h.guard.Begin()
	defer h.guard.ClearHPs()
	pool := h.t.pool
	injecting := true
	var doomed mem.Ref
	for {
		sr := h.seek(key)
		if injecting {
			if pool.Get(sr.leaf).key != key {
				return false
			}
			parEdge := childField(pool.Get(sr.parent), key)
			if parEdge.CompareAndSwap(uint64(sr.leaf), uint64(sr.leaf)|flagBit) {
				injecting = false
				doomed = sr.leaf
				if h.cleanup(key, sr) {
					return true
				}
			} else {
				w := parEdge.Load()
				if addr(w) == sr.leaf && (flagged(w) || tagged(w)) {
					h.cleanup(key, sr)
				}
			}
			continue
		}
		// CLEANUP mode: we own the flagged leaf until it disappears.
		if sr.leaf != doomed {
			return true // someone completed our splice
		}
		if h.cleanup(key, sr) {
			return true
		}
	}
}

// Len is Validate's count of user leaves; only meaningful when quiesced.
func (t *Tree) Len() int {
	n, _ := t.Validate()
	return n
}

// Validate checks structural invariants when quiesced: internal nodes have
// two children, leaves are in routing order, sentinels intact. Returns the
// user-leaf count and an error description ("" if OK). Bounds are inclusive:
// a subtree rec(r, lo, hi) must hold keys in [lo, hi]; an internal node k
// routes [lo, k-1] left and [k, hi] right.
func (t *Tree) Validate() (int, string) {
	count := 0
	var rec func(r mem.Ref, lo, hi int64) string
	rec = func(r mem.Ref, lo, hi int64) string {
		if r.IsNil() {
			return "nil child on internal node"
		}
		nd := t.pool.Get(r)
		lw, rw := nd.left.Load(), nd.right.Load()
		if (lw == 0) != (rw == 0) {
			return "half-leaf node"
		}
		if nd.key < lo || nd.key > hi {
			if lw == 0 {
				return "leaf key out of routing range"
			}
			return "internal key out of routing range"
		}
		if lw == 0 {
			if nd.key < inf0 {
				count++
			}
			return ""
		}
		if msg := rec(addr(lw), lo, nd.key-1); msg != "" {
			return msg
		}
		return rec(addr(rw), nd.key, hi)
	}
	msg := rec(t.root, math.MinInt64, math.MaxInt64)
	return count, msg
}
