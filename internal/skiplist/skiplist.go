// Package skiplist implements the lock-free skip list the paper evaluates
// (Fraser, "Practical lock-freedom", 2004 — reference [11]; the ASCYLIB
// variant the paper builds on). Keys live in a sorted multi-level list;
// bit 0 of each per-level next word is the logical-deletion mark for that
// level. Every node additionally carries a byte value (PutBytes/GetAppend,
// with Put/Get as the uint64 fast path): small values live inline in the
// node's value word; a larger first value lives in the node's own payload,
// and a larger overwrite spills to a reclaimed value node in the same
// pool — see value.go for the encoding and its linearization argument.
// The same structure backs both the set containers and the
// value-carrying SkipMap the network server is built on.
//
// Hazard pointer budget: searches keep a (pred, succ) pair protected per
// level plus one scratch slot that covers a frozen successor across a
// splice, one pin slot that insert/delete hold on their own node, and one
// value slot that covers a spilled value node while its bytes are copied
// out — 2*levels+3 in total, exactly the paper's "up to 35 hazard
// pointers" for the skip list at 16 levels (§7.3), and the reason QSense's
// gap to QSBR is widest on this structure.
//
// # Reclamation safety argument
//
// The pointer-based schemes (hp, rc, Cadence's fallback) are safe on this
// structure because every protect/validate pair is conclusive: a
// validation that passes proves the protection was published before the
// node's retirement, so no scan can free the node while it is in use.
// Conclusiveness rests on four invariants; the first is local to search,
// the next two are enforced by Insert's claim-then-link protocol, the last
// by the key the cleanup searches are given:
//
//  1. Clean-edge validation. A marked node is never walked through; it is
//     unlinked from the still-clean predecessor edge (search below). A
//     node validated reachable through a clean edge cannot have been
//     passed by its deleter's cleanup search yet — that search must
//     splice the node out of this very edge before the deleter may retire
//     it — so retirement, and any scan that could free the node, strictly
//     follows the reader's publication.
//
//  2. Non-repeating edges. At any level l, the value of an edge word (a
//     generation-tagged node ref) is written by exactly two operations:
//     the node's inserter's single link CAS per level, and a splice that
//     replaces a marked node with its frozen successor. The inserter
//     links each level at most once, claims the node's own next[l] only
//     immediately before the link CAS (from the same fresh search that
//     produced the CAS's expected value), and abandons the level — and
//     every level above it — permanently the moment it observes the
//     deletion mark, so a node that has been unlinked from a clean
//     level-l edge is never published at level l again. A splice can
//     still transiently publish a node whose mark landed between the
//     inserter's claim and its link CAS, but that node enters the level
//     for the first time, frozen at the freshly claimed successor, and is
//     spliced out exactly once. Between a reader's validation and the
//     unlink of the validated node an edge word is therefore
//     single-assignment — the splice CAS's expected-value check cannot be
//     defeated by an edge-value ABA.
//
//  3. Frozen-successor liveness. A splice installs the successor a
//     marked node held when its mark was set. By (2) that successor was
//     freshly claimed: at link time it was still reachable through a
//     clean edge (the link CAS's expected value proves it), and
//     afterwards it stays reachable through the marked node until the
//     chain is dismantled front-to-back — a cleanup search unlinks a
//     marked chain from the clean side, so a frozen successor is spliced
//     only after every marked node frozen at it is gone, and can never be
//     unlinked (hence never retired) while a reachable edge or a
//     reachable node's frozen word still leads to it. search additionally
//     protects the frozen successor in the scratch slot and revalidates
//     the clean edge before installing it, and a qsensedebug build
//     asserts the installed ref is live (mem.Pool.Valid) — defense in
//     depth in case a protocol hole remains.
//
//  4. Equal-key shadowing. Two nodes with the same key can be linked at
//     once: an Insert(k) whose search passed level l before the old node n
//     (key k) was marked there, and level 0 after n was marked, finds k
//     absent, links n' and — n still being succs[l] — claims n'.next[l] = n
//     and links n' in front of it. A cleanup search that stops at the first
//     key >= k stops at n' and never reaches n at level l; retiring n then
//     leaves n'.next[l] leading to a retired node (a use-after-free under
//     every scheme, qsbr included). Every search that must leave a marked
//     node unreachable — Delete's physical cleanup, finishInsert, and
//     upsertWord's two pruning passes — is therefore prune, which searches
//     key+1: it walks through every node of key k and splices the marked
//     one out from the clean side, whichever node shadows it. Searches that look a key up or position a link keep the
//     plain key: they want the first node of key k, which is the live one.
//
// # Fingers
//
// A walk is ≈ 24 dependent cache misses and half the keys asked for were
// asked for a moment ago, so a handle remembers, per key, the level-0
// position its last walk, link or delete found: the key's node, or the edge
// pred → succ the key falls strictly inside. The table holds 2^12 of them in
// sets of four ways (fingerBits, fingerSet), and keeps the ones that get hit:
// each way counts its validated answers in its Ref's two tag bits, a key is
// admitted over a way whose count is zero, and a refused key decays the
// whole set — LFU with decay, in the 96 KiB a direct-mapped table of the
// same 2^12 fingers took. Contains/Get/GetAppend, Delete and an upsert of
// a present key try the finger first (probe), then the list's node index
// (byIndex, "Node index" below), and walk only if both fail. An
// insert needs preds at every level and always walks, so it leaves an edge
// finger untried; a Delete that found its node by finger skips the first
// walk, not prune's. What prune found is the finger Delete leaves: the edge
// preds[0] → succs[0] when preds[0]'s key is below key, and otherwise
// preds[0] itself as key's node —
// another worker re-inserted key behind the deleter, and an edge over that
// node would answer "absent" for a present key. A finger is a hint: it holds
// no protection between operations (TestFingersPinNothing) and outlives
// leases with its handle, so what it names may be retired, freed, or
// recycled — into the same key, even. validate, which probe and byIndex
// share, checks in this order:
//
//	Peek (generation) → Protect(pin) → load next[0] → generation again
//	→ word unmarked, and: node's key == key | word == succ
//
// Generations only grow, so the second check passing means the load read the
// remembered incarnation, and after the publication. Unmarked at level 0
// means not logically deleted, and every retire of a node (Delete,
// finishInsert) follows its level-0 mark: the node was unretired after we
// published — the fact search's edge re-validation establishes per hop, and
// conclusive for the same reason in each scheme family. hp, cadence, qsense
// on its fallback path: a scan that frees the node starts after a retire
// that follows our publication. qsbr, ebr, qsense's fast path: that retire
// follows this operation's Begin, so the grace period it must wait out
// contains the rest of this operation. ibr: the node was born before the
// finger was made, so at or below the upper bound Protect just raised, and
// its retire era cannot precede the reservation's lower bound (Begin) — the
// lifetime meets the reservation.
// hyaline: enter (Begin) precedes the retire, so the batch waits for this
// guard. rc: acquire succeeds only on the generation asked for, and a held
// count blocks the free. From there the node sits in the pin slot and is
// used through Resolved.Get like any node search found: freed now, it faults
// (TestFingerDetection). For the edge form the same validation of pred, plus
// the word still being succ — a generation-tagged Ref, so the very node
// whose key was above key — shows an unmarked pred leading past key in a
// sorted level 0 at the instant of the load: key is absent.
//
// The first check only spares a publication for fingers that are long dead;
// the second is the proof, and it must come after the load. Without it the
// slot can be freed and re-allocated between the first check and the
// load — the publication in between is not yet conclusive — and next[0] of
// the new tenant read as the old node's: a fault on a correct scheme at
// best, an "absent" for a present key at worst (both are rows of
// TestFingerDetection, for fingers and for index words; testdata/mutants
// holds the two edits, beside the key compare dropped, the edge over a
// re-inserted key, a retired self value and a Ref handed out with its hit
// count, and kill.sh shows the tests that fail on each). probe strips
// the count before its first check and bumps it only after validation
// succeeds: what is validated and used is always the bare Ref. A 30-bit
// generation that wraps hands out a bit-identical live Ref, as it can for
// every Ref in this repository; for a finger on a key's node the key compare
// after validation is what makes that harmless.
//
// # Node index
//
// A handle's fingers see only that handle's keys, and 2^12 of them: of a
// zipf stream over the ruler's 2^18 keys they answer 64 %, and every other
// lookup walked. So the list keeps one node index too, shared by every
// handle: a power-of-two array of words (nodeIndex), word fingerHash(key)
// holding the untagged Ref of some key's node, or 0 — direct-mapped, one word
// per key. A walk by locate or an upsert that found key's node stores its
// Ref, and so does an insert after its level-0 link; only a Ref the word
// does not already hold is stored, so a hit, or a walk that found the same
// node, writes no shared line. Delete writes nothing: a word that names a
// deleted node fails validation.
//
// Why one word and no count: a word is one atomic store and one atomic load,
// so an entry cannot tear between a reader and a writer, and a hit writes
// nothing — the finger table's hit counts would make every hit a store to a
// line the other handles read. Why no new proof: a word is a hint exactly
// like a finger on a key's node — it protects nothing, and what it names may
// be retired, freed, recycled or another key's node (two keys share a word) —
// and byIndex validates it with validate itself, the key compare refusing
// another key's node; then it is remembered as that handle's finger.
//
// Sizing: 2^12 words (32 KiB) at New, then one word per two pool slots. An
// insert whose node sits at slot index i >= 2·len replaces the index with an
// empty one of the least power-of-two length above i/2 (fitIndex); the old
// words were hints and are dropped. So the index allocates only when the
// pool grows, and its memory follows the stored keys, whatever the number of
// handles: kv-read's 2^17 keys settle at 2^17 words, 1 MiB beside 16 MiB of
// nodes. With two handles taking a stream's lookups in turn over the 2^18
// keys, half of them stored (TestIndexHitRate), fingers answer 670 838 of
// 1 Mi zipf lookups, the index 154 324, and 223 414 walk (21.3 %, against
// 36.0 % with fingers alone); of a uniform stream, 16 216, 422 152 and
// 610 208.
//
// The historical violation of invariant 2 — Insert pre-stored every
// upper next word from the level-0 search and re-claimed a level only
// after a failed link CAS there, so a level's first link attempt could
// publish the node frozen at a long-dead pre-stored successor — is the
// hp/rc use-after-free TestSkipListUAFReproHPRC reproduces against old
// binaries. internal/tso's SkipList litmus systems explore that schedule
// below Go's memory model: the stale-link protocol reaches the violation,
// the claim-then-link protocol does not, in any interleaving.
//
// # Node layout
//
// A node is 112 bytes, and mem's 16-byte slot header (generation, free-list
// link, birth era) makes its pool slot 128. A slab is one page-aligned
// allocation, so every node is exactly two cache lines, and the first holds
// what a hop reads: the generation Resolved.Get re-checks, key, val, upper
// and next[0..1] (TestNodeLayout). Tower heights are geometric(1/2), two
// levels on average, so only the first inlineLevels next words live in the
// node; levels inlineLevels..MaxLevel-1 live in an upper array the node
// points at, which is nil for the 63 of 64 towers six levels high or less.
// A stored key costs one 128-byte slot. Six, not four: four inline levels
// make a 112-byte slot, but the walk then follows upper at levels 4 and 5,
// and kv-read paid 3–9 % more CPU per op for 27 % less memory on the 2-vCPU
// ruler box.
//
// An upper array changes hands only at Alloc (setHeight), when the slot's
// previous incarnation is already reclaimed: a tall tower keeps the array
// its slot carries or takes one from upperArrays, a sync.Pool, and a slot
// reused for a shorter tower or as a value node gives its array back. Head
// and tail get theirs in New. Once warm, inserts allocate nothing
// (TestChurnAllocatesNothing). The protocol is unchanged: every level is
// reached through link after Resolved.Get, so every use re-checks the
// generation, and the inserter zeroes levels 1..topLevel-1 before its first
// claim, whichever array it holds — a reused array's words are a dead
// tower's, marked, and a claim that read one would abandon the tower above
// it (TestRecycledTowersRelink; testdata/mutants/stale-upper.patch). A
// hint's validation, which loads from its node before any check is
// conclusive, reads only next[0], which is always inline.
package skiplist

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"qsense/internal/mem"
	"qsense/internal/reclaim"
)

// MaxLevel is the tallest tower supported.
const MaxLevel = 16

// HPsFor returns the hazard pointer count a handle needs for a given level
// configuration.
func HPsFor(levels int) int { return 2*levels + 3 }

const (
	markBit = 1

	headKey = math.MinInt64
	tailKey = math.MaxInt64
)

// MinKey and MaxKey bound the usable key domain. math.MinInt64 and
// math.MaxInt64 are the head/tail sentinel keys of the list itself, so they
// are out of domain: Contains/Get/Delete report them absent and Insert/Put
// reject them (false) rather than match — or worse, unlink — a sentinel.
const (
	MinKey = headKey + 1
	MaxKey = tailKey - 1
)

// reserved reports whether key collides with a sentinel.
func reserved(key int64) bool { return key == headKey || key == tailKey }

// A node is two cache lines (package doc, "Node layout"); the field order
// puts everything a hop reads on the first.
type node struct {
	key      int64
	topLevel int32
	state    atomic.Uint32 // insert/delete retirement ownership (below)
	// val is the node's value word — inline payload, the node's own Ref
	// (self), a spilled value-node Ref, or tombstone (value.go). Written
	// before the level-0 link CAS publishes the node, then only by
	// updateValue's CAS on a node still reachable through a clean edge and
	// by Delete's tombstone swap — all ordered against any reader by the
	// atomic link/val accesses, so a reader never sees an uninitialized
	// word. Set-only callers (Insert/Contains) leave it 0.
	val atomic.Uint64
	// upper holds levels inlineLevels..MaxLevel-1 of a tower taller than
	// inlineLevels and is nil on every other node. Set only by setHeight.
	upper *upperLinks
	next  [inlineLevels]atomic.Uint64 // the low levels; reach any level by link
	// payload holds values longer than MaxInline: a node's own first value
	// (self), written before its link and never after; and the bytes of a
	// spilled overwrite, in a node that serves as a value node (same pool,
	// same birth-era header, so ibr stamps value lifetimes like structural
	// ones). On a value node the link words above are never published.
	payload mem.Value
}

// inlineLevels is how many of a tower's next words live in the node itself.
const inlineLevels = 6

// upperLinks is a tall tower's out-of-line levels.
type upperLinks [MaxLevel - inlineLevels]atomic.Uint64

// upperArrays holds the upper arrays no slot carries.
var upperArrays = sync.Pool{New: func() any { return new(upperLinks) }}

// link is level l's next word. Callers reach n through Resolved.Get, so the
// generation is re-checked on every use. It must inline: every hop calls it.
func (n *node) link(l int) *atomic.Uint64 {
	if uint(l) < inlineLevels {
		return &n.next[l]
	}
	return &n.upper[l-inlineLevels]
}

// setHeight fits a node just allocated for a tower of the given height
// (0 for a value node) with the upper array it needs, or takes away one it
// does not need. Alloc only: the slot's previous incarnation is reclaimed,
// so no reader can hold the array.
func (n *node) setHeight(levels int) {
	switch {
	case levels > inlineLevels && n.upper == nil:
		n.upper = upperArrays.Get().(*upperLinks)
	case levels <= inlineLevels && n.upper != nil:
		upperArrays.Put(n.upper)
		n.upper = nil
	}
}

// Scrub is the pool's poison (mem.Config.Poison) for a node: everything
// zero, the atomic words by atomic store — a finger probe may be loading
// next[0] of a slot that is being freed, which a plain store would race. An
// upper array stays with its slot, zeroed, for setHeight to keep or return.
func (n *node) Scrub() {
	n.key, n.topLevel, n.payload = 0, 0, mem.Value{}
	n.state.Store(0)
	n.val.Store(0)
	for l := range n.next {
		n.next[l].Store(0)
	}
	if n.upper != nil {
		for l := range n.upper {
			n.upper[l].Store(0)
		}
	}
}

// Retirement ownership. An inserter keeps linking upper levels after its
// node is already reachable at level 0; a concurrent deleter's cleanup
// search can pass a level BEFORE the inserter links it, after which the
// inserter transiently re-links a marked — possibly already retired — node
// (the insert code prunes such levels before returning). Retiring a node
// that can still become reachable breaks hazard pointers' fundamental
// premise: a reader may then validate a protection AFTER the retirement,
// and a scan whose slot-by-slot snapshot is preempted between that
// reader's record and the inserter's pin can miss both, freeing the node
// mid-use (the stress tests reproduce this as a use-after-free). The
// state word restores strictness by handing the retirement to whoever
// acts last: the deleter retires a stDone node; for a node still
// stLinking it CASes to stAbandoned and the inserter — who alone can
// re-link, and prunes before finishing — retires it (finishInsert).
const (
	stLinking   = 0 // inserter still linking upper levels (may re-link)
	stDone      = 1 // insert complete; the deleter retires
	stAbandoned = 2 // deleter done mid-insert; the inserter retires
)

// Config controls skip list construction.
type Config struct {
	// Levels is the number of levels used (2..MaxLevel). Default 16.
	Levels int
	// MaxSlots bounds the node pool.
	MaxSlots int
	// Poison zeroes freed nodes (tests).
	Poison bool
}

// SkipList is the shared structure. Obtain one Handle per worker.
//
// Layout rule (the one mem.Pool states): pool, levels, head, tail and index
// are read by every search, the first four never written after New and index
// only when the node index grows; the gauges below the pad take 2–5 Adds per
// SET/DEL.
// Side by side, one worker's writes invalidate the line the other worker's
// every search starts from: 5 % of lib-mixed's throughput on the 2-vCPU ruler
// box. TestSkipListLayout pins the pad; making the gauges per-handle instead
// was neutral to negative.
type SkipList struct {
	pool   *mem.Pool[node]
	levels int
	head   mem.Ref
	tail   mem.Ref
	index  atomic.Pointer[nodeIndex]
	_      [64]byte

	// value-arena gauges (ValueStats in value.go)
	vBytes   atomic.Int64
	vSpilled atomic.Int64
	vRetires atomic.Uint64
	sRetires atomic.Uint64
}

// New creates an empty skip list.
func New(cfg Config) *SkipList {
	if cfg.Levels <= 1 || cfg.Levels > MaxLevel {
		cfg.Levels = MaxLevel
	}
	pool := mem.NewPool[node](mem.Config{MaxSlots: cfg.MaxSlots, Poison: cfg.Poison, Name: "skiplist"})
	s := &SkipList{pool: pool, levels: cfg.Levels}
	tr, tn := pool.Alloc()
	tn.key = tailKey
	tn.topLevel = int32(cfg.Levels)
	tn.setHeight(cfg.Levels)
	hr, hn := pool.Alloc()
	hn.key = headKey
	hn.topLevel = int32(cfg.Levels)
	hn.setHeight(cfg.Levels)
	for l := 0; l < cfg.Levels; l++ {
		tn.link(l).Store(0)
		hn.link(l).Store(uint64(tr))
	}
	s.head, s.tail = hr, tr
	s.index.Store(newNodeIndex(1 << indexBits))
	return s
}

// FreeNode returns a node to the pool; pass it as reclaim.Config.Free.
func (s *SkipList) FreeNode(r mem.Ref) { s.pool.Free(r) }

// Pool exposes the node pool for stats and tests.
func (s *SkipList) Pool() *mem.Pool[node] { return s.pool }

// Levels returns the configured level count.
func (s *SkipList) Levels() int { return s.levels }

// Handle is a worker's accessor. Not safe for concurrent use.
type Handle struct {
	s     *SkipList
	guard reclaim.Guard
	cache *mem.Cache[node]
	rng   uint64
	preds [MaxLevel]mem.Ref
	succs [MaxLevel]mem.Ref
	// preds/succs as search resolved them; every use re-checks (predp[l].Get)
	predp [MaxLevel]mem.Resolved[node]
	succp [MaxLevel]mem.Resolved[node]
	// fingers is nil until the first remember, so a lease that never looks
	// a key up costs what it did.
	fingers []fingerSet
	victim  uint // where admit's next scan for a zero count starts
}

// NewHandle binds a worker's guard to the skip list. Seed differentiates
// tower height streams across workers (any value is fine).
func (s *SkipList) NewHandle(g reclaim.Guard, seed uint64) *Handle {
	return &Handle{s: s, guard: g, cache: s.pool.NewCache(0), rng: seed*2654435761 + 1}
}

// Slot layout: 2l and 2l+1 are level l's pair, taken alternately by the
// nodes the walk visits on that level (search below); slot 2*levels is the
// scratch slot that covers a frozen successor from just before its
// installing splice until the level's own pair picks it up; 2*levels+1 pins
// the operation's own node across helper searches; 2*levels+2 covers a
// spilled value node while its payload is copied out (value.go).
func (h *Handle) hpScratch() int { return 2 * h.s.levels }
func (h *Handle) hpPin() int     { return 2*h.s.levels + 1 }
func (h *Handle) hpVal() int     { return 2*h.s.levels + 2 }

func isMarked(w uint64) bool { return w&markBit != 0 }

// randomLevel draws a geometric(1/2) tower height in [1, levels].
func (h *Handle) randomLevel() int {
	h.rng ^= h.rng << 13
	h.rng ^= h.rng >> 7
	h.rng ^= h.rng << 17
	lvl := 1
	for v := h.rng; v&1 == 1 && lvl < h.s.levels; v >>= 1 {
		lvl++
	}
	return lvl
}

// search positions h.preds/h.succs around key at every level, unlinking
// marked nodes it encounters (Fraser's search with Michael-style eager
// unlinking). On return preds[l] and succs[l] are each protected by the one
// slot they were validated into — level l's pair or a higher level's, see
// below.
//
// A marked node is unlinked immediately rather than walked through: a
// node's marked next word is frozen, so re-validating a link THROUGH it
// cannot tell whether the next chain node has already been retired and
// freed by its deleter — a hazard pointer published after that deleter's
// scan would not save us. Unlinking from the still-clean predecessor edge
// keeps every protect/validate pair conclusive: a node validated reachable
// through a clean edge cannot have passed its deleter's cleanup search yet,
// so its retirement (and any scan) must come after our publication.
//
// One publication per node visited. The rule is that a node stays in the
// ONE slot it was validated into for as long as this pass's result is used,
// and a level's slot pair is written only while the walk is on that level
// (the scratch slot is never a node's only cover past the next loop
// iteration). Three things follow:
//
//   - Slot-role rotation. When the walk advances (left = right) the
//     protection is not copied from the right slot to the left slot: scans
//     snapshot slots one at a time, so a snapshot can read the destination
//     before the copy and the source after it is overwritten, missing a
//     node that was covered the whole time — a use-after-free the stress
//     tests reproduce. The two slot INDICES swap roles instead.
//   - No descend copy. Entering level l, left is the head (never retired)
//     or already sits in the slot of a level above, which this pass never
//     writes again — so it, and preds[l] until the operation searches
//     again, is covered without a publication, and both of level l's slots
//     start free: the first right takes one, the rotation hands out the
//     other.
//   - No re-publication of a shared terminator. When right is the
//     successor the level above ended on in this same pass it is still in
//     that level's slot, validated there; it is neither published again nor
//     is the edge re-validated (re-validation exists only to make a new
//     publication conclusive). Its mark at THIS level is still checked. Its
//     key is >= key, so the walk never advances onto it and the rotation
//     never mistakes the borrowed slot for one of this level's.
//
// (Delete's pin copy has a stable source and happens strictly before the
// node's retirement, so every snapshot still sees a conclusive slot.)
//
// One resolution per node visited, at the only point where a first touch is
// conclusive (after the edge re-validation); every later use re-checks the
// carried slot. Before the re-validation right may already be freed without
// anything being wrong — the publication has not taken effect yet — so a
// generation fault there would accuse a correct scheme; after it, the node
// is covered and a mismatch is a reclamation bug. That is where the walk
// pays the pool's directory → slab → slot resolve, once, and from then on
// lp, rp and ap carry left, right and the level above's terminator as
// mem.Resolved; preds/succs leave the same way, in predp/succp, for the
// operation to use. Every one of those uses is Resolved.Get: the generation
// compare on the node's own cache line, inlined — a node freed under the
// walk faults at its next use, whichever that is (TestDetectionNotThinned).
// Only the repeated directory walks are saved: at four per hop they were
// 45 % of lib-mixed's CPU, and what remains of them (≈ 30 %) is the one
// cache miss that touching a node for the first time costs anyway.
func (h *Handle) search(key int64) {
	pool := h.s.pool
	headp := pool.Resolve(h.s.head)
retry:
	for {
		left, lp := h.s.head, headp
		var above mem.Ref // succs[lvl+1] of this pass; nil at the top level
		var ap mem.Resolved[node]
		for lvl := h.s.levels - 1; lvl >= 0; lvl-- {
			rs := 2 * lvl // right's slot: level lvl's pair is rs and rs^1
			lw := lp.Get(left).link(lvl).Load()
			if isMarked(lw) {
				continue retry // left was deleted under us
			}
			right := mem.Ref(lw).Untagged()
			for {
				rp := ap
				if right != above {
					h.guard.Protect(rs, right)
					if lp.Get(left).link(lvl).Load() != lw {
						continue retry
					}
					rp = pool.Resolve(right) // the hop's one directory walk
				}
				rw := rp.Get(right).link(lvl).Load()
				if isMarked(rw) {
					// right is logically deleted at this level:
					// splice it out from the clean side. Its
					// deleter retires it; we only unlink. The
					// frozen successor is protected in the scratch
					// slot and the clean edge revalidated before
					// the splice installs it: right reachable
					// through a clean edge means (invariant 3 in
					// the package doc) the successor is not yet
					// retired, so the protection is conclusive and
					// a stale frozen ref is never written into the
					// chain even if a protocol hole remains. The
					// scratch protection stays the stable source
					// until the next iteration re-covers the node in
					// this level's slot (a copy FROM a stable slot
					// is snapshot-safe).
					next := mem.Ref(rw).Untagged()
					h.guard.Protect(h.hpScratch(), next)
					if lp.Get(left).link(lvl).Load() != lw {
						continue retry
					}
					assertFrozenLive(pool, next)
					if !lp.Get(left).link(lvl).CompareAndSwap(lw, uint64(next)) {
						continue retry
					}
					lw = uint64(next)
					right = next
					continue
				}
				if rp.Get(right).key < key {
					left, lp = right, rp
					rs ^= 1 // left keeps its slot; the next right takes the pair's other one
					lw = rw
					right = mem.Ref(rw).Untagged()
					continue
				}
				h.preds[lvl], h.predp[lvl] = left, lp
				h.succs[lvl], h.succp[lvl] = right, rp
				above, ap = right, rp
				break
			}
		}
		return
	}
}

// prune leaves every marked node of key unreachable at every level. It
// searches key+1, not key (invariant 4 in the package doc): the walk then
// passes through every node of key, so a marked one is spliced out even
// when an unmarked node of the same key is linked in front of it. Keys are
// <= MaxKey, so key+1 <= tailKey.
func (h *Handle) prune(key int64) { h.search(key + 1) }

// fingerBits sizes a handle's finger table: 2^12 fingers of 24 bytes in 2^10
// sets of fingerWays, 96 KiB per handle that has looked a key up — what the
// direct-mapped table of 2^12 entries it replaced took, since the hit counts
// live in bits every Ref already has. A constant, not a knob. Of 1 Mi
// lookups over the ruler's 2^18 keys, half of them stored (TestFingerHitRate
// pins the counts), the table answers 672 551 of a zipf(0.99) stream
// (64.1 %; direct-mapped 573 890, 54.7 %), 16 332 of a uniform one (1.6 %;
// 16 304) and 654 882 of a zipf stream whose hot set just moved (62.5 %;
// 560 707). Direct-mapped at 2^14 entries it answered 64.5 % of the zipf
// stream: four times the memory for what four ways and hit counts buy.
const fingerBits = 12

// fingerWays is the table's associativity.
const fingerWays = 4

// A fingerSet holds the fingers of up to fingerWays keys that hash alike.
// Way i is the level-0 position this handle last saw for key[i]: the key's
// own node ref[i] (succ[i] nil), or the edge ref[i] → succ[i] that the key
// falls strictly inside; an empty way has ref[i] nil. A finger is a hint and
// protects nothing between operations; probe decides whether it still holds
// (package doc, "Fingers").
//
// ref[i]'s tag bits — mem.TagBits, reserved for the structure and otherwise
// clear on every Ref a finger stores — count the way's hits, 0..3: probe
// bumps the count after a validation succeeds, and remember decays it
// (admit). The keys come first: a set is 96 bytes and the table one
// page-aligned large allocation, so a set starts at 0 or 32 mod 64 and its
// four keys share one cache line — a miss reads that line alone.
type fingerSet struct {
	key       [fingerWays]int64
	ref, succ [fingerWays]mem.Ref
}

// fingerHash picks key's finger set and node index word, by its top bits.
func fingerHash(key int64) uint64 { return uint64(key) * 0x9E3779B97F4A7C15 }

func (h *Handle) setOf(key int64) *fingerSet {
	return &h.fingers[fingerHash(key)>>(64-fingerBits+2)]
}

// way is the way that holds key's finger, or -1.
func (t *fingerSet) way(key int64) int {
	for i := range fingerWays {
		if t.key[i] == key && !t.ref[i].IsNil() {
			return i
		}
	}
	return -1
}

// remember stores key's finger. A key that has a way keeps it, and its
// count; a key that has none is admitted (admit) or refused.
func (h *Handle) remember(key int64, ref, succ mem.Ref) {
	if h.fingers == nil {
		h.fingers = make([]fingerSet, 1<<fingerBits/fingerWays)
	}
	t := h.setOf(key)
	i := t.way(key)
	if i >= 0 {
		ref = ref.WithTag(t.ref[i].Tag())
	} else if i = h.admit(t); i < 0 {
		return
	}
	t.key[i], t.ref[i], t.succ[i] = key, ref, succ
}

// admit picks the way a key without one takes in t: an empty way, else one
// whose count is zero, scanning from a start that rotates per handle. When
// every way has been hit since its last decay it returns -1 — the key is
// refused — and decrements every count, so a key that keeps being asked for
// is admitted by its fourth miss at the latest, and a set whose keys went cold
// empties its counts as the new ones knock (LFU with decay).
func (h *Handle) admit(t *fingerSet) int {
	for i := range fingerWays {
		if t.ref[i].IsNil() {
			return i
		}
	}
	h.victim++
	for j := range uint(fingerWays) {
		if i := int((h.victim + j) % fingerWays); t.ref[i].Tag() == 0 {
			return i
		}
	}
	for i := range fingerWays {
		t.ref[i] = t.ref[i].WithTag(t.ref[i].Tag() - 1)
	}
	return -1
}

// probe answers "where is key at level 0" from the finger, if the finger
// still holds (ok): found with key's node in n/np, covered by the pin slot
// and to be used through np.Get like a node search found, or !found. The
// order is the argument (package doc, "Fingers"): publish, load next[0],
// then the generation — the same incarnation, seen unmarked (or still
// leading to succ) after the publication, is not yet retired. A finger that
// fails is dropped and the caller walks. A caller that walks on "absent"
// anyway — an insert — passes edges false, and an edge finger is left
// untried.
func (h *Handle) probe(key int64, edges bool) (n mem.Ref, np mem.Resolved[node], found, ok bool) {
	if h.fingers == nil {
		return
	}
	t := h.setOf(key)
	i := t.way(key)
	if i < 0 {
		return
	}
	ref, succ := t.ref[i].Untagged(), t.succ[i] // the tag bits are the way's count
	if !edges && !succ.IsNil() {
		return
	}
	if np, ok = h.validate(key, ref, succ); ok {
		t.hit(i)
		if succ.IsNil() {
			return ref, np, true, true
		}
		return 0, np, false, true
	}
	t.key[i], t.ref[i], t.succ[i] = 0, 0, 0
	return
}

// validate is the proof of every hint, a finger's or the node index's
// (package doc, "Fingers"): publish ref in the pin slot, load next[0], then
// the generation — the same incarnation, seen unmarked after the publication
// and either key's node (succ nil) or still leading to succ, is not yet
// retired. np is ref's slot, to be used through np.Get from here on.
func (h *Handle) validate(key int64, ref, succ mem.Ref) (np mem.Resolved[node], ok bool) {
	np, raw, live := h.s.pool.Peek(ref)
	if !live {
		return np, false
	}
	h.guard.Protect(h.hpPin(), ref)
	w := raw.next[0].Load()
	if !np.Live(ref) || isMarked(w) {
		return np, false
	}
	if succ.IsNil() {
		return np, np.Get(ref).key == key
	}
	return np, w == uint64(succ)
}

// hit counts a validated answer from way i, saturating at 3.
func (t *fingerSet) hit(i int) {
	if c := t.ref[i].Tag(); c < 3 {
		t.ref[i] = t.ref[i].WithTag(c + 1)
	}
}

// indexBits sizes a new list's node index: 2^12 words, 32 KiB. The index
// then grows with the pool (fitIndex), not with a knob.
const indexBits = 12

// A nodeIndex is a list's shared table of node hints (package doc, "Node
// index"): word fingerHash(key)>>shift holds the untagged Ref of some key's
// node, or 0. A word is a hint like a finger; validate decides whether it
// still holds, and whether it is key's.
type nodeIndex struct {
	shift uint
	words []atomic.Uint64
}

func newNodeIndex(n int) *nodeIndex {
	return &nodeIndex{shift: uint(64 - bits.Len(uint(n)) + 1), words: make([]atomic.Uint64, n)}
}

func (x *nodeIndex) word(key int64) *atomic.Uint64 { return &x.words[fingerHash(key)>>x.shift] }

// note makes n the hint in key's word. It stores only a Ref the word does
// not already hold, so a hit, or a walk that found what the word names,
// writes no shared line.
func (x *nodeIndex) note(key int64, n mem.Ref) {
	if w := x.word(key); w.Load() != uint64(n) {
		w.Store(uint64(n))
	}
}

// fitIndex returns the index an insert whose node sits in slot i notes into,
// first replacing it with an empty one of the least power-of-two length above
// i/2 when i is at least twice its length: one word per two pool slots. The
// old words are hints, so they are dropped; an inserter that loses the swap
// looks again.
func (s *SkipList) fitIndex(i uint32) *nodeIndex {
	for {
		x := s.index.Load()
		if uint64(i) < 2*uint64(len(x.words)) {
			return x
		}
		s.index.CompareAndSwap(x, newNodeIndex(1<<bits.Len32(i>>1)))
	}
}

// byIndex answers "is key's node where the node index says" after a finger
// miss: key's node, validated exactly like a node finger — so in the pin
// slot, for np.Get — and remembered as one, or !ok.
func (h *Handle) byIndex(key int64) (n mem.Ref, np mem.Resolved[node], ok bool) {
	n = mem.Ref(h.s.index.Load().word(key).Load())
	if n.IsNil() {
		return
	}
	if np, ok = h.validate(key, n, 0); ok {
		h.remember(key, n, 0)
	}
	return
}

// hint is probe, then byIndex if the finger fails: where a hint says key is
// at level 0 (ok), or !ok when the caller must walk.
func (h *Handle) hint(key int64, edges bool) (n mem.Ref, np mem.Resolved[node], found, ok bool) {
	if n, np, found, ok = h.probe(key, edges); !ok {
		n, np, ok = h.byIndex(key)
		found = ok
	}
	return
}

// locate finds key's level-0 position — by a hint or, failing that, by a
// walk that notes the node it found in the index. When found, n is key's
// node, protected and resolved (np) for the rest of the operation.
func (h *Handle) locate(key int64) (n mem.Ref, np mem.Resolved[node], found bool) {
	if n, np, found, ok := h.hint(key, true); ok {
		return n, np, found
	}
	if n, np, found = h.walk(key); found {
		h.s.index.Load().note(key, n)
	}
	return n, np, found
}

// walk is locate's miss path: search, and remember what the walk found. A
// node found is covered by level 0's slot pair, not the pin.
func (h *Handle) walk(key int64) (n mem.Ref, np mem.Resolved[node], found bool) {
	h.search(key)
	n, np = h.succs[0], h.succp[0]
	if np.Get(n).key != key {
		h.remember(key, h.preds[0], n)
		return n, np, false
	}
	h.remember(key, n, 0)
	return n, np, true
}

// Contains reports whether key is in the set. Reserved keys (outside
// [MinKey, MaxKey]) are never present.
func (h *Handle) Contains(key int64) bool {
	if reserved(key) {
		return false
	}
	h.guard.Begin()
	_, _, found := h.locate(key)
	h.guard.ClearHPs()
	return found
}

// Insert adds key; false if already present or reserved.
func (h *Handle) Insert(key int64) bool { return h.upsertWord(key, 0, nil, false) }

// upsertWord is the shared insert/put core. The value is the word w or,
// when spill is set, spill's bytes (longer than MaxInline). Absent key: it
// links a new node holding the value — a spilled one in the node's own
// payload, under a self word (value.go) — and returns true. Present key: when
// upsert is set it installs the value into the existing node (overwrite) and
// returns false either way. The public byte/uint64 entry points live in
// value.go.
func (h *Handle) upsertWord(key int64, w uint64, spill []byte, upsert bool) bool {
	if reserved(key) {
		// Inserting tailKey would upsert the tail sentinel's value word;
		// inserting headKey would link a node Validate cannot order
		// against the head. Both are rejected, not "already present".
		return false
	}
	h.guard.Begin()
	defer h.guard.ClearHPs()
	if n, np, found, _ := h.hint(key, false); found {
		if upsert {
			h.overwrite(n, np, w, spill)
		}
		return false
	}
	pool := h.s.pool
	topLevel := h.randomLevel()
	var nref mem.Ref
	var np mem.Resolved[node] // our node; pinned below, re-checked at every use all the same
	vw := w                   // the word our node carries
	for {
		h.search(key)
		if h.succp[0].Get(h.succs[0]).key == key {
			h.remember(key, h.succs[0], 0)
			h.s.index.Load().note(key, h.succs[0])
			if upsert {
				h.overwrite(h.succs[0], h.succp[0], w, spill)
			}
			if !nref.IsNil() {
				h.cache.Free(nref) // never linked: free directly
			}
			return false
		}
		if nref.IsNil() {
			var nptr *node
			nref, nptr = h.cache.Alloc()
			np = pool.Resolve(nref)
			nptr.key = key
			nptr.topLevel = int32(topLevel)
			nptr.setHeight(topLevel)
			if spill != nil {
				nptr.payload.Set(spill) // written once, before the link publishes it
				vw = uint64(nref)
			}
			nptr.val.Store(vw)
			nptr.state.Store(stLinking) // recycled slots carry stale states
			for l := 1; l < topLevel; l++ {
				// Upper next words stay nil until the level's link
				// attempt claims them (below): a recycled slot's
				// stale words — or a reused upper array's — must
				// never be publishable, and a word is meaningful
				// only from its claim on.
				nptr.link(l).Store(0)
			}
		}
		np.Get(nref).link(0).Store(uint64(h.succs[0]))
		// Pin our node: a concurrent deleter may retire it the moment
		// it is reachable, but we keep dereferencing it below.
		h.guard.Protect(h.hpPin(), nref)
		if !h.predp[0].Get(h.preds[0]).link(0).CompareAndSwap(uint64(h.succs[0]), uint64(nref)) {
			continue // contention at level 0: retry with fresh position
		}
		h.s.noteInstall(vw, len(spill))
		h.remember(key, nref, 0)
		h.s.fitIndex(nref.Index()).note(key, nref)
		break // linked: the insert has taken effect
	}
	// Link the upper levels, one claim-then-link step per attempt: claim
	// our own next[l] — a CAS from its previous value to the freshly
	// searched succs[l] — and only then CAS the predecessor edge from that
	// same succs[l] to us. The pairing is the load-bearing part of
	// invariant 3 (package doc): the successor our word holds when a
	// deleter freezes it is the one the link CAS just proved reachable,
	// never a stale value from an earlier search. The claim doubles as the
	// mark check: deletion marks levels top-down before level 0, the mark
	// can only land on the claimed word (our CAS would fail on a marked
	// expected value), and a mark observed here makes the level — and all
	// levels above it — permanently dead: we never publish again, run one
	// more search to prune anything a racing cleanup pass missed, and
	// finishInsert takes over the retirement if the deleter abandoned it
	// to us mid-link. A mark that lands in the window between claim and
	// link CAS re-links us transiently; that is safe (the frozen successor
	// is the fresh one) and the next level's claim — or the level-0 check
	// below — observes the top-down mark and prunes.
	for l := 1; l < topLevel; l++ {
		for {
			w := np.Get(nref).link(l).Load()
			for w != uint64(h.succs[l]) {
				if isMarked(w) {
					h.prune(key) // final cleanup pass, then done
					h.finishInsert(nref, np, key)
					return true
				}
				if np.Get(nref).link(l).CompareAndSwap(w, uint64(h.succs[l])) {
					break
				}
				w = np.Get(nref).link(l).Load() // a deleter marked under us
			}
			if h.predp[l].Get(h.preds[l]).link(l).CompareAndSwap(uint64(h.succs[l]), uint64(nref)) {
				break
			}
			h.search(key) // refresh preds/succs for the next claim
			if h.succs[0] != nref {
				// Our node was deleted and already pruned by the
				// search we just ran.
				h.finishInsert(nref, np, key)
				return true
			}
		}
	}
	// Deletion may have raced the top link; ensure cleanup before unpinning.
	if isMarked(np.Get(nref).link(0).Load()) {
		h.prune(key)
	}
	h.finishInsert(nref, np, key)
	return true
}

// finishInsert ends the linking phase: no further level can be (re-)linked
// after it. If the deleter already finished its cleanup in the meantime, it
// abandoned the retirement to us (see the state constants); the node is
// marked at every level, so one more prune unlinks it, and we retire it
// while still holding the pin.
func (h *Handle) finishInsert(nref mem.Ref, np mem.Resolved[node], key int64) {
	if np.Get(nref).state.CompareAndSwap(stLinking, stDone) {
		return
	}
	h.prune(key)
	h.s.sRetires.Add(1)
	h.guard.Retire(nref)
}

// Delete removes key; false if absent. Levels are marked top-down; whoever
// marks level 0 owns the deletion, physically unlinks with a search, and
// retires the node (Fraser's protocol; retire placement per Appendix B).
func (h *Handle) Delete(key int64) bool {
	if reserved(key) {
		// Deleting tailKey would mark and retire the tail sentinel while
		// every search still routes through it — a use-after-free any
		// caller (e.g. a TCP peer of qsense-kvd) could trigger.
		return false
	}
	h.guard.Begin()
	defer h.guard.ClearHPs()
	n, np, found, ok := h.hint(key, true) // a hint's node is already in the pin slot
	if !ok {
		// Pin n before marking: the cleanup search recycles level 0's
		// slot pair. The pin copy is published strictly before n's
		// retirement (this deleter retires it after the search), so every
		// conclusive snapshot sees it.
		if n, np, found = h.walk(key); found {
			h.guard.Protect(h.hpPin(), n)
		}
	}
	if !found {
		return false
	}
	topLevel := int(np.Get(n).topLevel)
	for l := topLevel - 1; l >= 1; l-- {
		for {
			w := np.Get(n).link(l).Load()
			if isMarked(w) {
				break
			}
			if np.Get(n).link(l).CompareAndSwap(w, w|markBit) {
				break
			}
		}
	}
	for {
		w := np.Get(n).link(0).Load()
		if isMarked(w) {
			return false // another deleter owns it
		}
		if np.Get(n).link(0).CompareAndSwap(w, w|markBit) {
			// Winning the level-0 mark also wins the value: displace it
			// with the tombstone and retire a spilled value node exactly
			// once, while the pin still protects n. Readers that load the
			// tombstone linearize after this delete (value.go); later
			// upserts observe it and refuse to resurrect the node.
			h.retireDisplaced(n, np, np.Get(n).val.Swap(valTombstone))
			h.prune(key) // physical cleanup at every level
			// What prune found is where key is now: the edge over it, or —
			// if another worker re-inserted key behind us — its new node
			// (an edge over that node would answer "absent").
			if p := h.preds[0]; h.predp[0].Get(p).key < key {
				h.remember(key, p, h.succs[0])
			} else {
				h.remember(key, p, 0)
			}
			// Retirement ownership: if n's inserter is still linking
			// upper levels, it can re-link a level our search already
			// passed — retiring now would leave a reachable retired
			// node. Hand the retirement over (state constants above);
			// the inserter prunes and retires in finishInsert. A node
			// whose insert has completed is strictly unreachable here.
			if st := &np.Get(n).state; st.Load() == stLinking && st.CompareAndSwap(stLinking, stAbandoned) {
				return true
			}
			h.s.sRetires.Add(1)
			h.guard.Retire(n)
			return true
		}
	}
}

// Len counts unmarked level-0 nodes; only meaningful when quiesced.
func (s *SkipList) Len() int {
	n := 0
	for r := mem.Ref(s.pool.Get(s.head).link(0).Load()).Untagged(); r != s.tail; {
		w := s.pool.Get(r).link(0).Load()
		if !isMarked(w) {
			n++
		}
		r = mem.Ref(w).Untagged()
	}
	return n
}

// Validate checks structural invariants when quiesced: every level sorted,
// every upper-level node present at level 0, and every tower whole — an
// unmarked level-0 node of height h is linked, unmarked, at every level below
// h and at none above. Returns the unmarked level-0 count and an error
// description ("" if OK).
func (s *SkipList) Validate() (int, string) {
	pool := s.pool
	level0 := map[mem.Ref]int64{}
	prevKey := int64(headKey)
	n := 0
	for r := mem.Ref(pool.Get(s.head).link(0).Load()).Untagged(); r != s.tail; {
		if r.IsNil() {
			return n, "nil link at level 0"
		}
		nd := pool.Get(r)
		w := nd.link(0).Load()
		if !isMarked(w) {
			if nd.key <= prevKey {
				return n, "level 0 keys not strictly increasing"
			}
			prevKey = nd.key
			level0[r] = nd.key
			n++
		}
		r = mem.Ref(w).Untagged()
	}
	linked := map[mem.Ref]int{} // upper levels a node is linked at, unmarked
	for l := 1; l < s.levels; l++ {
		prev := int64(headKey)
		for r := mem.Ref(pool.Get(s.head).link(l).Load()).Untagged(); r != s.tail; {
			if r.IsNil() {
				return n, "nil link above level 0"
			}
			nd := pool.Get(r)
			w := nd.link(l).Load()
			if !isMarked(w) {
				if nd.key <= prev {
					return n, "upper level keys not strictly increasing"
				}
				prev = nd.key
				if int(nd.topLevel) <= l {
					return n, "node linked above its tower height"
				}
				if _, ok := level0[r]; !ok {
					return n, "upper level node missing from level 0"
				}
				linked[r]++
			}
			r = mem.Ref(w).Untagged()
		}
	}
	for r := range level0 {
		if linked[r] != int(pool.Get(r).topLevel)-1 {
			return n, "tower not linked at every level below its height"
		}
	}
	return n, ""
}
