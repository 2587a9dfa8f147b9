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
// splice (and an index edge's successor, "Node index" below), one pin slot
// that insert/delete hold on their own node and a hint on the node its word
// names, and one value slot that covers a spilled value node while its bytes
// are copied out — 2*levels+3 in total, exactly the paper's "up to 35 hazard
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
// # Node index
//
// A walk is ≈ 24 dependent cache misses and half the keys asked for were
// asked for a moment ago, so a lookup has one place to look before it walks:
// the list's node index, a power-of-two array of words (nodeIndex) shared by
// every handle. Word indexHash(key) holds one untagged Ref, or 0, in one of
// two forms. In node form it names key's node: a walk by locate or an upsert
// that found the node notes it, and so does an insert after its level-0
// link. In edge form it names a node below key: the level-0 predecessor that
// a walk which found key absent ended at, or that Delete's prune ended at
// (key's own node, if another worker re-inserted key behind the deleter).
// Contains, Get, GetAppend and Delete ask the word first (hint) and walk only
// if it fails; an upsert asks for the node form alone (byIndex), since an
// insert needs preds at every level and walks either way. A Delete that
// found its node by the word skips the first walk, not prune's. note stores
// only a Ref the word does not already hold, so a hit, or a walk that found
// what the word names, writes no shared line.
//
// A word holds no protection between operations (TestFingersPinNothing), and
// what it names may be retired, freed, recycled — into the same key, even —
// or another key's node: two keys share a word. hint checks, in this order:
//
//	Peek (generation) → Protect(pin) → load next[0] → generation again
//	→ word unmarked, and then by the node's key:
//	  == key: key's node
//	  >  key: refused
//	  <  key: Protect(scratch, succ = next[0]) → re-load next[0] == succ
//	          → succ's key > key: key absent
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
// word was noted, so at or below the upper bound Protect just raised, and
// its retire era cannot precede the reservation's lower bound (Begin) — the
// lifetime meets the reservation.
// hyaline: enter (Begin) precedes the retire, so the batch waits for this
// guard. rc: acquire succeeds only on the generation asked for, and a held
// count blocks the free. From there the node sits in the pin slot and is
// used through Resolved.Get like any node search found: freed now, it faults
// (TestFingerDetection). In node form the key compare is what makes it key's
// node; a node above key proves nothing, and the caller walks.
//
// In edge form the node n is below key, and the edge is read live, not
// stored. The re-load is conclusive for succ as search's per-hop
// re-validation is for its right (invariants 1–3): n is pinned and was
// unretired at the first load, so the re-load reads the same incarnation,
// and reads it unmarked, so n — on level 0 when the word was noted, and
// unlinked from level 0 only once marked — is on level 0 still, and n → succ
// is a clean edge at the instant of the re-load, which follows succ's
// publication. succ's deleter must splice it out of that edge, or out of the
// frozen word n leaves if n is marked later (invariant 3), before it may
// retire it (invariant 1), and an edge it was spliced out of never names it
// again (invariant 2): succ was unretired when the scratch publication took
// effect, and the scratch slot covers it like a search's slot while its key
// is read through Resolved.Get. Level 0 is sorted, so an unmarked n below
// key leading straight to succ past key, at one instant, leaves no node of
// key on level 0 then: key is absent. Nothing in that argument asks which
// key wrote the word or when: any bracketing edge proves absence. An edge
// that no longer brackets key — succ is key's node, or below it — is refused
// and the caller walks; so is a marked n, whose frozen next[0] is no edge of
// level 0.
//
// The first generation check only spares a publication for words that are
// long dead; the second is the proof, and it must come after the load.
// Without it the slot can be freed and re-allocated between the first check
// and the load — the publication in between is not yet conclusive — and
// next[0] of the new tenant read as the old node's: a fault on a correct
// scheme at best, a wrong answer at worst. Without the re-load, succ can be
// deleted and freed between the first load and its publication, and reading
// its key faults. Without the order check, an edge that key's insert closed
// answers "absent" for a present key. Each is a row of TestFingerDetection;
// testdata/mutants holds those edits, beside the mark check and the key
// compare dropped, a retired self value and a stale upper array, and kill.sh
// shows the tests that fail on each. A 30-bit generation that wraps hands
// out a bit-identical live Ref, as it can for every Ref in this repository;
// the key compares after validation are what make that harmless.
//
// Why one word and no count: a word is one atomic store and one atomic load,
// so an entry cannot tear between a reader and a writer, and a hit writes
// nothing — a hit count would make every hit a store to a line the other
// handles read. Why an edge fits one word: it needs only its predecessor,
// since the successor is read live, and a predecessor that any key noted
// serves every key it brackets. A handle keeps no table of its own, so a
// connection costs the same whatever it asks for.
//
// Sizing: 2^12 words (32 KiB) at New, then one word per pool slot. An insert
// whose node sits at slot index i >= len replaces the index with one of the
// least power-of-two length above i (fitIndex), each of whose words starts as
// the old word its keys hashed to (grown): the hints survive the growth, and
// a word that now serves fewer keys is refused for the others like any other
// key's word. So the index allocates only when the pool grows, and its
// memory follows the stored keys, whatever the number of handles: kv-read's
// 2^17 keys settle at 2^18 words, 2 MiB beside 16 MiB of nodes. With two
// handles taking a stream's lookups in turn over the 2^18 keys, half of them
// stored (TestIndexHitRate), the edge form answers 462 300 of 1 Mi zipf
// lookups, the node form 535 236, and 51 040 walk (4.9 %); of a uniform
// stream, 459 638, 461 511 and 127 427 (12.2 %). Dropping the old words at a
// growth instead — the fill's last insert doubles the index — left 68 026 and
// 128 836 to walk. At one word per two slots, where absent keys had to share
// the words of present ones, 17.1 % of the zipf stream and 50.1 % of the
// uniform one walked.
//
// Prefetch: a server that holds a pipelined batch of keys can have their
// first touches overlap instead of paying them one lookup at a time.
// Handle.Prefetch loads, for up to 64 keys at a time, every key's word, then
// the first line and next[2] (the second line, where a self value's header
// sits) of each node a word names, then each such node's level-0 successor —
// what hint's Peek, load and key reads will touch. Those loads protect
// nothing and validate nothing, and they are safe for the reason VBR
// (PAPERS.md) gives for its optimistic reads: pool slots are type-stable
// memory — a slab is never given back, so any Ref a word or a link word ever
// held resolves to a slot of node type, whatever its tenant now — and every
// word a node's next[0] holds is 0 or such a Ref. They are atomic loads,
// because the slot may be scrubbed or relinked under them, go through Peek
// and no Resolve or Get, because a stale Ref there is news and not a fault
// (TestFingerDetection's prefetch rows), and publish nothing, so what they
// loaded is reclaimed as if they had not run (TestPrefetchPinsNothing). What
// they load decides nothing: the operation that follows validates its word
// from scratch, and a self value's bytes, behind a slice header only a
// validated read may follow, are not touched.
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
// zero, the atomic words by atomic store — a hint's validation may be loading
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

// indexHash picks key's node index word, by its top bits.
func indexHash(key int64) uint64 { return uint64(key) * 0x9E3779B97F4A7C15 }

// indexBits sizes a new list's node index: 2^12 words, 32 KiB. The index
// then grows with the pool (fitIndex), not with a knob.
const indexBits = 12

// A nodeIndex is a list's shared table of hints (package doc, "Node index"):
// word indexHash(key)>>shift holds the untagged Ref of key's node, of a node
// below key, or 0. hint decides whether a word still holds, and what it
// answers.
type nodeIndex struct {
	shift uint
	words []atomic.Uint64
}

func newNodeIndex(n int) *nodeIndex {
	return &nodeIndex{shift: uint(64 - bits.Len(uint(n)) + 1), words: make([]atomic.Uint64, n)}
}

func (x *nodeIndex) word(key int64) *atomic.Uint64 { return &x.words[indexHash(key)>>x.shift] }

// note makes n the hint in key's word. It stores only a Ref the word does
// not already hold, so a hit, or a walk that found what the word names,
// writes no shared line.
func (x *nodeIndex) note(key int64, n mem.Ref) {
	if w := x.word(key); w.Load() != uint64(n) {
		w.Store(uint64(n))
	}
}

// fitIndex returns the index an insert whose node sits in slot i notes into,
// first replacing it with a grown one of the least power-of-two length above
// i when i is not below its length: one word per pool slot. An inserter that
// loses the swap looks again.
func (s *SkipList) fitIndex(i uint32) *nodeIndex {
	for {
		x := s.index.Load()
		if int(i) < len(x.words) {
			return x
		}
		s.index.CompareAndSwap(x, x.grown(1<<bits.Len32(i)))
	}
}

// grown returns an index of n words that keeps x's hints: a key's word in the
// new index is word j, and in x it was word j>>d, d the growth in bits, so
// word j starts as that word. No key is read: a word may name any node. A
// note that lands in x during the copy is lost, as a hint may be.
func (x *nodeIndex) grown(n int) *nodeIndex {
	y := newNodeIndex(n)
	d := x.shift - y.shift
	for j := range y.words {
		y.words[j].Store(x.words[j>>d].Load())
	}
	return y
}

// byIndex validates key's word (package doc, "Node index"): publish its node
// in the pin slot, load next[0], then the generation — the same incarnation,
// seen unmarked after the publication, is not yet retired. n is that node,
// for np.Get, and w the next[0] word the load read; !ok if the word is empty
// or its node gone.
func (h *Handle) byIndex(key int64) (n mem.Ref, np mem.Resolved[node], w uint64, ok bool) {
	n = mem.Ref(h.s.index.Load().word(key).Load())
	if n.IsNil() {
		return
	}
	np, raw, live := h.s.pool.Peek(n)
	if !live {
		return
	}
	h.guard.Protect(h.hpPin(), n)
	w = raw.next[0].Load()
	return n, np, w, np.Live(n) && !isMarked(w)
}

// hint answers key from its node index word: key's node, pinned, for np.Get
// (found), or key absent by the edge from the node the word names (ok,
// !found), or !ok when the caller must walk. The edge is read live: its
// successor published in the scratch slot, the edge re-loaded unchanged, and
// the successor's key past key.
func (h *Handle) hint(key int64) (n mem.Ref, np mem.Resolved[node], found, ok bool) {
	n, np, w, ok := h.byIndex(key)
	if !ok {
		return
	}
	if nk := np.Get(n).key; nk >= key {
		return n, np, nk == key, nk == key
	}
	succ := mem.Ref(w)
	h.guard.Protect(h.hpScratch(), succ)
	if np.Get(n).next[0].Load() != w {
		return n, np, false, false
	}
	return n, np, false, h.s.pool.Resolve(succ).Get(succ).key > key
}

// locate finds key's level-0 position — by a hint or, failing that, by a
// walk that notes the node it found in the index. When found, n is key's
// node, protected and resolved (np) for the rest of the operation.
func (h *Handle) locate(key int64) (n mem.Ref, np mem.Resolved[node], found bool) {
	if n, np, found, ok := h.hint(key); ok {
		return n, np, found
	}
	if n, np, found = h.walk(key); found {
		h.s.index.Load().note(key, n)
	}
	return n, np, found
}

// walk is locate's miss path: search, and note the edge's predecessor in the
// index if key is absent. A node found is covered by level 0's slot pair, not
// the pin.
func (h *Handle) walk(key int64) (n mem.Ref, np mem.Resolved[node], found bool) {
	h.search(key)
	n, np = h.succs[0], h.succp[0]
	if found = np.Get(n).key == key; !found {
		h.s.index.Load().note(key, h.preds[0])
	}
	return n, np, found
}

// prefetchKeys is how many keys each of Prefetch's passes covers at a time.
const prefetchKeys = 64

// Prefetch loads what the lookups of keys will touch first (package doc,
// "Prefetch"), in three passes over up to 64 keys at a time so that their
// cache misses overlap: each key's index word; the node the word names — its
// first line, through Peek, and its second, through next[2]; and that node's
// level-0 successor. Atomic loads only, with no Protect, Resolve or Get,
// because a word may name a freed or recycled slot; it stores nothing and
// answers nothing.
func (h *Handle) Prefetch(keys []int64) {
	x, pool := h.s.index.Load(), h.s.pool
	var refs [prefetchKeys]mem.Ref
	for len(keys) > 0 {
		batch := keys[:min(len(keys), prefetchKeys)]
		keys = keys[len(batch):]
		for i, key := range batch {
			refs[i] = mem.Ref(x.word(key).Load())
		}
		for i, n := range refs[:len(batch)] {
			if !n.IsNil() {
				_, raw, _ := pool.Peek(n)
				refs[i] = mem.Ref(raw.next[0].Load()).Untagged()
				raw.next[2].Load()
			}
		}
		for _, succ := range refs[:len(batch)] {
			if !succ.IsNil() {
				pool.Peek(succ)
			}
		}
	}
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
	if n, np, _, ok := h.byIndex(key); ok && np.Get(n).key == key {
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
	n, np, found, ok := h.hint(key) // an index word's node is already in the pin slot
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
			// What prune found is where key is now: below it, or key's
			// node if another worker re-inserted key behind us.
			h.s.index.Load().note(key, h.preds[0])
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
