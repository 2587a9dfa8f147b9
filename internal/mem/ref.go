// Package mem is the manual-memory substrate the reclamation schemes manage.
//
// The paper (QSense, SPAA 2016) targets C/C++, where nodes are malloc'd and
// the whole point of safe memory reclamation is deciding when free may be
// called. Go's garbage collector makes a literal port meaningless: a freed
// node would still be kept alive by any stale pointer. This package restores
// the problem: data-structure nodes live in typed slab pools and are named by
// generation-tagged handles (Ref). Free really recycles the slot, and any
// later access through a stale Ref is detected (generation mismatch) and
// reported as a Violation — the analog of a use-after-free segfault.
//
// Layout of a Ref (64 bits):
//
//	bits 0..1   reserved for the data structure (mark / flag / tag bits)
//	bits 2..33  slot index + 1 (0 means nil)
//	bits 34..63 30-bit allocation generation (always odd for live refs)
//
// The two low bits let lock-free structures pack their deletion marks into
// the same word they CAS, exactly as the C implementations pack them into
// pointer low bits.
//
// Turning a Ref into memory has two prices. Pool.Resolve (and Pool.Get, the
// same code) walks directory → slab → slot and checks the generation: three
// dependent loads before the node's own line is touched. A traversal that
// uses a node more than once keeps the Resolved it got back and calls
// Resolved.Get for every later use: the same generation check, on the
// address already in hand — one load and compare on the node's own cache
// line, inlined into the caller. The check stays on every use, not only the
// first, because the pool exists to make a stale access loud: a reclamation
// bug frees the node between two uses as readily as before the first, and a
// carried raw pointer would read the recycled slot without a word. What a
// Resolved saves is the re-walk, never the check.
//
// One kind of reader holds a Ref that nothing protects — the skip list's
// node index words, hints kept across operations, and its Prefetch, which
// loads what they name ahead of a batch of lookups. For it a stale Ref is
// news, not a fault: Pool.Peek and Resolved.Live are the same check
// reported instead of raised, and what such a reader has validated it uses
// through Get like everyone else.
//
// Nodes are not limited to fixed-shape links: a node type may embed a Value
// (a length-prefixed byte payload) so variable-length data — the SkipMap's
// spilled byte values — lives in pool slots under the same generation
// tags, the same Free, and the same birth-era stamps as the structure
// itself. A displaced value node retires through the owning domain exactly
// like an unlinked structural node; see Value for the write-once publish
// discipline that makes guarded reads of it conclusive.
package mem

import "fmt"

// Ref is a generation-tagged handle to a pool slot. The zero Ref is nil.
type Ref uint64

const (
	// TagBits is the number of low bits of a Ref reserved for data
	// structure use (deletion marks, edge flags and tags).
	TagBits = 2

	idxBits  = 32
	genShift = TagBits + idxBits
	idxMask  = 1<<idxBits - 1
	genBits  = 30
	// GenMask extracts the generation bits once shifted down.
	genMask = 1<<genBits - 1

	tagMask Ref = 1<<TagBits - 1
)

// makeRef builds a canonical (untagged) Ref from a slot index and generation.
func makeRef(idx uint32, gen uint32) Ref {
	return Ref(uint64(gen&genMask)<<genShift | (uint64(idx)+1)<<TagBits)
}

// MakeRef builds a canonical (untagged) Ref from a slot index and
// generation. Its only callers are internal/reclaim's tests, which forge
// Refs of one slot across generations; Pool-produced Refs always come from
// Alloc.
func MakeRef(idx, gen uint32) Ref { return makeRef(idx, gen) }

// IsNil reports whether r refers to no slot (ignoring tag bits).
func (r Ref) IsNil() bool { return r&^tagMask == 0 }

// Untagged returns r with the data-structure tag bits cleared. Pool lookups
// require an untagged Ref; data structures call this after loading a link
// word that may carry marks.
func (r Ref) Untagged() Ref { return r &^ tagMask }

// Tag returns the data-structure tag bits (low TagBits bits) of r.
func (r Ref) Tag() uint64 { return uint64(r & tagMask) }

// WithTag returns r with the given tag bits set (existing tags cleared).
func (r Ref) WithTag(tag uint64) Ref { return r.Untagged() | Ref(tag)&tagMask }

// index returns the slot index encoded in r. Only valid when !r.IsNil().
func (r Ref) index() uint32 {
	return uint32(uint64(r)>>TagBits&idxMask) - 1
}

// gen returns the generation encoded in r.
func (r Ref) gen() uint32 { return uint32(uint64(r)>>genShift) & genMask }

// Index returns the slot index encoded in r. Only valid when !r.IsNil().
// Schemes that keep per-slot side tables (reference counting) key them by
// Index; the substrate guarantees indexes are dense and reused.
func (r Ref) Index() uint32 { return r.index() }

// Gen returns the allocation generation encoded in r (odd for live refs).
func (r Ref) Gen() uint32 { return r.gen() }

// String implements fmt.Stringer for debugging.
func (r Ref) String() string {
	if r.IsNil() {
		if r.Tag() != 0 {
			return fmt.Sprintf("nil|tag%d", r.Tag())
		}
		return "nil"
	}
	s := fmt.Sprintf("ref(idx=%d,gen=%d", r.index(), r.gen())
	if t := r.Tag(); t != 0 {
		s += fmt.Sprintf(",tag=%d", t)
	}
	return s + ")"
}

// Violation describes a detected memory-safety violation: a use-after-free,
// a double free, or a free of a foreign/stale reference. It is the substrate
// analog of a segmentation fault, raised by panic so that broken reclamation
// configurations fail loudly in tests.
type Violation struct {
	Op   string // "get", "free"
	Ref  Ref
	Want uint32 // generation the Ref expected
	Got  uint32 // generation the slot currently holds
}

func (v *Violation) Error() string {
	return fmt.Sprintf("mem: %s violation on %v: slot generation %d, reference generation %d",
		v.Op, v.Ref, v.Got, v.Want)
}
