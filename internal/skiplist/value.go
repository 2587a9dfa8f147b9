package skiplist

import (
	"math/bits"

	"qsense/internal/mem"
)

// Value representation. A node's val word holds one of three shapes,
// distinguished by the low bits (an untagged mem.Ref always has its low
// mem.TagBits bits clear, so the encodings cannot collide):
//
//	w == 0                   empty value (Insert-created nodes)
//	bit 0 set                inline: bits 1..3 the length (0..MaxInline),
//	                         payload little-endian from bit 8 up
//	w == valTombstone (2)    node deleted; the value has been displaced
//	otherwise                spilled: w is the untagged Ref of a value node
//	                         (same pool as structural nodes) whose payload
//	                         carries the bytes
//
// Spilled value nodes are single-publish: a value Ref is installed into
// exactly one node's val word by exactly one writer (the upsert that
// allocated it), and displaced exactly once — by a later upsert's CAS or
// the deleter's tombstone swap — whose winner retires it through the
// domain. Between install and displacement the payload is read-only.
//
// # Spilled-value linearization argument
//
// A reader that finds a spilled word w protects the Ref in the dedicated
// value slot (hpVal), re-loads the val word, and only copies the payload
// if the word is still w. The pair is conclusive, mirroring the
// clean-edge argument in the package doc: a successful revalidation
// proves the displacement CAS had not happened when the word was
// re-loaded, so the protection was published (with Protect's store-load
// fence) strictly before the displacing writer could retire the Ref —
// any scan that could free it must see the protection. Single-publish
// words make the check ABA-free: a value Ref never re-enters a val word,
// and a recycled slot's new Ref differs in generation. For interval
// schemes (ibr), Protect widens the reservation to the current era; the
// value node's birth is no later than that era (it was live at the
// revalidation) and its retire stamp is no earlier than the reservation's
// lower bound (the displacement follows the reader's Begin), so the
// lifetime overlaps the reservation and the node cannot be freed until
// the guard clears. A reader that instead observes valTombstone
// linearizes after the delete and reports the key absent.
const (
	valInlineBit = 1 // bit 0: value stored in the word itself
	valLenShift  = 1
	valLenMask   = 7
	valDataShift = 8

	// valTombstone marks a deleted node's displaced value word. Bit 1 set
	// with bit 0 clear can be neither an inline word nor an untagged Ref.
	valTombstone = 2

	// MaxInline is the longest payload stored inside the value word.
	MaxInline = 7
)

// inlineWord packs b (len <= MaxInline) into an inline value word.
func inlineWord(b []byte) uint64 {
	w := uint64(valInlineBit) | uint64(len(b))<<valLenShift
	for i, c := range b {
		w |= uint64(c) << (valDataShift + 8*i)
	}
	return w
}

func inlineLen(w uint64) int { return int(w >> valLenShift & valLenMask) }

// appendInline decodes an inline word's payload onto dst.
func appendInline(dst []byte, w uint64) []byte {
	n := inlineLen(w)
	for i := 0; i < n; i++ {
		dst = append(dst, byte(w>>(valDataShift+8*i)))
	}
	return dst
}

// ValueStats is a snapshot of the list's value-arena gauges.
type ValueStats struct {
	Bytes         int64  // live value payload bytes (inline + spilled)
	Spilled       int64  // live spilled value nodes
	ValueRetires  uint64 // value nodes retired through the domain
	StructRetires uint64 // structural nodes retired through the domain
}

// ValueStats returns the list's value gauges. Gauges are updated with racy
// atomics and may be transiently off by in-flight upserts.
func (s *SkipList) ValueStats() ValueStats {
	return ValueStats{
		Bytes:         s.vBytes.Load(),
		Spilled:       s.vSpilled.Load(),
		ValueRetires:  s.vRetires.Load(),
		StructRetires: s.sRetires.Load(),
	}
}

// noteInstall records a value word entering a reachable node. vlen is the
// spilled payload length, threaded from the caller: once the word is
// published a concurrent upsert may displace and retire it, so the slot
// itself must not be dereferenced here.
func (s *SkipList) noteInstall(w uint64, vlen int) {
	switch {
	case w == 0 || w == valTombstone:
	case w&valInlineBit != 0:
		s.vBytes.Add(int64(inlineLen(w)))
	default:
		s.vBytes.Add(int64(vlen))
		s.vSpilled.Add(1)
	}
}

// retireDisplaced releases a displaced value word: inline words only adjust
// the gauges; a spilled Ref is retired through the caller's guard (the
// displacing CAS/swap winner owns it — see the single-publish discipline
// above).
func (h *Handle) retireDisplaced(w uint64) {
	s := h.s
	switch {
	case w == 0 || w == valTombstone:
	case w&valInlineBit != 0:
		s.vBytes.Add(-int64(inlineLen(w)))
	default:
		r := mem.Ref(w)
		s.vBytes.Add(-int64(s.pool.Get(r).payload.Len()))
		s.vSpilled.Add(-1)
		s.vRetires.Add(1)
		h.guard.Retire(r)
	}
}

// spillWord allocates a value node for b and returns its word. The node is
// unpublished until an upsert installs the word; a caller whose word is not
// consumed must free it with unspill.
func (h *Handle) spillWord(b []byte) uint64 {
	vref, vp := h.cache.Alloc()
	vp.payload.Set(b)
	return uint64(vref)
}

func (h *Handle) unspill(w uint64) { h.cache.Free(mem.Ref(w)) }

// updateValue installs neww into a live node's value word and retires the
// displaced word. False if the node was deleted first (its word is the
// tombstone): the caller's update linearizes immediately before that delete
// and neww was not consumed. vlen is neww's spilled payload length (see
// noteInstall).
func (h *Handle) updateValue(n mem.Ref, np mem.Resolved[node], neww uint64, vlen int) bool {
	for {
		val := &np.Get(n).val
		old := val.Load()
		if old == valTombstone {
			return false
		}
		if val.CompareAndSwap(old, neww) {
			h.s.noteInstall(neww, vlen)
			h.retireDisplaced(old)
			return true
		}
	}
}

// readValue copies the value of a node the caller located (and still
// protects) with search, appending to dst. False if the node was deleted
// (tombstone) — the read linearizes after that delete. Spilled payloads are
// copied under the hpVal protection per the linearization argument above.
func (h *Handle) readValue(n mem.Ref, np mem.Resolved[node], dst []byte) ([]byte, bool) {
	for {
		w := np.Get(n).val.Load()
		switch {
		case w == valTombstone:
			return dst, false
		case w == 0:
			return dst, true
		case w&valInlineBit != 0:
			return appendInline(dst, w), true
		default:
			r := mem.Ref(w)
			h.guard.Protect(h.hpVal(), r)
			if np.Get(n).val.Load() != w {
				continue // displaced under us: the protection is inconclusive
			}
			return h.s.pool.Get(r).payload.Append(dst), true
		}
	}
}

// PutBytes sets key's value to a copy of val: inserts if absent (true) or
// displaces the existing value (false), retiring the displaced value node
// through the domain. Values up to MaxInline bytes are stored in the node's
// value word itself (no allocation); longer values spill to a value node in
// the same pool. A PutBytes that races a Delete on the same key linearizes
// as update-then-delete and returns false without storing. Reserved keys
// are rejected (false).
func (h *Handle) PutBytes(key int64, val []byte) bool {
	if reserved(key) {
		return false
	}
	if len(val) <= MaxInline {
		ins, _ := h.upsertWord(key, inlineWord(val), 0, true)
		return ins
	}
	w := h.spillWord(val)
	ins, consumed := h.upsertWord(key, w, len(val), true)
	if !consumed {
		h.unspill(w) // never published: free directly
	}
	return ins
}

// GetAppend appends key's value to dst. ok is false if the key is absent
// (or reserved, or deleted concurrently — see readValue).
func (h *Handle) GetAppend(key int64, dst []byte) ([]byte, bool) {
	if reserved(key) {
		return dst, false
	}
	h.guard.Begin()
	defer h.guard.ClearHPs()
	n, np, found := h.locate(key)
	if !found {
		return dst, false
	}
	return h.readValue(n, np, dst)
}

// Put sets key's value to val's minimal little-endian byte encoding — the
// uint64 fast path. Values below 2^56 encode in at most 7 bytes and stay
// inline (no allocation, no guard traffic beyond the search); larger values
// take the spilled path. Semantics match PutBytes.
func (h *Handle) Put(key int64, val uint64) bool {
	if val < 1<<(8*MaxInline) {
		n := (bits.Len64(val) + 7) / 8
		w := uint64(valInlineBit) | uint64(n)<<valLenShift | val<<valDataShift
		ins, _ := h.upsertWord(key, w, 0, true)
		return ins
	}
	var b [8]byte
	for i := range b {
		b[i] = byte(val >> (8 * i))
	}
	return h.PutBytes(key, b[:])
}

// Get returns key's value decoded as a little-endian uint64 (the first 8
// bytes, for longer values). Inline words decode straight from the word.
func (h *Handle) Get(key int64) (uint64, bool) {
	if reserved(key) {
		return 0, false
	}
	h.guard.Begin()
	defer h.guard.ClearHPs()
	n, np, found := h.locate(key)
	if !found {
		return 0, false
	}
	for {
		w := np.Get(n).val.Load()
		switch {
		case w == valTombstone:
			return 0, false
		case w == 0:
			return 0, true
		case w&valInlineBit != 0:
			return w >> valDataShift, true
		default:
			r := mem.Ref(w)
			h.guard.Protect(h.hpVal(), r)
			if np.Get(n).val.Load() != w {
				continue
			}
			var v uint64
			b := h.s.pool.Get(r).payload.Bytes()
			for i := 0; i < len(b) && i < 8; i++ {
				v |= uint64(b[i]) << (8 * i)
			}
			return v, true
		}
	}
}
