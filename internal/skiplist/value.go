package skiplist

import (
	"math/bits"

	"qsense/internal/mem"
)

// Value representation. A node n's val word holds one of five shapes,
// distinguished by the low bits (an untagged mem.Ref always has its low
// mem.TagBits bits clear, so the encodings cannot collide) and, for the
// last two, by whose Ref it is:
//
//	w == 0                   empty value (Insert-created nodes)
//	bit 0 set                inline: bits 1..3 the length (0..MaxInline),
//	                         payload little-endian from bit 8 up
//	w == valTombstone (2)    node deleted; the value has been displaced
//	w == n's own Ref         self: the bytes are in n's own payload — a
//	                         key's first value, when it is too long to
//	                         inline, installed by the insert that links n
//	otherwise                spilled: w is the untagged Ref of a value node
//	                         (same pool as structural nodes) whose payload
//	                         carries the bytes — an overwrite's value
//
// shapeOf is the one decoder; FuzzValueWord holds it to this table.
//
// Spilled and self words are single-publish: a value Ref is installed into
// exactly one node's val word by exactly one writer, and displaced exactly
// once — by a later upsert's CAS or the deleter's tombstone swap. A value
// node's Ref is installed by the upsert that allocated it, and the
// displacement's winner retires it through the domain. A node's own Ref is
// installed by its inserter, before the link CAS publishes the node, and
// never again; displaced, it is not retired — the node is, by its deleter,
// when it leaves the list. Between install and the node's free the payload
// is read-only.
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
//
// A reader that finds a self word needs none of that: it linearizes at the
// load, like an inline word, and copies n's payload with no publication.
// n is already covered — the caller located it, by walk or by finger, and
// every use re-checks its generation (a node freed under the copy faults,
// TestFingerDetection) — and its payload was written once, before the link
// that made n reachable, and is never written again while n is allocated,
// so a displacement after the load cannot tear the copy.
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

// A shape is what a value word holds (the table above).
type shape uint8

const (
	shapeEmpty shape = iota
	shapeInline
	shapeTombstone
	shapeSelf
	shapeSpilled
)

// shapeOf decodes the value word w of node n. With n nil a self word reads
// as spilled, which is all the gauges need to know on install.
func shapeOf(w uint64, n mem.Ref) shape {
	switch {
	case w == 0:
		return shapeEmpty
	case w&valInlineBit != 0:
		return shapeInline
	case w == valTombstone:
		return shapeTombstone
	case mem.Ref(w) == n:
		return shapeSelf
	}
	return shapeSpilled
}

// uintWord is the inline word of v's minimal little-endian bytes; v must be
// below 2^(8*MaxInline).
func uintWord(v uint64) uint64 {
	n := (bits.Len64(v) + 7) / 8
	return uint64(valInlineBit) | uint64(n)<<valLenShift | v<<valDataShift
}

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
	Bytes         int64  // live value payload bytes (inline + spilled + self)
	Spilled       int64  // live values too long to inline (spilled + self)
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
	switch shapeOf(w, 0) {
	case shapeInline:
		s.vBytes.Add(int64(inlineLen(w)))
	case shapeSpilled:
		s.vBytes.Add(int64(vlen))
		s.vSpilled.Add(1)
	}
}

// retireDisplaced releases the value word w displaced from n, which the
// caller covers: an inline or self word only adjusts the gauges (a self
// value leaves with its node); a spilled Ref is retired through the
// caller's guard (the displacing CAS/swap winner owns it — see the
// single-publish discipline above).
func (h *Handle) retireDisplaced(n mem.Ref, np mem.Resolved[node], w uint64) {
	s := h.s
	switch shapeOf(w, n) {
	case shapeInline:
		s.vBytes.Add(-int64(inlineLen(w)))
	case shapeSelf:
		s.vBytes.Add(-int64(np.Get(n).payload.Len()))
		s.vSpilled.Add(-1)
	case shapeSpilled:
		r := mem.Ref(w)
		s.vBytes.Add(-int64(s.pool.Get(r).payload.Len()))
		s.vSpilled.Add(-1)
		s.vRetires.Add(1)
		h.guard.Retire(r)
	}
}

// overwrite installs a value into n, a node of the key that the caller
// found present and covers: the word w or, when spill is set, a value node
// allocated for spill here. Lost to a concurrent delete, nothing is
// consumed and the value node, never published, is freed directly.
func (h *Handle) overwrite(n mem.Ref, np mem.Resolved[node], w uint64, spill []byte) {
	if spill != nil {
		vref, vp := h.cache.Alloc()
		vp.setHeight(0)
		vp.payload.Set(spill)
		w = uint64(vref)
	}
	if !h.updateValue(n, np, w, len(spill)) && spill != nil {
		h.cache.Free(mem.Ref(w))
	}
}

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
			h.retireDisplaced(n, np, old)
			return true
		}
	}
}

// payload returns the bytes that w, a spilled or self word loaded from n,
// names — or nil when a spilled w was displaced before its value node was
// covered, and the caller reloads. A self word's bytes are n's own: n is
// covered by the caller and re-checked here. A spilled word's value node
// is covered in hpVal and the word re-checked (the linearization argument
// above).
func (h *Handle) payload(n mem.Ref, np mem.Resolved[node], w uint64) *mem.Value {
	r := mem.Ref(w)
	if r == n {
		return &np.Get(n).payload
	}
	h.guard.Protect(h.hpVal(), r)
	if np.Get(n).val.Load() != w {
		return nil // displaced under us: the protection is inconclusive
	}
	return &h.s.pool.Get(r).payload
}

// readValue copies the value of a node the caller located (and still
// protects), appending to dst. False if the node was deleted (tombstone) —
// the read linearizes after that delete.
func (h *Handle) readValue(n mem.Ref, np mem.Resolved[node], dst []byte) ([]byte, bool) {
	for {
		w := np.Get(n).val.Load()
		switch shapeOf(w, n) {
		case shapeTombstone:
			return dst, false
		case shapeEmpty:
			return dst, true
		case shapeInline:
			return appendInline(dst, w), true
		}
		if p := h.payload(n, np, w); p != nil {
			return p.Append(dst), true
		}
	}
}

// PutBytes sets key's value to a copy of val: inserts if absent (true) or
// displaces the existing value (false), retiring a displaced value node
// through the domain. Values up to MaxInline bytes are stored in the node's
// value word itself; longer values live in the new node's own payload on
// insert and spill to a value node in the same pool on overwrite. A
// PutBytes that races a Delete on the same key linearizes as
// update-then-delete and returns false without storing. Reserved keys are
// rejected (false).
func (h *Handle) PutBytes(key int64, val []byte) bool {
	if len(val) <= MaxInline {
		return h.upsertWord(key, inlineWord(val), nil, true)
	}
	return h.upsertWord(key, 0, val, true)
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
		return h.upsertWord(key, uintWord(val), nil, true)
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
		switch shapeOf(w, n) {
		case shapeTombstone:
			return 0, false
		case shapeEmpty:
			return 0, true
		case shapeInline:
			return w >> valDataShift, true
		}
		if p := h.payload(n, np, w); p != nil {
			var v uint64
			b := p.Bytes()
			for i := 0; i < len(b) && i < 8; i++ {
				v |= uint64(b[i]) << (8 * i)
			}
			return v, true
		}
	}
}
