package skiplist

import (
	"testing"

	"qsense/internal/mem"
	"qsense/internal/reclaim"
)

// countingGuard counts the hazard-pointer traffic an operation generates.
type countingGuard struct {
	reclaim.Guard
	protects, clears int
}

func (g *countingGuard) Protect(i int, r mem.Ref) { g.protects++; g.Guard.Protect(i, r) }
func (g *countingGuard) ClearHPs()                { g.clears++; g.Guard.ClearHPs() }

// TestPublicationsPerOp pins the contract of search's slot discipline: one
// Protect per node the walk visits — no descend copy, no re-publication of a
// terminator the level above already covers — and one ClearHPs per
// operation. The fenced stores an operation costs under hp are exactly
// these calls (plus the one store that raises the record's active word), so
// the count is the thing to regress on, not a timing. With the descend copy
// and the re-publications a GET over 2^16 keys made ~54 Protect calls.
//
// The walk's rows run with the key's finger forgotten, so they keep pricing
// the walk (24 / 23 / 51 / 24 at 2^16 keys); the rows between them price the
// same operation answered by the finger the row above just left.
func TestPublicationsPerOp(t *testing.T) {
	const (
		keys = 1 << 16
		ops  = 20000
	)
	s := New(Config{})
	d, err := reclaim.New("hp", reclaim.Config{Workers: 1, HPs: HPsFor(s.Levels()), Free: s.FreeNode})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	lease, err := d.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	g := &countingGuard{Guard: lease}
	h := s.NewHandle(g, 1)
	val := make([]byte, 64)
	for k := int64(0); k < keys; k++ {
		h.PutBytes(k, val)
	}
	rng := uint64(42)
	next := func() int64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int64(rng % keys)
	}
	// Each sample is one operation on a random key of the full 2^16-key
	// list: DEL removes a present key and SET(insert) puts it back.
	var buf []byte
	get := func(k int64) { buf, _ = h.GetAppend(k, buf[:0]) }
	put := func(k int64) { h.PutBytes(k, val) }
	samples := []struct {
		name        string
		byFinger    bool
		maxProtects float64
		op          func(k int64)
	}{
		{"GET", false, 32, get},
		// The pin and the value node.
		{"GET(by finger)", true, 2, get},
		{"SET(overwrite)", false, 32, put},
		{"SET(overwrite, by finger)", true, 1, put},
		// Two searches (locate, then prune) and the pin.
		{"DEL", false, 64, func(k int64) { h.Delete(k) }},
		{"GET(absent)", false, 32, get},
		// The edge's predecessor, nothing else.
		{"GET(absent, by gap finger)", true, 1, get},
		// One search and the pin; more only after a failed link CAS.
		{"SET(insert)", false, 34, put},
	}
	protects := make([]int, len(samples))
	for i := 0; i < ops; i++ {
		k := next()
		for j, sm := range samples {
			if !sm.byFinger {
				h.forget(k)
			}
			g.protects, g.clears = 0, 0
			sm.op(k)
			protects[j] += g.protects
			if g.clears != 1 {
				t.Fatalf("%s: %d ClearHPs in one op, want exactly 1", sm.name, g.clears)
			}
		}
	}
	for j, sm := range samples {
		mean := float64(protects[j]) / ops
		t.Logf("%s: %.1f Protect calls + 1 ClearHPs per op", sm.name, mean)
		if mean > sm.maxProtects {
			t.Errorf("%s: %.1f Protect calls per op, want <= %.0f", sm.name, mean, sm.maxProtects)
		}
	}
	if n, msg := s.Validate(); msg != "" || n != keys {
		t.Fatalf("validate: n=%d %s", n, msg)
	}
}
