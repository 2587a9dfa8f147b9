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

// Where a TestPublicationsPerOp sample's operation may find its key.
const (
	fromWalk  = iota // key's node index word emptied
	fromIndex        // the word kept, in whichever form the row above left it
)

// TestPublicationsPerOp pins the contract of search's slot discipline: one
// Protect per node the walk visits — no descend copy, no re-publication of a
// terminator the level above already covers — and one ClearHPs per
// operation. The fenced stores an operation costs under hp are exactly
// these calls (plus the one store that raises the record's active word), so
// the count is the thing to regress on, not a timing. With the descend copy
// and the re-publications a GET over 2^16 keys made ~54 Protect calls.
//
// The walk's rows run with the key's node index word emptied, so they keep
// pricing the walk (GET 24, SET(overwrite) 23, DEL 51, GET(absent) 23 at 2^16
// keys); the rows between them price the same operation answered by the word
// the row above just left, in node or edge form.
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
	// list, in this order: a key that holds its first value (its own, self)
	// is overwritten (a value node), deleted, inserted (self again), deleted
	// by index and inserted back.
	var buf []byte
	get := func(k int64) { buf, _ = h.GetAppend(k, buf[:0]) }
	put := func(k int64) { h.PutBytes(k, val) }
	del := func(k int64) { h.Delete(k) }
	samples := []struct {
		name     string
		from     int
		min, max float64
		op       func(k int64)
	}{
		{"SET(overwrite)", fromWalk, 0, 32, put},
		{"SET(overwrite, by index)", fromIndex, 1, 1, put},
		{"GET", fromWalk, 0, 32, get},
		// The pin and the value node.
		{"GET(by index, spilled)", fromIndex, 2, 2, get},
		// Two searches (locate, then prune) and the pin.
		{"DEL", fromWalk, 0, 64, del},
		{"GET(absent)", fromWalk, 0, 32, get},
		// The edge's predecessor, then its successor.
		{"GET(absent, by index edge)", fromIndex, 2, 2, get},
		// One search and the pin; more only after a failed link CAS.
		{"SET(insert)", fromWalk, 0, 34, put},
		// The pin alone: the word the insert left names the node, whose
		// value is its own.
		{"GET(by index)", fromIndex, 1, 1, get},
		// The pin and prune's walk to key+1, which splices the node out.
		{"DEL(by index)", fromIndex, 0, 29, del},
		// The edge prune left.
		{"GET(absent, right after a DEL)", fromIndex, 2, 2, get},
		{"DEL(absent, by index edge)", fromIndex, 2, 2, del},
		// An insert walks either way, so it leaves the edge untried: the
		// pin the word's node takes before its key is read, then the walk.
		{"SET(insert, beside an index edge)", fromIndex, 1, 35, put},
	}
	protects := make([]int, len(samples))
	for i := 0; i < ops; i++ {
		k := next()
		for j, sm := range samples {
			if sm.from == fromWalk {
				s.index.Load().word(k).Store(0)
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
		if mean < sm.min || mean > sm.max {
			t.Errorf("%s: %.1f Protect calls per op, want %.0f..%.0f", sm.name, mean, sm.min, sm.max)
		}
	}
	if n, msg := s.Validate(); msg != "" || n != keys {
		t.Fatalf("validate: n=%d %s", n, msg)
	}
}

// TestSlotsPerSpilledValue pins what a self value saves, in pool slots and
// retires: a key's first value, too long to inline, lives in the node the
// insert links — one slot, and a DEL retires that node alone — while an
// overwrite still spills to a value node, which its DEL retires too. Over
// none, which frees nothing, Live counts every slot an operation took.
func TestSlotsPerSpilledValue(t *testing.T) {
	s := New(Config{})
	d, err := reclaim.New("none", reclaim.Config{Workers: 1, HPs: HPsFor(s.Levels()), Free: s.FreeNode})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	lease, err := d.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	h := s.NewHandle(lease, 1)
	val := make([]byte, 64)
	type counts struct{ slots, structRetires, valueRetires int }
	cost := func(op func()) counts {
		live, vs := s.pool.Stats().Live, s.ValueStats()
		op()
		after := s.ValueStats()
		return counts{int(s.pool.Stats().Live - live), int(after.StructRetires - vs.StructRetires), int(after.ValueRetires - vs.ValueRetires)}
	}
	for k := int64(0); k < 1000; k++ {
		if c := cost(func() { h.PutBytes(k, val) }); c != (counts{1, 0, 0}) {
			t.Fatalf("insert of a spilled value: %+v, want 1 slot", c)
		}
		if k%2 == 0 {
			if c := cost(func() { h.PutBytes(k, val) }); c != (counts{1, 0, 0}) {
				t.Fatalf("overwrite with a spilled value: %+v, want 1 slot (the value node)", c)
			}
		}
	}
	for k := int64(0); k < 1000; k++ {
		want := counts{0, 1, 0} // never overwritten: the node, and its value with it
		if k%2 == 0 {
			want = counts{0, 1, 1} // the node and the overwrite's value node
		}
		if c := cost(func() { h.Delete(k) }); c != want {
			t.Fatalf("DEL of key %d: %+v, want %+v", k, c, want)
		}
	}
	if vs := s.ValueStats(); vs.Bytes != 0 || vs.Spilled != 0 {
		t.Fatalf("gauges after deleting every key: %+v", vs)
	}
}
