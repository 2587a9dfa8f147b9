package skiplist

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"qsense/internal/lincheck"
	"qsense/internal/mem"
	"qsense/internal/reclaim"
	"qsense/internal/workload"
)

// hookGuard runs hook just before the at-th Protect of the operation in
// flight is published — the one place another worker's whole burst can land
// between two adjacent loads of the code under test. Over a real guard it
// is a legal schedule: nothing is protected until Protect returns.
type hookGuard struct {
	reclaim.Guard
	at, calls int
	hook      func(slot int, r mem.Ref)
}

func (g *hookGuard) Protect(slot int, r mem.Ref) {
	if g.calls++; g.calls == g.at {
		g.hook(slot, r)
	}
	g.Guard.Protect(slot, r)
}

// arm schedules hook for the at-th Protect from now.
func (g *hookGuard) arm(at int, hook func(slot int, r mem.Ref)) { g.calls, g.at, g.hook = 0, at, hook }

// fingerRig is a small list (keys 10, 20 … 100, each holding its own 32-byte
// value: self) over the
// scheme that never frees, so the test decides when a retired node's slot is
// recycled: a is the handle under test, b plays every other worker. b
// allocates straight from the pool's LIFO free list, so the slot the test
// frees is the slot b's next insert gets.
//
// The rig's GETs and DELs start from an empty node index, so a finger that is
// refused is answered by a walk, unless index is set: then a's operations
// read the words b's inserts and a's walks left, and the rows about them
// (TestFingerDetection's "index" rows) set the word under test by hand.
type fingerRig struct {
	t     *testing.T
	s     *SkipList
	a, b  *Handle
	ga    *hookGuard
	index bool
}

func rigVal(k int64, gen byte) []byte { return bytes.Repeat([]byte{byte(k), gen}, 16) }

func newFingerRig(t *testing.T) *fingerRig {
	s := New(Config{})
	d, err := reclaim.New("none", reclaim.Config{Workers: 2, HPs: HPsFor(s.Levels()), Free: s.FreeNode})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	var gs [2]reclaim.Guard
	for i := range gs {
		if gs[i], err = d.Acquire(); err != nil {
			t.Fatal(err)
		}
	}
	r := &fingerRig{t: t, s: s, ga: &hookGuard{Guard: gs[0]}}
	r.a, r.b = s.NewHandle(r.ga, 1), s.NewHandle(gs[1], 2)
	r.b.cache = s.pool.NewCache(1) // capacity 1 never refills: Alloc falls through to the pool
	for k := int64(10); k <= 100; k += 10 {
		r.b.PutBytes(k, rigVal(k, 0))
	}
	return r
}

// fingerOf is key's finger in h's table with the way's hit count stripped:
// key's node ref (succ nil), the edge ref → succ, or both nil if h keeps no
// finger for key.
func (h *Handle) fingerOf(key int64) (ref, succ mem.Ref) {
	if h.fingers == nil {
		return 0, 0
	}
	t := h.setOf(key)
	if i := t.way(key); i >= 0 {
		return t.ref[i].Untagged(), t.succ[i]
	}
	return 0, 0
}

// clearIndex empties the list's node index.
func (s *SkipList) clearIndex() {
	x := s.index.Load()
	for i := range x.words {
		x.words[i].Store(0)
	}
}

// indexed is the Ref key's node index word holds.
func (s *SkipList) indexed(key int64) mem.Ref { return mem.Ref(s.index.Load().word(key).Load()) }

// node returns key's node as a fresh walk by b finds it.
func (r *fingerRig) node(key int64) mem.Ref {
	r.b.search(key)
	if n := r.b.succs[0]; r.s.pool.Get(n).key == key {
		return n
	}
	r.t.Fatalf("key %d is not in the list", key)
	return 0
}

// get is a's GetAppend with the Protect calls it made and what it panicked
// with.
func (r *fingerRig) get(key int64) (val []byte, ok bool, protects int, rec any) {
	defer func() { rec = recover() }()
	if !r.index {
		r.s.clearIndex()
	}
	before := r.ga.calls
	val, ok = r.a.GetAppend(key, nil)
	return val, ok, r.ga.calls - before, nil
}

// del is get for a's Delete.
func (r *fingerRig) del(key int64) (ok bool, protects int, rec any) {
	defer func() { rec = recover() }()
	if !r.index {
		r.s.clearIndex()
	}
	before := r.ga.calls
	ok = r.a.Delete(key)
	return ok, r.ga.calls - before, nil
}

// TestFingerDetection is TestDetectionNotThinned for the operations a finger
// answers. A finger is refused — silently, the walk's answer returned —
// whenever the remembered node is gone at validation; past validation the
// node is protected like one a search found, and freeing it faults.
func TestFingerDetection(t *testing.T) {
	const k = 50

	// Every row starts from a finger on k's node that has just answered a GET
	// in one publication, the pin: the rig's values are the node's own (self).
	prime := func(t *testing.T) (*fingerRig, mem.Ref) {
		r := newFingerRig(t)
		n := r.node(k)
		r.get(k)
		if ref, succ := r.a.fingerOf(k); ref != n || !succ.IsNil() {
			t.Fatalf("after a GET the finger is %v -> %v, want key's node %v", ref, succ, n)
		}
		if v, ok, protects, rec := r.get(k); !ok || !bytes.Equal(v, rigVal(k, 0)) || protects != 1 || rec != nil {
			t.Fatalf("hot GET: %x %v in %d publications, panic %v", v, ok, protects, rec)
		}
		return r, n
	}
	// retireAndFree is a whole delete by another worker followed by the
	// reclamation of the node: unlinked, then its slot back in the pool.
	retireAndFree := func(r *fingerRig, key int64, n mem.Ref) {
		if !r.b.Delete(key) {
			r.t.Fatalf("delete %d failed", key)
		}
		r.s.pool.Free(n)
	}
	// reuse inserts key through b and checks the new node landed in old's slot.
	reuse := func(r *fingerRig, key int64, old mem.Ref) mem.Ref {
		if !r.b.PutBytes(key, []byte{1}) { // inline: the node is the only allocation
			r.t.Fatalf("insert %d failed", key)
		}
		n := r.node(key)
		if n.Index() != old.Index() || n == old {
			r.t.Fatalf("insert %d took %v, want the slot of %v under a new generation", key, n, old)
		}
		return n
	}

	t.Run("freed at the finger's own Protect", func(t *testing.T) {
		r, n := prime(t)
		r.ga.arm(1, func(int, mem.Ref) { retireAndFree(r, k, n) })
		if v, ok, protects, rec := r.get(k); ok || rec != nil || protects <= 1 {
			t.Fatalf("got %x %v in %d publications, panic %v; want the walk's answer: absent", v, ok, protects, rec)
		}
		if ref, succ := r.a.fingerOf(k); ref == n {
			t.Fatalf("the refused finger is still in the table: %v -> %v", ref, succ)
		}
	})

	// The second generation check's row: the slot is recycled — same key,
	// same slot, next[0] unmarked — between the first check and the load.
	t.Run("freed and re-allocated at the finger's own Protect", func(t *testing.T) {
		r, n := prime(t)
		r.ga.arm(1, func(int, mem.Ref) { retireAndFree(r, k, n); reuse(r, k, n) })
		if v, ok, protects, rec := r.get(k); !ok || !bytes.Equal(v, []byte{1}) || rec != nil || protects <= 1 {
			t.Fatalf("got %x %v in %d publications, panic %v; want the walk's answer: 01", v, ok, protects, rec)
		}
	})

	t.Run("freed and re-allocated with the same key between two operations", func(t *testing.T) {
		r, n := prime(t)
		retireAndFree(r, k, n)
		n2 := reuse(r, k, n)
		if v, ok, protects, rec := r.get(k); !ok || !bytes.Equal(v, []byte{1}) || rec != nil || protects <= 1 {
			t.Fatalf("got %x %v in %d publications, panic %v; want the walk's answer: 01", v, ok, protects, rec)
		}
		if ref, succ := r.a.fingerOf(k); ref != n2 {
			t.Fatalf("finger %v -> %v, want the new node %v", ref, succ, n2)
		}
	})

	// The mark check's row: deleted and re-inserted, the old node retired
	// but not yet freed — its generation still matches, only the mark says
	// it is no longer the key's node.
	t.Run("deleted and re-inserted, not yet freed", func(t *testing.T) {
		r, _ := prime(t)
		r.b.Delete(k)
		r.b.PutBytes(k, rigVal(k, 1))
		if v, ok, _, rec := r.get(k); !ok || !bytes.Equal(v, rigVal(k, 1)) || rec != nil {
			t.Fatalf("got %x %v, panic %v; want the re-inserted value", v, ok, rec)
		}
		r.b.Delete(k)
		if v, ok, _, rec := r.get(k); ok || rec != nil {
			t.Fatalf("got %x %v, panic %v; want absent", v, ok, rec)
		}
		if r.a.PutBytes(k, rigVal(k, 2)) != true {
			t.Fatal("a put on a deleted key must insert, not overwrite the dead node")
		}
	})

	// An overwrite spills to a value node, so the hot GET publishes it too:
	// the pin, then the value slot — where the free lands.
	t.Run("freed after validation", func(t *testing.T) {
		for name, victim := range map[string]func(r *fingerRig, n mem.Ref) mem.Ref{
			"node":       func(_ *fingerRig, n mem.Ref) mem.Ref { return n },
			"value node": func(r *fingerRig, n mem.Ref) mem.Ref { return mem.Ref(r.s.pool.Get(n).val.Load()) },
		} {
			r, n := prime(t)
			r.b.PutBytes(k, rigVal(k, 1))
			if w := r.s.pool.Get(n).val.Load(); shapeOf(w, n) != shapeSpilled {
				t.Fatalf("after an overwrite the value word is %#x, want a value node", w)
			}
			r.ga.arm(2, func(slot int, _ mem.Ref) {
				if slot != r.a.hpVal() {
					t.Fatalf("second publication of a hot GET is slot %d, want the value slot", slot)
				}
				r.s.pool.Free(victim(r, n))
			})
			if v, ok, _, rec := r.get(k); !faulted(rec) {
				t.Errorf("%s freed at the value publication: got %x %v, panic %v; want *mem.Violation{Op: get}", name, v, ok, rec)
			}
		}
	})
	// A self value is read with no publication after the pin, so there is
	// no Protect to land on: the row is the hot GET cut by hand between its
	// value-word load and its payload read.
	t.Run("self value, node freed after validation", func(t *testing.T) {
		r, n := prime(t)
		r.a.guard.Begin()
		defer r.a.guard.ClearHPs()
		m, np, found := r.a.locate(k)
		w := np.Get(m).val.Load()
		if !found || m != n || shapeOf(w, n) != shapeSelf {
			t.Fatalf("locate: %v %v, value word %#x; want key's node %v holding its own value", m, found, w, n)
		}
		r.s.pool.Free(n)
		var rec any
		func() {
			defer func() { rec = recover() }()
			r.a.payload(m, np, w).Bytes()
		}()
		if !faulted(rec) {
			t.Fatalf("payload read of a freed node: panic %v, want *mem.Violation{Op: get}", rec)
		}
	})

	// The gap form, same two rows. 55 is absent between 50 and 60.
	primeGap := func(t *testing.T) (*fingerRig, mem.Ref) {
		r := newFingerRig(t)
		p, s := r.node(50), r.node(60)
		r.get(55)
		if ref, succ := r.a.fingerOf(55); ref != p || succ != s {
			t.Fatalf("after an absent GET the finger is %v -> %v, want the edge %v -> %v", ref, succ, p, s)
		}
		if v, ok, protects, rec := r.get(55); ok || protects != 1 || rec != nil {
			t.Fatalf("absent GET by gap: %x %v in %d publications, panic %v", v, ok, protects, rec)
		}
		return r, p
	}
	t.Run("gap closed by an insert", func(t *testing.T) {
		r, _ := primeGap(t)
		r.b.PutBytes(55, rigVal(55, 0))
		if v, ok, _, rec := r.get(55); !ok || !bytes.Equal(v, rigVal(55, 0)) || rec != nil {
			t.Fatalf("got %x %v, panic %v; want the inserted value", v, ok, rec)
		}
	})
	// The second check again, as a wrong answer instead of a fault: 55 is
	// inserted behind a new predecessor before the GET begins, and at the
	// GET's publication the old predecessor's slot comes back as key 57 —
	// whose next[0] is the remembered successor.
	t.Run("gap predecessor recycled at the finger's own Protect", func(t *testing.T) {
		r, p := primeGap(t)
		r.b.Delete(50)
		r.b.PutBytes(55, rigVal(55, 0))
		r.ga.arm(1, func(int, mem.Ref) { r.s.pool.Free(p); reuse(r, 57, p) })
		if v, ok, _, rec := r.get(55); !ok || !bytes.Equal(v, rigVal(55, 0)) || rec != nil {
			t.Fatalf("got %x %v, panic %v; want the value put before the GET began", v, ok, rec)
		}
	})

	// Delete takes the same fingers, and leaves one behind.
	t.Run("DEL: freed at the finger's own Protect", func(t *testing.T) {
		r, n := prime(t)
		r.ga.arm(1, func(int, mem.Ref) { retireAndFree(r, k, n) })
		if ok, protects, rec := r.del(k); ok || rec != nil || protects <= 1 {
			t.Fatalf("got %v in %d publications, panic %v; want the walk's answer: absent", ok, protects, rec)
		}
	})
	t.Run("DEL: by finger, leaving the edge", func(t *testing.T) {
		r, _ := prime(t)
		p, s := r.node(40), r.node(60)
		if ok, _, rec := r.del(k); !ok || rec != nil {
			t.Fatalf("got %v, panic %v; want deleted", ok, rec)
		}
		if ref, succ := r.a.fingerOf(k); ref != p || succ != s {
			t.Fatalf("after the DEL the finger is %v -> %v, want the edge %v -> %v", ref, succ, p, s)
		}
		if v, ok, protects, rec := r.get(k); ok || protects != 1 || rec != nil {
			t.Fatalf("GET after the DEL: %x %v in %d publications, panic %v; want absent by the edge", v, ok, protects, rec)
		}
		if ok, protects, rec := r.del(k); ok || protects != 1 || rec != nil {
			t.Fatalf("DEL after the DEL: %v in %d publications, panic %v; want absent by the edge", ok, protects, rec)
		}
	})
	t.Run("DEL: gap closed by an insert", func(t *testing.T) {
		r, _ := primeGap(t)
		r.b.PutBytes(55, rigVal(55, 0))
		if ok, _, rec := r.del(55); !ok || rec != nil {
			t.Fatalf("got %v, panic %v; want the inserted key deleted", ok, rec)
		}
		if v, ok, _, rec := r.get(55); ok || rec != nil {
			t.Fatalf("GET after the DEL: %x %v, panic %v; want absent", v, ok, rec)
		}
	})
	// b re-inserts the key while a's cleanup walk is under way: what the
	// walk then finds below key+1 is b's node, and a's finger must say so —
	// an edge over it would answer a's next GET "absent".
	t.Run("DEL: key re-inserted inside its prune", func(t *testing.T) {
		r, n := prime(t)
		r.ga.arm(2, func(int, mem.Ref) { r.b.PutBytes(k, rigVal(k, 1)) })
		if ok, _, rec := r.del(k); !ok || rec != nil {
			t.Fatalf("got %v, panic %v; want deleted", ok, rec)
		}
		if ref, succ := r.a.fingerOf(k); !succ.IsNil() || ref.IsNil() || ref == n {
			t.Fatalf("after the DEL the finger is %v -> %v, want b's new node", ref, succ)
		}
		if v, ok, protects, rec := r.get(k); !ok || !bytes.Equal(v, rigVal(k, 1)) || protects != 1 || rec != nil {
			t.Fatalf("GET after the DEL: %x %v in %d publications, panic %v; want b's value by finger", v, ok, protects, rec)
		}
	})

	// The node index's rows. a keeps no finger on the key, so its GET reads
	// the word, which names n, and validates it exactly as it would a node
	// finger; a word that is refused leaves the answer to the walk.
	primeIndex := func(t *testing.T) (*fingerRig, mem.Ref) {
		r := newFingerRig(t)
		r.index = true
		n := r.node(k)
		if got := r.s.indexed(k); got != n {
			t.Fatalf("after b's insert the word is %v, want key's node %v", got, n)
		}
		if v, ok, protects, rec := r.get(k); !ok || !bytes.Equal(v, rigVal(k, 0)) || protects != 1 || rec != nil {
			t.Fatalf("GET by index: %x %v in %d publications, panic %v", v, ok, protects, rec)
		}
		if ref, succ := r.a.fingerOf(k); ref != n || !succ.IsNil() {
			t.Fatalf("after a GET by index the finger is %v -> %v, want key's node %v", ref, succ, n)
		}
		r.a.forget(k)
		return r, n
	}
	t.Run("index: names a freed slot", func(t *testing.T) {
		r, n := primeIndex(t)
		retireAndFree(r, k, n)
		if got := r.s.indexed(k); got != n {
			t.Fatalf("after the DEL the word is %v, want the stale %v (DEL writes no word)", got, n)
		}
		if v, ok, protects, rec := r.get(k); ok || rec != nil || protects <= 1 {
			t.Fatalf("got %x %v in %d publications, panic %v; want the walk's answer: absent", v, ok, protects, rec)
		}
	})
	// The second generation check's row for the index.
	t.Run("index: slot re-allocated to the same key at its own Protect", func(t *testing.T) {
		r, n := primeIndex(t)
		r.ga.arm(1, func(int, mem.Ref) { retireAndFree(r, k, n); reuse(r, k, n) })
		if v, ok, protects, rec := r.get(k); !ok || !bytes.Equal(v, []byte{1}) || rec != nil || protects <= 1 {
			t.Fatalf("got %x %v in %d publications, panic %v; want the walk's answer: 01", v, ok, protects, rec)
		}
	})
	// The key compare's row: absent key c shares k's word, so the word
	// names a live, unmarked node — of another key.
	t.Run("index: another key's node", func(t *testing.T) {
		r, n := primeIndex(t)
		c := int64(k + 1)
		for r.s.index.Load().word(c) != r.s.index.Load().word(k) {
			c++
		}
		if got := r.s.indexed(c); got != n {
			t.Fatalf("key %d's word is %v, want key %d's node %v", c, got, k, n)
		}
		if v, ok, protects, rec := r.get(c); ok || rec != nil || protects <= 1 {
			t.Fatalf("GET %d: %x %v in %d publications, panic %v; want the walk's answer: absent", c, v, ok, protects, rec)
		}
		if ok, _, rec := r.del(c); ok || rec != nil {
			t.Fatalf("DEL %d: %v, panic %v; want absent, key %d untouched", c, ok, rec, k)
		}
		if r.a.PutBytes(c, rigVal(c, 0)) != true {
			t.Fatalf("a put of absent key %d must insert, not overwrite key %d's node", c, k)
		}
		if v, ok, _, rec := r.get(k); !ok || !bytes.Equal(v, rigVal(k, 0)) || rec != nil {
			t.Fatalf("GET %d: %x %v, panic %v; want its own value", k, v, ok, rec)
		}
	})
	// The mark check's row for the index: deleted and re-inserted, the old
	// node retired but not yet freed, and the word put back on it.
	t.Run("index: a marked node", func(t *testing.T) {
		r, n := primeIndex(t)
		r.b.Delete(k)
		r.b.PutBytes(k, rigVal(k, 1))
		r.s.index.Load().note(k, n)
		if v, ok, _, rec := r.get(k); !ok || !bytes.Equal(v, rigVal(k, 1)) || rec != nil {
			t.Fatalf("got %x %v, panic %v; want the re-inserted value", v, ok, rec)
		}
	})
	t.Run("index: node freed after validation", func(t *testing.T) {
		r, n := primeIndex(t)
		r.b.PutBytes(k, rigVal(k, 1)) // spilled: the GET publishes its value node second
		r.ga.arm(2, func(slot int, _ mem.Ref) {
			if slot != r.a.hpVal() {
				t.Fatalf("second publication of a GET by index is slot %d, want the value slot", slot)
			}
			r.s.pool.Free(n)
		})
		if v, ok, _, rec := r.get(k); !faulted(rec) {
			t.Errorf("node freed at the value publication: got %x %v, panic %v; want *mem.Violation{Op: get}", v, ok, rec)
		}
	})
}

// TestFingersPinNothing: a finger is a hint, not a protection, and so is a
// node index word. A handle whose table is full of fingers, beside an index
// full of words, on nodes that are then all deleted holds reclamation back by
// nothing: with its lease returned (the containers keep the handle, table and
// all, for the slot's next tenant) Pending drains exactly as far as it does
// without the table and the words.
func TestFingersPinNothing(t *testing.T) {
	const keys = 1 << (fingerBits + 2) // enough to fill every way of every set
	pendingAfter := func(t *testing.T, scheme string, keepFingers bool) int64 {
		s, d, hs := newSet(t, scheme, 2, 16)
		defer d.Close()
		a, b := hs[0], hs[1]
		for k := int64(0); k < keys; k++ {
			b.PutBytes(k, sabVal)
		}
		for k := int64(0); k < keys; k++ {
			a.GetAppend(k, nil)
		}
		held := 0
		for _, set := range a.fingers {
			for _, r := range set.ref {
				if !r.IsNil() {
					held++
				}
			}
		}
		if held != 1<<fingerBits {
			t.Fatalf("only %d of %d finger ways filled", held, 1<<fingerBits)
		}
		x, words := s.index.Load(), 0
		for i := range x.words {
			if x.words[i].Load() != 0 {
				words++
			}
		}
		if words < len(x.words)/2 {
			t.Fatalf("only %d of %d node index words hold a Ref", words, len(x.words))
		}
		if !keepFingers {
			a.fingers = nil
			s.clearIndex()
		}
		d.Release(a.guard)
		for k := int64(0); k < keys; k++ {
			b.Delete(k)
		}
		// b alone drives the epochs, scans and rooster passes from here, with
		// a trickle of retires of its own (scans are counted in retires).
		const residue = 128 // a few scan thresholds (R = 32) of b's own trickle
		live := func() uint64 { return s.pool.Stats().Live }
		for deadline := time.Now().Add(5 * time.Second); live() > residue && time.Now().Before(deadline); {
			for i := 0; i < 100; i++ {
				b.Insert(-1)
				b.Delete(-1)
			}
			time.Sleep(time.Millisecond)
		}
		if live() > residue {
			t.Errorf("%s, fingers kept=%v: %d of %d deleted nodes still not freed", scheme, keepFingers, live(), keys)
		}
		return d.Stats().Pending
	}
	for _, scheme := range reclaim.Schemes() {
		if scheme == "none" {
			continue // frees nothing, fingers or no fingers
		}
		t.Run(scheme, func(t *testing.T) {
			with, without := pendingAfter(t, scheme, true), pendingAfter(t, scheme, false)
			t.Logf("pending with %d stale fingers and a full node index: %d; without: %d", 1<<fingerBits, with, without)
		})
	}
}

// fingerSeeds are schedules of exploreFingers recorded when they killed a
// mutant (testdata/mutants; kill.sh replays them): the first of each row
// faults with a *mem.Violation once validate's second generation check is
// removed (no seed up to 300 does under hyaline), and on a double free once
// probe returns a way's Ref with its hit count; seed 1 of every scheme has
// no linearization once validate's mark check is, and faults on a double free
// once a displaced self value is retired; seed 2 of every scheme has no
// linearization once Delete leaves an edge over the node prune found. They
// run before the seeds every run counts through. A seed that fails is
// printed; add it here.
var fingerSeeds = map[string][]uint64{
	"hp": {19, 1, 2}, "rc": {9, 1, 2}, "qsbr": {1, 2}, "ebr": {12, 1, 2}, "ibr": {12, 1, 2}, "hyaline": {1, 2},
}

// TestFingerInterleavings is the linearizability checker under a seeded
// scheduler of the one kind this package can build without touching the hot
// path: handle a's operations are cut at a Protect — before the publication
// takes effect — and handle b runs a burst of whole operations there, on the
// same goroutine, so that a seed is a schedule. A few keys, a tiny scan
// threshold and b allocating straight from the free list make a finger's
// node go stale, come back as another node, and be asked for, many times a
// run. Every history must be linearizable and no operation may fault: the
// schemes are correct, so a *mem.Violation here accuses the structure.
func TestFingerInterleavings(t *testing.T) {
	fresh := uint64(300)
	if testing.Short() {
		fresh = 60
	}
	// Deterministic schemes only: cadence and qsense free by the rooster's
	// clock, and are the concurrent checker's (linearizability_test.go).
	for _, scheme := range []string{"hp", "rc", "qsbr", "ebr", "ibr", "hyaline"} {
		t.Run(scheme, func(t *testing.T) {
			seeds := fingerSeeds[scheme]
			for s := uint64(1); s <= fresh; s++ {
				seeds = append(seeds, s)
			}
			for _, seed := range seeds {
				if err := exploreFingers(t, scheme, seed); err != nil {
					t.Fatalf("scheme %s, seed %d: %v", scheme, seed, err)
				}
			}
		})
	}
}

func exploreFingers(t *testing.T, scheme string, seed uint64) (err error) {
	const (
		keys  = 6
		steps = 400
	)
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("panic: %v", rec)
		}
	}()
	s := New(Config{Poison: true})
	d, err := reclaim.New(scheme, reclaim.Config{Workers: 2, HPs: HPsFor(s.Levels()), Free: s.FreeNode, Q: 1, R: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close() // inside the recover: a node retired twice faults when Close frees the rest
	var gs [2]reclaim.Guard
	for i := range gs {
		if gs[i], err = d.Acquire(); err != nil {
			t.Fatal(err)
		}
	}
	ga := &hookGuard{Guard: gs[0]}
	a, b := s.NewHandle(ga, 1), s.NewHandle(gs[1], 2)
	b.cache = s.pool.NewCache(1)
	clock := lincheck.NewClock()
	la, lb := &lincheck.Log{Who: 0, Clock: clock}, &lincheck.Log{Who: 1, Clock: clock}

	rng := seed*0x9E3779B97F4A7C15 + 1
	next := func(n uint64) uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng >> 11 % n
	}
	written := uint64(0)
	step := func(h *Handle, l *lincheck.Log) {
		key := int64(1 + next(keys))
		switch next(4) {
		case 0:
			written++
			v := written | next(2)<<60 // bit 60 set: 8 bytes, spilled
			l.Record(lincheck.Put, key, func(o *lincheck.Op) { o.Arg, o.OK = v, h.Put(key, v) })
		case 1:
			l.Record(lincheck.Del, key, func(o *lincheck.Op) { o.OK = h.Delete(key) })
		default:
			l.Record(lincheck.Get, key, func(o *lincheck.Op) { o.Out, o.OK = h.Get(key) })
		}
	}
	for i := 0; i < steps; i++ {
		if next(2) == 0 {
			step(b, lb)
			continue
		}
		// Cut at one of a's first eight Protects: a finger's pin is the
		// first, and a Delete's prune walk on a list this small is the
		// next few.
		burst := next(4)
		ga.arm(int(1+next(8)), func(int, mem.Ref) {
			for ; burst > 0; burst-- {
				step(b, lb)
			}
		})
		step(a, la)
	}
	return lincheck.Check(la, lb)
}

// TestFingerAdmission pins admit's order: an empty way first; in a full set
// whose ways have all been hit three times, a new key is refused three
// times, each refusal decaying every count, and admitted at its fourth miss.
func TestFingerAdmission(t *testing.T) {
	var h Handle
	var set fingerSet
	for i := range fingerWays - 1 {
		set.key[i], set.ref[i] = int64(i), mem.MakeRef(uint32(i), 1).WithTag(3)
	}
	if i := h.admit(&set); i != fingerWays-1 {
		t.Fatalf("admit took way %d, want the empty way %d", i, fingerWays-1)
	}
	set.ref[fingerWays-1] = mem.MakeRef(fingerWays-1, 1).WithTag(3)
	for miss := 1; miss <= 3; miss++ {
		if i := h.admit(&set); i >= 0 {
			t.Fatalf("miss %d took way %d of a set hit three times over", miss, i)
		}
		for i, r := range set.ref {
			if r.Tag() != uint64(3-miss) || r.Untagged() != mem.MakeRef(uint32(i), 1) {
				t.Fatalf("after refusal %d way %d holds %v, want its ref with count %d", miss, i, r, 3-miss)
			}
		}
	}
	if i := h.admit(&set); i < 0 {
		t.Fatal("a fourth miss was refused")
	}
}

// raceDetector is set by race_test.go when the race detector is built in.
var raceDetector bool

// TestFingerHitRate pins, as exact counts, the share of lookups a handle's
// finger table answers over the ruler's key space: 2^18 keys with every
// other one stored, each lookup a probe and, when it fails, the walk that
// remembers what it found — locate, less the value read. zipf(0.99) ranks
// are scattered by the ruler's odd multiplier; each stream has a fresh
// table, 1 Mi lookups of warm-up and 1 Mi measured. Then the hot set moves
// (another multiplier) and the zipf table answers the first 1 Mi lookups of
// the new stream with no warm-up: what its hot entries still hold is what
// the decay must let go. Over none nothing is retired, so a finger that is
// found always validates and the counts are the table's policy alone. A
// direct-mapped table of the same 2^12 fingers answered 573 890 of the zipf
// stream, 16 304 of the uniform one and 560 707 after the move.
func TestFingerHitRate(t *testing.T) {
	if raceDetector {
		t.Skip("5 Mi single-goroutine lookups; the race detector has nothing to find in them")
	}
	const (
		keys    = 1 << 18
		lookups = 1 << 20
	)
	s, d, hs := newSet(t, "none", 1, 0)
	defer d.Close()
	for k := int64(0); k < keys; k += 2 {
		hs[0].Insert(k)
	}
	zipf := hs[0]
	for _, row := range []struct {
		name    string
		h       *Handle
		theta   float64
		scatter int64
		warmup  bool
		want    int
	}{
		{"zipf", zipf, 0.99, 0x9E3779B1, true, 672_551},
		{"uniform", s.NewHandle(zipf.guard, 2), 0, 0x9E3779B1, true, 16_332},
		{"hot set moved", zipf, 0.99, 0x2545F491, false, 654_882},
	} {
		rng := workload.NewRNG(99)
		n, hits := lookups, 0
		if row.warmup {
			n *= 2
		}
		for i := range n {
			key := rng.ZipfKey(keys, row.theta) * row.scatter % keys
			row.h.guard.Begin()
			if _, _, _, ok := row.h.probe(key, true); !ok {
				row.h.walk(key)
			} else if i >= n-lookups {
				hits++
			}
			row.h.guard.ClearHPs()
		}
		t.Logf("%s: %d of %d lookups answered by a finger (%.2f %%)", row.name, hits, lookups, 100*float64(hits)/lookups)
		if hits != row.want {
			t.Errorf("%s: %d lookups answered, want exactly %d", row.name, hits, row.want)
		}
	}
}

// TestIndexHitRate pins, as exact counts, which of locate's three answers a
// lookup gets when two handles share the list: the handle's own finger, the
// node index, or a walk, which notes the node it found in the index. The key
// space is TestFingerHitRate's — 2^18 keys, every other one stored, zipf(0.99)
// ranks scattered by the ruler's multiplier, or uniform — and the two handles
// take the stream's lookups in turn, as the ruler's two connections do; 1 Mi
// lookups of warm-up, then 1 Mi counted. The fill grows the index to 2^17
// words, its last growth empties it, and the warm-up fills it again. Over
// none nothing is retired, so a hint that is found validates unless it is
// another key's, and the counts are the tables' policies alone.
func TestIndexHitRate(t *testing.T) {
	if raceDetector {
		t.Skip("4 Mi lookups; the race detector has nothing to find in them")
	}
	const (
		keys    = 1 << 18
		lookups = 1 << 20
	)
	for _, row := range []struct {
		name                  string
		theta                 float64
		finger, index, walked int
	}{
		{"zipf", 0.99, 670_838, 154_324, 223_414},
		{"uniform", 0, 16_216, 422_152, 610_208},
	} {
		s, d, hs := newSet(t, "none", 2, 0)
		for k := int64(0); k < keys; k += 2 {
			hs[0].Insert(k)
		}
		if n := len(s.index.Load().words); n != keys/2 {
			t.Fatalf("after the fill the index has %d words, want %d: one per two pool slots", n, keys/2)
		}
		rng := workload.NewRNG(99)
		var finger, index, walked int
		for i := range 2 * lookups {
			key := rng.ZipfKey(keys, row.theta) * 0x9E3779B1 % keys
			h := hs[i%2]
			h.guard.Begin()
			answer := &walked
			if _, _, _, ok := h.probe(key, true); ok {
				answer = &finger
			} else if _, _, ok := h.byIndex(key); ok {
				answer = &index
			} else if n, _, found := h.walk(key); found {
				s.index.Load().note(key, n)
			}
			h.guard.ClearHPs()
			if i >= lookups {
				*answer++
			}
		}
		d.Close()
		t.Logf("%s: finger %d, index %d, walk %d of %d lookups (%.1f %% walked)", row.name, finger, index, walked, lookups, 100*float64(walked)/lookups)
		if finger != row.finger || index != row.index || walked != row.walked {
			t.Errorf("%s: finger %d, index %d, walk %d; want exactly %d, %d, %d", row.name, finger, index, walked, row.finger, row.index, row.walked)
		}
	}
}
