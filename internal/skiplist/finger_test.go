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
// frees is the slot b's next insert gets. a's operations read the node index
// words b's inserts and a's walks left; a row about a stale word sets it by
// hand.
type fingerRig struct {
	t    *testing.T
	s    *SkipList
	a, b *Handle
	ga   *hookGuard
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
	before := r.ga.calls
	val, ok = r.a.GetAppend(key, nil)
	return val, ok, r.ga.calls - before, nil
}

// del is get for a's Delete.
func (r *fingerRig) del(key int64) (ok bool, protects int, rec any) {
	defer func() { rec = recover() }()
	before := r.ga.calls
	ok = r.a.Delete(key)
	return ok, r.ga.calls - before, nil
}

// TestFingerDetection is TestDetectionNotThinned for the operations a node
// index word answers: in node form, for a present key, or in edge form, for
// an absent one. A word is refused — silently, the walk's answer returned —
// whenever what it names is gone at validation or its edge no longer brackets
// the key; past validation a node is protected like one a search found, and
// freeing it faults.
func TestFingerDetection(t *testing.T) {
	const k = 50

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

	// Every node row starts from k's node index word, which names k's node
	// and has just answered a GET in one publication, the pin: the rig's
	// values are the node's own (self).
	prime := func(t *testing.T) (*fingerRig, mem.Ref) {
		r := newFingerRig(t)
		n := r.node(k)
		if got := r.s.indexed(k); got != n {
			t.Fatalf("after b's insert the word is %v, want key's node %v", got, n)
		}
		if v, ok, protects, rec := r.get(k); !ok || !bytes.Equal(v, rigVal(k, 0)) || protects != 1 || rec != nil {
			t.Fatalf("GET by index: %x %v in %d publications, panic %v", v, ok, protects, rec)
		}
		return r, n
	}

	t.Run("index: names a freed slot", func(t *testing.T) {
		r, n := prime(t)
		retireAndFree(r, k, n)
		r.s.index.Load().note(k, n) // over the edge b's DEL left there
		if v, ok, protects, rec := r.get(k); ok || rec != nil || protects <= 1 {
			t.Fatalf("got %x %v in %d publications, panic %v; want the walk's answer: absent", v, ok, protects, rec)
		}
	})
	// The second generation check's row: the slot is recycled — same key,
	// same slot, next[0] unmarked — between the first check and the load.
	t.Run("index: slot re-allocated to the same key at its own Protect", func(t *testing.T) {
		r, n := prime(t)
		r.ga.arm(1, func(int, mem.Ref) { retireAndFree(r, k, n); reuse(r, k, n) })
		if v, ok, protects, rec := r.get(k); !ok || !bytes.Equal(v, []byte{1}) || rec != nil || protects <= 1 {
			t.Fatalf("got %x %v in %d publications, panic %v; want the walk's answer: 01", v, ok, protects, rec)
		}
	})
	// The first generation check's row: the key compare alone would take the
	// new tenant for the node the word names.
	t.Run("freed and re-allocated with the same key between two operations", func(t *testing.T) {
		r, n := prime(t)
		retireAndFree(r, k, n)
		n2 := reuse(r, k, n)
		r.s.index.Load().note(k, n)
		if v, ok, protects, rec := r.get(k); !ok || !bytes.Equal(v, []byte{1}) || rec != nil || protects <= 1 {
			t.Fatalf("got %x %v in %d publications, panic %v; want the walk's answer: 01", v, ok, protects, rec)
		}
		if got := r.s.indexed(k); got != n2 {
			t.Fatalf("after the walk the word is %v, want the new node %v", got, n2)
		}
	})
	// The key compare's row: absent key c, below k, shares k's word, so the
	// word names a live, unmarked node — of another key, above c.
	t.Run("index: another key's node", func(t *testing.T) {
		r, n := prime(t)
		c := int64(k - 1)
		for r.s.index.Load().word(c) != r.s.index.Load().word(k) {
			c--
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
	// The mark check's rows: deleted and re-inserted, the old node retired
	// but not yet freed — its generation still matches, only the mark says
	// it is no longer the key's node. Here the word is put back on it by
	// hand; below, the word names the re-inserted node when that is deleted.
	t.Run("index: a marked node", func(t *testing.T) {
		r, n := prime(t)
		r.b.Delete(k)
		r.b.PutBytes(k, rigVal(k, 1))
		r.s.index.Load().note(k, n)
		if v, ok, _, rec := r.get(k); !ok || !bytes.Equal(v, rigVal(k, 1)) || rec != nil {
			t.Fatalf("got %x %v, panic %v; want the re-inserted value", v, ok, rec)
		}
	})
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
	// An overwrite spills to a value node, so a GET by index publishes it
	// too: the pin, then the value slot — where the free lands.
	freedAtValue := func(t *testing.T, victim func(r *fingerRig, n mem.Ref) mem.Ref) {
		r, n := prime(t)
		r.b.PutBytes(k, rigVal(k, 1))
		if w := r.s.pool.Get(n).val.Load(); shapeOf(w, n) != shapeSpilled {
			t.Fatalf("after an overwrite the value word is %#x, want a value node", w)
		}
		r.ga.arm(2, func(slot int, _ mem.Ref) {
			if slot != r.a.hpVal() {
				t.Fatalf("second publication of a GET by index is slot %d, want the value slot", slot)
			}
			r.s.pool.Free(victim(r, n))
		})
		if v, ok, _, rec := r.get(k); !faulted(rec) {
			t.Errorf("freed at the value publication: got %x %v, panic %v; want *mem.Violation{Op: get}", v, ok, rec)
		}
	}
	t.Run("index: node freed after validation", func(t *testing.T) {
		freedAtValue(t, func(_ *fingerRig, n mem.Ref) mem.Ref { return n })
	})
	t.Run("freed after validation", func(t *testing.T) { // the value node
		freedAtValue(t, func(r *fingerRig, n mem.Ref) mem.Ref { return mem.Ref(r.s.pool.Get(n).val.Load()) })
	})
	// A self value is read with no publication after the pin, so there is
	// no Protect to land on: the row is the GET by index cut by hand between
	// its value-word load and its payload read.
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

	// The edge form's rows. 55 is absent between 50 and 60, and a GET that
	// walked to find it so left 50 in its word: the edge's predecessor.
	primeGap := func(t *testing.T) (*fingerRig, mem.Ref) {
		r := newFingerRig(t)
		p := r.node(50)
		r.get(55)
		if got := r.s.indexed(55); got != p {
			t.Fatalf("after an absent GET the word is %v, want the edge's predecessor %v", got, p)
		}
		if v, ok, protects, rec := r.get(55); ok || protects != 2 || rec != nil {
			t.Fatalf("absent GET by edge: %x %v in %d publications, panic %v", v, ok, protects, rec)
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
	// The order check's row: the insert noted its node, and the word is put
	// back on the edge's predecessor by hand. 50 still leads on, unmarked —
	// to 55 itself, which is not past 55.
	t.Run("edge: word names 50 while 55 is present", func(t *testing.T) {
		r, p := primeGap(t)
		r.b.PutBytes(55, rigVal(55, 0))
		r.s.index.Load().note(55, p)
		if v, ok, protects, rec := r.get(55); !ok || !bytes.Equal(v, rigVal(55, 0)) || rec != nil || protects <= 2 {
			t.Fatalf("got %x %v in %d publications, panic %v; want the walk's answer: the inserted value", v, ok, protects, rec)
		}
	})
	// The mark check on the edge's predecessor: 50 deleted, retired but not
	// freed, its frozen next[0] still leading to 60 — past 55, which is
	// present behind it all the same.
	t.Run("edge: predecessor deleted, its frozen edge over a present key", func(t *testing.T) {
		r, p := primeGap(t)
		r.b.Delete(50)
		r.b.PutBytes(55, rigVal(55, 0))
		r.s.index.Load().note(55, p)
		if v, ok, _, rec := r.get(55); !ok || !bytes.Equal(v, rigVal(55, 0)) || rec != nil {
			t.Fatalf("got %x %v, panic %v; want the inserted value", v, ok, rec)
		}
	})
	// The second check again, on the predecessor: 55 is inserted behind a new
	// predecessor before the GET begins, and at the GET's publication the old
	// predecessor's slot comes back as key 57 — unmarked, below 55's
	// successor.
	t.Run("gap predecessor recycled at the finger's own Protect", func(t *testing.T) {
		r, p := primeGap(t)
		r.b.Delete(50)
		r.b.PutBytes(55, rigVal(55, 0))
		r.s.index.Load().note(55, p)
		r.ga.arm(1, func(int, mem.Ref) { r.s.pool.Free(p); reuse(r, 57, p) })
		if v, ok, _, rec := r.get(55); !ok || !bytes.Equal(v, rigVal(55, 0)) || rec != nil {
			t.Fatalf("got %x %v, panic %v; want the value put before the GET began", v, ok, rec)
		}
	})
	// The edge re-load's row: at the successor's publication in the scratch
	// slot, 60 is deleted and its slot freed. The re-load sees 50 lead to 70
	// now, and the edge is refused before 60's key is read.
	t.Run("edge: successor freed at the scratch Protect", func(t *testing.T) {
		r, _ := primeGap(t)
		succ := r.node(60)
		r.ga.arm(2, func(slot int, _ mem.Ref) {
			if slot != r.a.hpScratch() {
				t.Fatalf("second publication of a GET by edge is slot %d, want the scratch slot", slot)
			}
			retireAndFree(r, 60, succ)
		})
		if v, ok, protects, rec := r.get(55); ok || rec != nil || protects <= 2 {
			t.Fatalf("got %x %v in %d publications, panic %v; want the walk's answer: absent", v, ok, protects, rec)
		}
	})

	// Prefetch loads what a word names before anything validates it, so it
	// must not fault on what a stale word or a frozen edge leads to, and the
	// GET after it gives the walk's answer, not the stale one.
	prefetch := func(r *fingerRig, key int64) (rec any) {
		defer func() { rec = recover() }()
		r.a.Prefetch([]int64{key})
		return nil
	}
	t.Run("prefetch: word names a freed slot", func(t *testing.T) {
		r, n := prime(t)
		retireAndFree(r, k, n)
		r.s.index.Load().note(k, n)
		if rec := prefetch(r, k); rec != nil {
			t.Fatalf("Prefetch panicked: %v", rec)
		}
		if v, ok, _, rec := r.get(k); ok || rec != nil {
			t.Fatalf("GET after the Prefetch: %x %v, panic %v; want absent", v, ok, rec)
		}
	})
	t.Run("prefetch: word names a recycled slot", func(t *testing.T) {
		r, n := prime(t)
		retireAndFree(r, k, n)
		reuse(r, k, n)
		r.s.index.Load().note(k, n)
		if rec := prefetch(r, k); rec != nil {
			t.Fatalf("Prefetch panicked: %v", rec)
		}
		if v, ok, _, rec := r.get(k); !ok || !bytes.Equal(v, []byte{1}) || rec != nil {
			t.Fatalf("GET after the Prefetch: %x %v, panic %v; want 01", v, ok, rec)
		}
	})
	// 55's word names 50, deleted first, so its next[0] is frozen at 60;
	// then 60 is deleted and its slot freed.
	t.Run("prefetch: edge whose successor was freed", func(t *testing.T) {
		r, _ := primeGap(t)
		succ := r.node(60)
		r.b.Delete(50)
		retireAndFree(r, 60, succ)
		if rec := prefetch(r, 55); rec != nil {
			t.Fatalf("Prefetch panicked: %v", rec)
		}
		if v, ok, _, rec := r.get(55); ok || rec != nil {
			t.Fatalf("GET after the Prefetch: %x %v, panic %v; want absent", v, ok, rec)
		}
	})

	// Delete takes the same hints, and leaves its word in edge form.
	t.Run("DEL: freed at the index word's own Protect", func(t *testing.T) {
		r, n := prime(t)
		r.ga.arm(1, func(int, mem.Ref) { retireAndFree(r, k, n) })
		if ok, protects, rec := r.del(k); ok || rec != nil || protects <= 1 {
			t.Fatalf("got %v in %d publications, panic %v; want the walk's answer: absent", ok, protects, rec)
		}
	})
	t.Run("DEL: by index, leaving the edge", func(t *testing.T) {
		r, _ := prime(t)
		p, s := r.node(40), r.node(60)
		if ok, _, rec := r.del(k); !ok || rec != nil {
			t.Fatalf("got %v, panic %v; want deleted", ok, rec)
		}
		if got := r.s.indexed(k); got != p {
			t.Fatalf("after the DEL the word is %v, want the edge's predecessor %v (%v leads on to %v)", got, p, p, s)
		}
		if v, ok, protects, rec := r.get(k); ok || protects != 2 || rec != nil {
			t.Fatalf("GET after the DEL: %x %v in %d publications, panic %v; want absent by the edge", v, ok, protects, rec)
		}
		if ok, protects, rec := r.del(k); ok || protects != 2 || rec != nil {
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
	// walk then finds below key+1 is b's node, which a's DEL leaves in the
	// word — in node form, so a's next GET finds it.
	t.Run("DEL: key re-inserted inside its prune", func(t *testing.T) {
		r, _ := prime(t)
		r.ga.arm(2, func(int, mem.Ref) { r.b.PutBytes(k, rigVal(k, 1)) })
		if ok, _, rec := r.del(k); !ok || rec != nil {
			t.Fatalf("got %v, panic %v; want deleted", ok, rec)
		}
		if got, n := r.s.indexed(k), r.node(k); got != n {
			t.Fatalf("after the DEL the word is %v, want b's node %v", got, n)
		}
		if v, ok, protects, rec := r.get(k); !ok || !bytes.Equal(v, rigVal(k, 1)) || protects != 1 || rec != nil {
			t.Fatalf("GET after the DEL: %x %v in %d publications, panic %v; want b's value by index", v, ok, protects, rec)
		}
	})
}

// TestFingersPinNothing: a node index word is a hint, not a protection, in
// either form. An index full of words — most of them edges, left by a
// handle's lookups of absent keys — on nodes that are then all deleted holds
// reclamation back by nothing: with the handle's lease returned (the
// containers keep the handle for the slot's next tenant) Pending drains
// exactly as far as it does with the words cleared.
func TestFingersPinNothing(t *testing.T) {
	const keys = 1 << 14 // the even ones stored; the odd ones, absent, leave their words in edge form
	pendingAfter := func(t *testing.T, scheme string, keepWords bool) int64 {
		s, d, hs := newSet(t, scheme, 2, 16)
		defer d.Close()
		a, b := hs[0], hs[1]
		for k := int64(0); k < keys; k += 2 {
			b.PutBytes(k, sabVal)
		}
		for k := int64(0); k < keys; k++ {
			a.GetAppend(k, nil)
		}
		x, edges := s.index.Load(), 0
		for i := range x.words {
			// An edge form word names a node whose own key hashes elsewhere.
			if r := mem.Ref(x.words[i].Load()); !r.IsNil() && x.word(s.pool.Get(r).key) != &x.words[i] {
				edges++
			}
		}
		if edges < len(x.words)/4 {
			t.Fatalf("only %d of %d node index words hold an edge", edges, len(x.words))
		}
		if !keepWords {
			s.clearIndex()
		}
		d.Release(a.guard)
		for k := int64(0); k < keys; k += 2 {
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
			t.Errorf("%s, words kept=%v: %d of %d deleted nodes still not freed", scheme, keepWords, live(), keys/2)
		}
		return d.Stats().Pending
	}
	for _, scheme := range reclaim.Schemes() {
		if scheme == "none" {
			continue // frees nothing, words or no words
		}
		t.Run(scheme, func(t *testing.T) {
			with, without := pendingAfter(t, scheme, true), pendingAfter(t, scheme, false)
			t.Logf("pending with a node index full of stale words: %d; without: %d", with, without)
		})
	}
}

// TestPrefetchPinsNothing: Prefetch publishes nothing, so the nodes it
// loaded are reclaimed once deleted, as if it had never run. Handle a
// prefetches every key, present or absent, and then leaves reclamation
// keeping its lease, as a kvd connection does before its next socket read; b
// deletes every stored key and returns its lease, and c drives reclamation —
// adopting b's backlog — until each of the deleted nodes' slots is freed. (c
// and not b: a hazard pointer guard's scan runs inside its own operation,
// where the slots its earlier walks left hold nodes it deleted.)
func TestPrefetchPinsNothing(t *testing.T) {
	const keys = 1 << 10 // the even ones stored
	for _, scheme := range reclaim.Schemes() {
		if scheme == "none" {
			continue // frees nothing
		}
		t.Run(scheme, func(t *testing.T) {
			s, d, hs := newSet(t, scheme, 3, 16)
			defer d.Close()
			a, b, c := hs[0], hs[1], hs[2]
			var stored []mem.Ref
			all := make([]int64, keys)
			for k := range all {
				all[k] = int64(k)
				if k%2 == 0 {
					b.PutBytes(int64(k), sabVal)
					stored = append(stored, s.indexed(int64(k)))
				}
			}
			a.Prefetch(all)
			if l, ok := a.guard.(reclaim.Leaver); ok {
				l.Leave()
				defer l.Join()
			}
			for k := int64(0); k < keys; k += 2 {
				b.Delete(k)
			}
			d.Release(b.guard)
			held := func() (n int) {
				for _, r := range stored {
					if s.pool.Valid(r) {
						n++
					}
				}
				return n
			}
			for deadline := time.Now().Add(5 * time.Second); held() > 0 && time.Now().Before(deadline); {
				for i := 0; i < 100; i++ {
					c.Insert(-1)
					c.Delete(-1)
				}
				time.Sleep(time.Millisecond)
			}
			if n := held(); n > 0 {
				t.Errorf("%d of %d deleted nodes still not freed after a's Prefetch", n, len(stored))
			}
		})
	}
}

// fingerSeeds are schedules of exploreFingers recorded when they killed a
// mutant (testdata/mutants; kill.sh replays them), and none is dropped: hp's
// first and the last of every other row but hyaline's fault with a
// *mem.Violation once validate's second generation check is removed (no seed
// up to 300 does under hyaline; rc's 9 and ebr's and ibr's 12 did against an
// earlier finger table); seed 1 of every scheme has no linearization once
// validate's mark check is, and faults on a double free once a displaced self
// value is retired; seed 2 of every scheme had no linearization once Delete
// left an edge finger over the node prune found (a mutant the node index's
// edge form retired: that node is key's, and its word is then in node form).
// They run before the seeds every run counts through. A seed that fails is
// printed; add it here.
var fingerSeeds = map[string][]uint64{
	"hp": {19, 1, 2}, "rc": {9, 1, 2, 8}, "qsbr": {1, 2, 3}, "ebr": {12, 1, 2, 4}, "ibr": {12, 1, 2, 8}, "hyaline": {1, 2},
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

// raceDetector is set by race_test.go when the race detector is built in.
var raceDetector bool

// TestIndexHitRate pins, as exact counts, which of locate's three answers a
// lookup gets when two handles share the list: the node index word in edge
// form (absent keys only), in node form (present keys only), or a walk, which
// notes the node it found or the edge's predecessor in the word. The key
// space is the ruler's — 2^18 keys, every other one stored, zipf(0.99) ranks
// scattered by the ruler's multiplier, or uniform — and the two handles take
// the stream's lookups in turn, as the ruler's two connections do; 1 Mi
// lookups of warm-up, then 1 Mi counted. The fill grows the index to 2^18
// words, one per pool slot; each growth keeps the hints the fill noted, and
// the warm-up fills in the rest. Over none nothing is retired, so a word that is found validates
// unless it is another key's and no edge of it brackets the key, and the
// counts are the index's policy alone.
func TestIndexHitRate(t *testing.T) {
	if raceDetector {
		t.Skip("4 Mi lookups; the race detector has nothing to find in them")
	}
	const (
		keys    = 1 << 18
		lookups = 1 << 20
	)
	for _, row := range []struct {
		name                string
		theta               float64
		edge, index, walked int
	}{
		{"zipf", 0.99, 462_300, 535_236, 51_040},
		{"uniform", 0, 459_638, 461_511, 127_427},
	} {
		s, d, hs := newSet(t, "none", 2, 0)
		for k := int64(0); k < keys; k += 2 {
			hs[0].Insert(k)
		}
		if n := len(s.index.Load().words); n != keys {
			t.Fatalf("after the fill the index has %d words, want %d: one per pool slot", n, keys)
		}
		rng := workload.NewRNG(99)
		var edge, index, walked int
		for i := range 2 * lookups {
			key := rng.ZipfKey(keys, row.theta) * 0x9E3779B1 % keys
			h := hs[i%2]
			h.guard.Begin()
			answer := &walked
			if _, _, found, ok := h.hint(key); ok && found {
				answer = &index
			} else if ok {
				answer = &edge
			} else if n, _, found := h.walk(key); found {
				s.index.Load().note(key, n)
			}
			h.guard.ClearHPs()
			if i >= lookups {
				*answer++
			}
		}
		d.Close()
		t.Logf("%s: edge %d, index %d, walk %d of %d lookups (%.1f %% walked)", row.name, edge, index, walked, lookups, 100*float64(walked)/lookups)
		if edge != row.edge || index != row.index || walked != row.walked {
			t.Errorf("%s: edge %d, index %d, walk %d; want exactly %d, %d, %d", row.name, edge, index, walked, row.edge, row.index, row.walked)
		}
	}
}
