package mem

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// TestResolvedRecheckFaults: a carried slot is no quieter than Pool.Get. The
// re-check faults on every way a Ref goes stale, and the report carries both
// generations — "slot generation N+1, reference generation N" is the line
// every use-after-free hunt in this repository started from.
func TestResolvedRecheckFaults(t *testing.T) {
	cases := []struct {
		name  string
		stale func(p *Pool[tnode], r Ref) Ref // makes r stale; returns the Ref to re-check with
		bump  uint32                          // slot generation minus reference generation afterwards
	}{
		{"after Free", func(p *Pool[tnode], r Ref) Ref { p.Free(r); return r }, 1},
		{"after Free+Alloc of the same index", func(p *Pool[tnode], r Ref) Ref {
			p.Free(r)
			if r2, _ := p.Alloc(); r2.index() != r.index() {
				t.Fatalf("expected LIFO reuse of slot %d, got %d", r.index(), r2.index())
			}
			return r
		}, 2},
		{"via an Untagged link word", func(p *Pool[tnode], r Ref) Ref { p.Free(r); return r.WithTag(1).Untagged() }, 1},
	}
	for _, c := range cases {
		p := NewPool[tnode](Config{Name: "t"})
		p.AdvanceEra()
		r, v := p.Alloc()
		s := p.Resolve(r)
		if s.Get(r) != v || s.Get(r.WithTag(1).Untagged()) != v || p.Get(r) != v {
			t.Fatalf("%s: a live slot must resolve and re-check to its value", c.name)
		}
		if got, err := p.TryGet(r); got != v || err != nil || !p.Valid(r) || p.BirthEra(r) != 1 {
			t.Fatalf("%s: live ref: TryGet %p %v, Valid %v, BirthEra %d", c.name, got, err, p.Valid(r), p.BirthEra(r))
		}
		if ps, raw, live := p.Peek(r); ps != s || raw != v || !live || !s.Live(r) {
			t.Fatalf("%s: live ref: Peek %v %p %v, Live %v", c.name, ps, raw, live, s.Live(r))
		}
		with := c.stale(p, r)
		// Peek and Live report what Get is about to raise, and raise nothing.
		if ps, raw, live := p.Peek(with); ps != s || raw != v || live || s.Live(with) {
			t.Errorf("%s: stale ref: Peek %v %p %v, Live %v", c.name, ps, raw, live, s.Live(with))
		}
		viol := mustViolate(t, c.name, func() { s.Get(with) })
		want := Violation{Op: "get", Ref: r, Want: r.gen(), Got: r.gen() + c.bump}
		if *viol != want {
			t.Errorf("%s: re-check reports %+v, want %+v", c.name, *viol, want)
		}
		if line := fmt.Sprintf("slot generation %d, reference generation %d", want.Got, want.Want); !strings.Contains(viol.Error(), line) {
			t.Errorf("%s: report %q lacks %q", c.name, viol.Error(), line)
		}
		// The pool's own entry points agree with the carried slot.
		if first := mustViolate(t, c.name, func() { p.Get(r) }); *first != want {
			t.Errorf("%s: Get reports %+v, want %+v", c.name, *first, want)
		}
		var tried *Violation
		if _, err := p.TryGet(r); !errors.As(err, &tried) || *tried != want || p.Valid(r) {
			t.Errorf("%s: stale ref: TryGet %v, Valid %v", c.name, err, p.Valid(r))
		}
	}
}

// A nil Ref is a null-pointer dereference, not a use-after-free: the plain
// message survives the move of the check into Resolve.
func TestResolveNilRef(t *testing.T) {
	p := NewPool[tnode](Config{Name: "t"})
	for _, r := range []Ref{0, Ref(0).WithTag(1)} {
		for name, deref := range map[string]func(){"Get": func() { p.Get(r) }, "Resolve": func() { p.Resolve(r) }} {
			func() {
				defer func() {
					if rec := recover(); rec != "mem: nil Ref dereference" {
						t.Errorf("%s(%v): panic %v, want the nil-dereference message", name, r, rec)
					}
				}()
				deref()
			}()
		}
	}
}

// TestPoolLayout pins the rule stated on Pool: nothing an Alloc, Free or grow
// writes may share a cache line with cfg or dir, wherever the struct lands.
func TestPoolLayout(t *testing.T) {
	var p Pool[tnode]
	readEnd := max(unsafe.Offsetof(p.cfg)+unsafe.Sizeof(p.cfg), unsafe.Offsetof(p.dir)+unsafe.Sizeof(p.dir))
	for name, off := range map[string]uintptr{
		"nSlabs":   unsafe.Offsetof(p.nSlabs),
		"freeHead": unsafe.Offsetof(p.freeHead),
		"era":      unsafe.Offsetof(p.era),
		"growMu":   unsafe.Offsetof(p.growMu),
		"allocs":   unsafe.Offsetof(p.allocs),
		"frees":    unsafe.Offsetof(p.frees),
		"grows":    unsafe.Offsetof(p.grows),
	} {
		if off < readEnd+64 {
			t.Errorf("Pool.%s at offset %d: written words must start >= 64 bytes after cfg/dir end (%d)", name, off, readEnd)
		}
	}
}

// scrubbed is a node type with an optimistic reader: it clears its own atomic
// word atomically.
type scrubbed struct {
	word  atomic.Uint64
	plain uint64
}

func (s *scrubbed) Scrub() { s.word.Store(0); s.plain = 0 }

// TestPoisonIsRaceClean: with Poison on, a reader that Peeks a slot and loads
// its atomic word while the slot is being freed (and validates afterwards, as
// a search finger does) does not race with the clearing — the type's Scrub
// stores atomically — and both paths to Free, the pool's and a cache's, still
// leave a stale raw pointer reading cleared memory. Meaningful under -race.
func TestPoisonIsRaceClean(t *testing.T) {
	p := NewPool[scrubbed](Config{Name: "t", Poison: true})
	c := p.NewCache(4)
	for i := 0; i < 2000; i++ {
		r, v := c.Alloc()
		v.word.Store(7)
		v.plain = 7
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, raw, live := p.Peek(r)
			if w := raw.word.Load(); live && res.Live(r) && w != 7 {
				t.Errorf("validated load of a live slot read %d, want 7", w)
			}
		}()
		if i%2 == 0 {
			p.Free(r)
		} else {
			c.Free(r)
		}
		wg.Wait()
		if v.word.Load() != 0 || v.plain != 0 {
			t.Fatalf("freed slot reads %d/%d through a stale pointer, want cleared", v.word.Load(), v.plain)
		}
	}
	// A type without Scrub is assigned its zero value, as before.
	q := NewPool[tnode](Config{Name: "t", Poison: true})
	r, v := q.Alloc()
	*v = tnode{key: 9}
	q.Free(r)
	if *v != (tnode{}) {
		t.Fatalf("freed slot reads %+v through a stale pointer, want the zero value", *v)
	}
}
