package list

import (
	"testing"

	"qsense/internal/mem"
	"qsense/internal/reclaim"
)

// sabotageGuard frees a node the operation in flight is about to use, on the
// k-th Protect of that operation, over a guard that protects nothing (none):
// whatever the operation then does with the victim is a use-after-free, and
// the only thing between it and a silent wrong answer is the pool's
// generation check. The freed slot keeps its bytes (no Poison), so a walk
// that carried a raw *node instead of re-checking would finish the operation
// and return as if nothing had happened.
type sabotageGuard struct {
	reclaim.Guard
	pool *mem.Pool[node]
	k    int    // which Protect call frees the victim; 0 never does
	pick victim // which node that is

	calls int
	fired bool
	last  mem.Ref // the previous publication: the walk's carried prev
}

// A victim names the node to free on a Protect(r) call, or the nil Ref when
// that call has no such node (the case is then skipped, not passed).
type victim func(g *sabotageGuard, r mem.Ref) mem.Ref

// The ref being published: freed after the walk loaded it from the link,
// before the publication and the link's re-validation.
func pickPublished(_ *sabotageGuard, r mem.Ref) mem.Ref { return r }

// The walk's prev, validated and resolved one hop earlier and carried since.
// An uncontended walk over chains with no marked node makes one pass and
// advances on every Protect, so prev is the previous publication; on the
// first Protect prev is the bucket word and there is no victim.
func pickPrev(g *sabotageGuard, _ mem.Ref) mem.Ref { return g.last }

func (g *sabotageGuard) Protect(slot int, r mem.Ref) {
	g.calls++
	if !g.fired {
		if g.calls == g.k {
			if v := g.pick(g, r); !v.IsNil() {
				g.pool.Free(v)
				g.fired = true
			}
		}
		g.last = r
	}
	g.Guard.Protect(slot, r)
}

const (
	sabKeys    = 200
	sabPresent = sabKeys / 2 // even keys are present, odd keys absent
	sabAbsent  = sabKeys/2 + 1
)

// sabotage runs op on a fresh copy of the fixed chains — the even keys of
// [0, sabKeys) over the given bucket count — with pick's victim freed on the
// k-th Protect, and returns op's answer or what it panicked with.
func sabotage(t *testing.T, buckets int, op func(h *Handle) bool, k int, pick victim) (g *sabotageGuard, ok bool, rec any) {
	l := New(Config{Buckets: buckets})
	d, err := reclaim.New("none", reclaim.Config{Workers: 1, HPs: HPs, Free: l.FreeNode})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	lease, err := d.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	g = &sabotageGuard{Guard: lease, pool: l.pool, pick: pick}
	h := l.NewHandle(g)
	for key := int64(0); key < sabKeys; key += 2 {
		h.Insert(key)
	}
	g.calls, g.k, g.last = 0, k, 0
	defer func() { rec = recover() }()
	return g, op(h), nil
}

// TestChainDetectionNotThinned: freeing a node under a running operation
// faults with *mem.Violation{Op: "get"} before the operation returns,
// whichever Protect call the free lands on and whether it hits the node
// being published or the prev the walk carries, in the list and in a hash
// table's chain. It exists so that resolving once per hop never quietly
// becomes checking once per hop (cf. the skip list's TestDetectionNotThinned).
func TestChainDetectionNotThinned(t *testing.T) {
	ops := []struct {
		name string
		run  func(h *Handle) bool
	}{
		{"Contains", func(h *Handle) bool { return h.Contains(sabPresent) }},
		{"Insert", func(h *Handle) bool { return h.Insert(sabAbsent) }},
		{"Delete", func(h *Handle) bool { return h.Delete(sabPresent) }},
	}
	victims := []struct {
		name string
		pick victim
	}{{"published ref", pickPublished}, {"prev", pickPrev}}
	for _, buckets := range []int{1, 4} {
		for _, op := range ops {
			// An unsabotaged run counts the Protect calls there are to land on.
			g, ok, rec := sabotage(t, buckets, op.run, 0, nil)
			if rec != nil || !ok {
				t.Fatalf("buckets=%d %s: unsabotaged run answered %v, panicked with %v", buckets, op.name, ok, rec)
			}
			protects := g.calls
			for _, v := range victims {
				fired := 0
				for k := 1; k <= protects; k++ {
					g, _, rec := sabotage(t, buckets, op.run, k, v.pick)
					if !g.fired {
						continue
					}
					fired++
					if viol, isViol := rec.(*mem.Violation); !isViol || viol.Op != "get" {
						t.Errorf("buckets=%d %s, %s freed on Protect %d of %d: operation ended with %v, want *mem.Violation{Op: get}",
							buckets, op.name, v.name, k, protects, rec)
					}
				}
				if fired == 0 {
					t.Errorf("buckets=%d %s, %s: none of %d Protect calls had a victim", buckets, op.name, v.name, protects)
				}
				t.Logf("buckets=%d %s, %s: freed on %d of %d Protect calls", buckets, op.name, v.name, fired, protects)
			}
		}
	}
}
