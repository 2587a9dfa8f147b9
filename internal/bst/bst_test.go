package bst

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"qsense/internal/mem"
	"qsense/internal/reclaim"
	"qsense/internal/rooster"
)

func newSet(t *testing.T, scheme string, workers int) (*Tree, reclaim.Domain, []*Handle) {
	t.Helper()
	tr := New(Config{Poison: true})
	d, err := reclaim.New(scheme, reclaim.Config{
		Workers: workers,
		HPs:     HPs,
		Free:    tr.FreeNode,
		Q:       8,
		R:       32,
		Rooster: rooster.Config{Interval: 500 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := make([]*Handle, workers)
	for i := range hs {
		g, err := d.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		hs[i] = tr.NewHandle(g)
	}
	return tr, d, hs
}

// sortedKeys returns the user keys in sorted order; only meaningful when quiesced.
func sortedKeys(t *Tree) []int64 {
	var ks []int64
	var rec func(r mem.Ref)
	rec = func(r mem.Ref) {
		nd := t.pool.Get(r)
		if nd.left.Load() == 0 {
			if nd.key < inf0 {
				ks = append(ks, nd.key)
			}
			return
		}
		rec(addr(nd.left.Load()))
		rec(addr(nd.right.Load()))
	}
	rec(t.root)
	return ks
}

func TestBSTEmptySkeleton(t *testing.T) {
	tr := New(Config{})
	if n, msg := tr.Validate(); msg != "" || n != 0 {
		t.Fatalf("fresh tree: n=%d msg=%q", n, msg)
	}
	if tr.Len() != 0 {
		t.Fatal("fresh tree not empty")
	}
	// 2 internal sentinels + 3 sentinel leaves.
	if live := tr.Pool().Stats().Live; live != 5 {
		t.Fatalf("sentinel nodes = %d, want 5", live)
	}
}

func TestBSTBasicSemantics(t *testing.T) {
	for _, scheme := range reclaim.Schemes() {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			_, d, hs := newSet(t, scheme, 1)
			defer d.Close()
			h := hs[0]
			if h.Contains(9) {
				t.Fatal("empty contains")
			}
			if !h.Insert(9) || h.Insert(9) {
				t.Fatal("insert semantics")
			}
			if !h.Contains(9) {
				t.Fatal("missing after insert")
			}
			if !h.Delete(9) || h.Delete(9) {
				t.Fatal("delete semantics")
			}
			if h.Contains(9) {
				t.Fatal("present after delete")
			}
		})
	}
}

func TestBSTDeleteRemovesTwoNodes(t *testing.T) {
	_, d, hs := newSet(t, "hp", 1)
	h := hs[0]
	h.Insert(1)
	h.Insert(2)
	retiredBefore := d.Stats().Retired
	h.Delete(1)
	if got := d.Stats().Retired - retiredBefore; got != 2 {
		t.Fatalf("delete retired %d nodes, want 2 (leaf + internal)", got)
	}
	d.Close()
}

func TestBSTSortedKeysAndValidate(t *testing.T) {
	tr, d, hs := newSet(t, "qsbr", 1)
	defer d.Close()
	h := hs[0]
	keys := []int64{50, 20, 80, 10, 30, 70, 90, 25, 35, 0, 100}
	for _, k := range keys {
		if !h.Insert(k) {
			t.Fatalf("insert %d", k)
		}
	}
	got := sortedKeys(tr)
	want := append([]int64(nil), keys...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("len %d != %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("keys[%d] = %d want %d", i, got[i], want[i])
		}
	}
	if n, msg := tr.Validate(); msg != "" || n != len(want) {
		t.Fatalf("validate: n=%d msg=%q", n, msg)
	}
}

func TestBSTMaxKeyBoundary(t *testing.T) {
	_, d, hs := newSet(t, "hp", 1)
	defer d.Close()
	h := hs[0]
	if !h.Insert(MaxKey) {
		t.Fatal("MaxKey must be insertable")
	}
	if !h.Contains(MaxKey) || h.Contains(MaxKey-1) {
		t.Fatal("MaxKey membership wrong")
	}
	if !h.Delete(MaxKey) {
		t.Fatal("MaxKey delete")
	}
	if !h.Insert(0) || !h.Contains(0) {
		t.Fatal("zero key")
	}
}

func TestBSTAgainstModelQuick(t *testing.T) {
	f := func(ops []int16) bool {
		tr, d, hs := newSet(t, "qsense", 1)
		defer d.Close()
		h := hs[0]
		model := map[int64]bool{}
		for _, o := range ops {
			key := int64(o % 48)
			switch {
			case o%3 == 0:
				if h.Insert(key) == model[key] {
					return false
				}
				model[key] = true
			case o%3 == 1:
				if h.Delete(key) != model[key] {
					return false
				}
				delete(model, key)
			default:
				if h.Contains(key) != model[key] {
					return false
				}
			}
		}
		n, msg := tr.Validate()
		return msg == "" && n == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBSTReclaimsDeletedNodes(t *testing.T) {
	tr, d, hs := newSet(t, "qsbr", 1)
	h := hs[0]
	for round := 0; round < 30; round++ {
		for k := int64(0); k < 200; k++ {
			h.Insert(k)
		}
		for k := int64(0); k < 200; k++ {
			h.Delete(k)
		}
	}
	d.Close()
	if live := tr.Pool().Stats().Live; live != 5 {
		t.Fatalf("live after churn+close = %d, want 5 sentinels", live)
	}
}

func TestBSTConcurrentDisjointRanges(t *testing.T) {
	for _, scheme := range reclaim.Schemes() {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			const workers = 4
			const span = 256
			tr, d, hs := newSet(t, scheme, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					h := hs[w]
					base := int64(w * span)
					for rep := 0; rep < 3; rep++ {
						for k := base; k < base+span; k++ {
							if !h.Insert(k) {
								t.Errorf("insert %d", k)
								return
							}
						}
						for k := base; k < base+span; k++ {
							if !h.Contains(k) {
								t.Errorf("missing %d", k)
								return
							}
						}
						for k := base; k < base+span; k++ {
							if !h.Delete(k) {
								t.Errorf("delete %d", k)
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()
			if n, msg := tr.Validate(); msg != "" || n != 0 {
				t.Fatalf("validate: n=%d %s", n, msg)
			}
			d.Close()
		})
	}
}

func TestBSTConcurrentSameKeyContention(t *testing.T) {
	for _, scheme := range []string{"qsbr", "hp", "cadence", "qsense"} {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			const workers = 4
			const iters = 3000
			tr, d, hs := newSet(t, scheme, workers)
			var ins, del [workers]int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					h := hs[w]
					for i := 0; i < iters; i++ {
						if h.Insert(7) {
							ins[w]++
						}
						if h.Delete(7) {
							del[w]++
						}
					}
				}(w)
			}
			wg.Wait()
			var it, dt int64
			for w := 0; w < workers; w++ {
				it += ins[w]
				dt += del[w]
			}
			if it-dt != int64(tr.Len()) {
				t.Fatalf("ins %d - del %d != len %d", it, dt, tr.Len())
			}
			d.Close()
		})
	}
}

func TestBSTConcurrentMixedChurn(t *testing.T) {
	for _, scheme := range []string{"qsbr", "hp", "cadence", "qsense"} {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			const workers = 4
			iters := 12000
			if testing.Short() {
				iters = 3000
			}
			tr, d, hs := newSet(t, scheme, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					h := hs[w]
					rng := rand.New(rand.NewSource(int64(w + 1)))
					for i := 0; i < iters; i++ {
						k := int64(rng.Intn(512))
						switch rng.Intn(10) {
						case 0, 1, 2, 3, 4:
							h.Contains(k)
						case 5, 6, 7:
							h.Insert(k)
						default:
							h.Delete(k)
						}
					}
				}(w)
			}
			wg.Wait()
			n, msg := tr.Validate()
			if msg != "" {
				t.Fatalf("validate: %s", msg)
			}
			d.Close()
			// Leaves: n user + 3 sentinel; internals: n user + ... each
			// user leaf adds one internal; sentinels contribute 2.
			want := uint64(2*n + 5)
			if live := tr.Pool().Stats().Live; live != want {
				t.Fatalf("live=%d, want %d (n=%d)", live, want, n)
			}
		})
	}
}

func TestBSTHelpingInsertVsDelete(t *testing.T) {
	// Tight interleave of inserts and deletes of neighbouring keys forces
	// the helping paths (flag seen by insert, tag seen by delete).
	_, d, hs := newSet(t, "hp", 2)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := hs[w]
			for i := 0; i < 5000; i++ {
				h.Insert(int64(i % 3))
				h.Delete(int64((i + w) % 3))
			}
		}(w)
	}
	wg.Wait()
	d.Close()
}
