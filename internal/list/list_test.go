package list

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"qsense/internal/reclaim"
	"qsense/internal/rooster"
)

// chains is the geometry axis of the semantic and stress tests: the sorted
// list, and a hash table with few enough buckets that its chains collide.
var chains = []int{1, 16}

func newSet(t *testing.T, scheme string, workers, buckets int) (*List, reclaim.Domain, []*Handle) {
	t.Helper()
	l := New(Config{Poison: true, Buckets: buckets})
	d, err := reclaim.New(scheme, reclaim.Config{
		Workers: workers,
		HPs:     HPs,
		Free:    l.FreeNode,
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
		hs[i] = l.NewHandle(g)
	}
	return l, d, hs
}

// eachChain runs f as subtest scheme/buckets=N for every scheme and every
// geometry in chains.
func eachChain(t *testing.T, schemes []string, f func(t *testing.T, scheme string, buckets int)) {
	for _, scheme := range schemes {
		t.Run(scheme, func(t *testing.T) {
			for _, buckets := range chains {
				t.Run(fmt.Sprintf("buckets=%d", buckets), func(t *testing.T) { f(t, scheme, buckets) })
			}
		})
	}
}

func TestListBasicSemantics(t *testing.T) {
	eachChain(t, reclaim.Schemes(), func(t *testing.T, scheme string, buckets int) {
		_, d, hs := newSet(t, scheme, 1, buckets)
		defer d.Close()
		h := hs[0]
		if h.Contains(10) {
			t.Fatal("empty list contains 10")
		}
		if !h.Insert(10) {
			t.Fatal("insert into empty failed")
		}
		if h.Insert(10) {
			t.Fatal("duplicate insert succeeded")
		}
		if !h.Contains(10) {
			t.Fatal("inserted key not found")
		}
		if !h.Delete(10) {
			t.Fatal("delete failed")
		}
		if h.Delete(10) {
			t.Fatal("double delete succeeded")
		}
		if h.Contains(10) {
			t.Fatal("deleted key still present")
		}
	})
}

func TestListSortedOrder(t *testing.T) {
	// One bucket: every key shares the chain, which stays strictly
	// increasing whatever the insertion order.
	l, d, hs := newSet(t, "qsbr", 1, 1)
	defer d.Close()
	h := hs[0]
	keys := []int64{5, 1, 9, 3, 7, 2, 8, 4, 6, 0}
	for _, k := range keys {
		if !h.Insert(k) {
			t.Fatalf("insert %d", k)
		}
	}
	for _, k := range keys {
		if !h.Contains(k) {
			t.Fatalf("missing %d", k)
		}
	}
	if n, msg := l.Validate(); msg != "" || n != len(keys) {
		t.Fatalf("validate: n=%d msg=%q", n, msg)
	}
}

// TestListExtremeKeys: the chains end at nil, not at sentinel nodes, so the
// two extreme int64 values are ordinary keys in either geometry.
func TestListExtremeKeys(t *testing.T) {
	extremes := []int64{math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1, 0}
	eachChain(t, []string{"hp"}, func(t *testing.T, scheme string, buckets int) {
		l, d, hs := newSet(t, scheme, 1, buckets)
		defer d.Close()
		h := hs[0]
		for _, k := range extremes {
			if h.Contains(k) || !h.Insert(k) || h.Insert(k) || !h.Contains(k) {
				t.Fatalf("key %d: insert/match semantics broken", k)
			}
		}
		if n, msg := l.Validate(); msg != "" || n != len(extremes) {
			t.Fatalf("validate after inserts: n=%d msg=%q", n, msg)
		}
		for _, k := range extremes[:2] {
			if !h.Delete(k) || h.Delete(k) || h.Contains(k) {
				t.Fatalf("key %d: delete semantics broken", k)
			}
		}
		if n, msg := l.Validate(); msg != "" || n != len(extremes)-2 {
			t.Fatalf("validate after deletes: n=%d msg=%q", n, msg)
		}
	})
}

func TestListAgainstModelQuick(t *testing.T) {
	// Property: any sequence of (op, key) agrees with a map model.
	eachChain(t, []string{"qsense"}, func(t *testing.T, scheme string, buckets int) {
		f := func(ops []int16) bool {
			l, d, hs := newSet(t, scheme, 1, buckets)
			defer d.Close()
			h := hs[0]
			model := map[int64]bool{}
			for _, o := range ops {
				key := int64(o % 64)
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
			n, msg := l.Validate()
			return msg == "" && n == len(model)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestListReclaimsDeletedNodes(t *testing.T) {
	eachChain(t, []string{"qsbr"}, func(t *testing.T, scheme string, buckets int) {
		l, d, hs := newSet(t, scheme, 1, buckets)
		h := hs[0]
		for round := 0; round < 50; round++ {
			for k := int64(0); k < 100; k++ {
				h.Insert(k)
			}
			for k := int64(0); k < 100; k++ {
				h.Delete(k)
			}
		}
		d.Close()
		if live := l.Pool().Stats().Live; live != 0 {
			t.Fatalf("live nodes after churn+close = %d, want 0", live)
		}
		if l.Pool().Stats().Frees == 0 {
			t.Fatal("nothing was ever reclaimed")
		}
	})
}

func TestListConcurrentDisjointRanges(t *testing.T) {
	span := 512
	if testing.Short() {
		span = 128
	}
	eachChain(t, reclaim.Schemes(), func(t *testing.T, scheme string, buckets int) {
		const workers = 4
		l, d, hs := newSet(t, scheme, workers, buckets)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				h := hs[w]
				base := int64(w * span)
				for i := 0; i < 3; i++ {
					for k := base; k < base+int64(span); k++ {
						if !h.Insert(k) {
							t.Errorf("w%d: insert %d failed", w, k)
							return
						}
					}
					for k := base; k < base+int64(span); k++ {
						if !h.Contains(k) {
							t.Errorf("w%d: missing %d", w, k)
							return
						}
					}
					for k := base; k < base+int64(span); k++ {
						if !h.Delete(k) {
							t.Errorf("w%d: delete %d failed", w, k)
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		if n, msg := l.Validate(); msg != "" || n != 0 {
			t.Fatalf("validate: n=%d msg=%q", n, msg)
		}
		d.Close()
	})
}

func TestListConcurrentSameKeyContention(t *testing.T) {
	// All workers fight over one key; successful inserts and deletes on a
	// set must alternate, so their totals differ by at most the final
	// membership.
	for _, scheme := range []string{"qsbr", "hp", "cadence", "qsense"} {
		t.Run(scheme, func(t *testing.T) {
			const workers = 4
			const iters = 4000
			l, d, hs := newSet(t, scheme, workers, 1)
			ins := make([]int64, workers)
			del := make([]int64, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					h := hs[w]
					for i := 0; i < iters; i++ {
						if h.Insert(42) {
							ins[w]++
						}
						if h.Delete(42) {
							del[w]++
						}
					}
				}(w)
			}
			wg.Wait()
			var insTot, delTot int64
			for w := 0; w < workers; w++ {
				insTot += ins[w]
				delTot += del[w]
			}
			final := int64(l.Len())
			if insTot-delTot != final {
				t.Fatalf("inserts %d - deletes %d != final %d", insTot, delTot, final)
			}
			if insTot == 0 {
				t.Fatal("no successful operations")
			}
			// An insert that lost the key frees its never-linked node
			// (Allocated -> Free, §2.1) instead of leaking it.
			d.Close()
			if live := l.Pool().Stats().Live; live != uint64(final) {
				t.Fatalf("live=%d, want members %d", live, final)
			}
		})
	}
}

func TestListConcurrentMixedChurn(t *testing.T) {
	// Random 50/25/25 search/insert/delete workload; afterwards the list
	// must be structurally valid and leak-free (exactly the remaining
	// members) — except under none, whose leak must be exact: every retired
	// node still allocated, none of them reachable, none freed.
	iters := 20000
	if testing.Short() {
		iters = 4000
	}
	eachChain(t, []string{"none", "qsbr", "hp", "cadence", "qsense"}, func(t *testing.T, scheme string, buckets int) {
		const workers = 4
		l, d, hs := newSet(t, scheme, workers, buckets)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				h := hs[w]
				rng := rand.New(rand.NewSource(int64(w + 1)))
				for i := 0; i < iters; i++ {
					k := int64(rng.Intn(256))
					switch rng.Intn(4) {
					case 0, 1:
						h.Contains(k)
					case 2:
						h.Insert(k)
					default:
						h.Delete(k)
					}
				}
			}(w)
		}
		wg.Wait()
		n, msg := l.Validate()
		if msg != "" {
			t.Fatalf("validate: %s", msg)
		}
		d.Close()
		leaked := uint64(0)
		if scheme == "none" {
			st := d.Stats()
			if st.Retired == 0 {
				t.Fatal("workload retired nothing; the leak is unobservable")
			}
			if st.Freed != 0 {
				t.Fatalf("leaky scheme freed %d nodes", st.Freed)
			}
			leaked = st.Retired
		}
		if live := l.Pool().Stats().Live; live != uint64(n)+leaked {
			t.Fatalf("live=%d, want members %d + %d leaked", live, n, leaked)
		}
	})
}

func TestListHandleIndependence(t *testing.T) {
	// Two handles on the same guard-less baseline must see each other's
	// writes immediately (same shared structure).
	_, d, hs := newSet(t, "none", 2, 1)
	defer d.Close()
	if !hs[0].Insert(1) {
		t.Fatal("insert")
	}
	if !hs[1].Contains(1) {
		t.Fatal("other handle missed the key")
	}
	if !hs[1].Delete(1) {
		t.Fatal("other handle delete")
	}
	if hs[0].Contains(1) {
		t.Fatal("stale view")
	}
}

func TestListBucketsRounding(t *testing.T) {
	for _, c := range []struct{ asked, want int }{{0, 1}, {1, 1}, {100, 128}, {64, 64}, {HashBuckets, HashBuckets}} {
		if got := New(Config{Buckets: c.asked}).Buckets(); got != c.want {
			t.Errorf("Buckets %d: got %d buckets, want %d", c.asked, got, c.want)
		}
	}
}

func TestListHashDistribution(t *testing.T) {
	l := New(Config{Buckets: 64})
	counts := make([]int, 64)
	for k := int64(0); k < 64*100; k++ {
		counts[l.hash(k)]++
	}
	for b, c := range counts {
		if c == 0 {
			t.Fatalf("bucket %d empty across 6400 sequential keys", b)
		}
	}
}
