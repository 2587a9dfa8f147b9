package hashmap

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"qsense/internal/reclaim"
	"qsense/internal/rooster"
)

func newMap(t *testing.T, scheme string, workers, buckets int) (*Map, reclaim.Domain, []*Handle) {
	t.Helper()
	m := New(Config{Poison: true, Buckets: buckets})
	d, err := reclaim.New(scheme, reclaim.Config{
		Workers: workers,
		HPs:     HPs,
		Free:    m.FreeNode,
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
		hs[i] = m.NewHandle(g)
	}
	return m, d, hs
}

func TestMapBucketsRounding(t *testing.T) {
	if New(Config{}).Buckets() != 1024 {
		t.Fatal("default buckets")
	}
	if New(Config{Buckets: 100}).Buckets() != 128 {
		t.Fatal("rounding to power of two")
	}
	if New(Config{Buckets: 64}).Buckets() != 64 {
		t.Fatal("power of two preserved")
	}
}

func TestMapBasicSemantics(t *testing.T) {
	for _, scheme := range reclaim.Schemes() {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			_, d, hs := newMap(t, scheme, 1, 16)
			defer d.Close()
			h := hs[0]
			if h.Contains(1) {
				t.Fatal("empty contains")
			}
			if !h.Insert(1) || h.Insert(1) {
				t.Fatal("insert semantics")
			}
			if !h.Contains(1) {
				t.Fatal("missing after insert")
			}
			if !h.Delete(1) || h.Delete(1) {
				t.Fatal("delete semantics")
			}
			if h.Contains(1) {
				t.Fatal("present after delete")
			}
		})
	}
}

func TestMapCollisionsShareBucket(t *testing.T) {
	// With one bucket, every key collides: the map degenerates to a
	// single ordered chain and must still behave.
	m, d, hs := newMap(t, "hp", 1, 1)
	defer d.Close()
	h := hs[0]
	for k := int64(0); k < 100; k++ {
		if !h.Insert(k) {
			t.Fatalf("insert %d", k)
		}
	}
	if n, msg := m.Validate(); msg != "" || n != 100 {
		t.Fatalf("validate: n=%d %q", n, msg)
	}
	for k := int64(0); k < 100; k += 2 {
		if !h.Delete(k) {
			t.Fatalf("delete %d", k)
		}
	}
	if m.Len() != 50 {
		t.Fatalf("len = %d", m.Len())
	}
}

func TestMapAgainstModelQuick(t *testing.T) {
	f := func(ops []int16) bool {
		m, d, hs := newMap(t, "qsense", 1, 8)
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
		n, msg := m.Validate()
		return msg == "" && n == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMapReclaimsDeletedNodes(t *testing.T) {
	m, d, hs := newMap(t, "qsbr", 1, 64)
	h := hs[0]
	for round := 0; round < 40; round++ {
		for k := int64(0); k < 200; k++ {
			h.Insert(k)
		}
		for k := int64(0); k < 200; k++ {
			h.Delete(k)
		}
	}
	d.Close()
	if live := m.Pool().Stats().Live; live != 0 {
		t.Fatalf("live after churn+close = %d, want 0 (no sentinels)", live)
	}
}

func TestMapConcurrentDisjointRanges(t *testing.T) {
	for _, scheme := range reclaim.Schemes() {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			const workers = 4
			const span = 512
			m, d, hs := newMap(t, scheme, workers, 256)
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
			if n, msg := m.Validate(); msg != "" || n != 0 {
				t.Fatalf("validate: n=%d %s", n, msg)
			}
			d.Close()
		})
	}
}

func TestMapConcurrentSameBucketContention(t *testing.T) {
	// One bucket forces every worker onto the same chain.
	for _, scheme := range []string{"qsbr", "hp", "cadence", "qsense"} {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			const workers = 4
			const iters = 3000
			m, d, hs := newMap(t, scheme, workers, 1)
			var ins, del [workers]int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					h := hs[w]
					for i := 0; i < iters; i++ {
						if h.Insert(int64(i % 7)) {
							ins[w]++
						}
						if h.Delete(int64(i % 7)) {
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
			if it-dt != int64(m.Len()) {
				t.Fatalf("ins %d - del %d != len %d", it, dt, m.Len())
			}
			d.Close()
		})
	}
}

func TestMapConcurrentMixedChurn(t *testing.T) {
	for _, scheme := range []string{"qsbr", "hp", "cadence", "qsense"} {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			const workers = 4
			iters := 15000
			if testing.Short() {
				iters = 4000
			}
			m, d, hs := newMap(t, scheme, workers, 128)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					h := hs[w]
					rng := rand.New(rand.NewSource(int64(w + 1)))
					for i := 0; i < iters; i++ {
						k := int64(rng.Intn(1024))
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
			n, msg := m.Validate()
			if msg != "" {
				t.Fatalf("validate: %s", msg)
			}
			d.Close()
			if live := m.Pool().Stats().Live; live != uint64(n) {
				t.Fatalf("live=%d, members=%d", live, n)
			}
		})
	}
}

func TestMapHashDistribution(t *testing.T) {
	m := New(Config{Buckets: 64})
	counts := make([]int, 64)
	for k := int64(0); k < 64*100; k++ {
		counts[m.hash(k)]++
	}
	for b, c := range counts {
		if c == 0 {
			t.Fatalf("bucket %d empty across 6400 sequential keys", b)
		}
	}
}
