package skiplist

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"qsense/internal/reclaim"
	"qsense/internal/rooster"
)

func newSet(t *testing.T, scheme string, workers, levels int) (*SkipList, reclaim.Domain, []*Handle) {
	t.Helper()
	s := New(Config{Poison: true, Levels: levels})
	d, err := reclaim.New(scheme, reclaim.Config{
		Workers: workers,
		HPs:     HPsFor(s.Levels()),
		Free:    s.FreeNode,
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
		hs[i] = s.NewHandle(g, uint64(i+1))
	}
	return s, d, hs
}

func TestSkipListBasicSemantics(t *testing.T) {
	for _, scheme := range reclaim.Schemes() {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			_, d, hs := newSet(t, scheme, 1, 8)
			defer d.Close()
			h := hs[0]
			if h.Contains(5) {
				t.Fatal("empty contains")
			}
			if !h.Insert(5) || h.Insert(5) {
				t.Fatal("insert semantics")
			}
			if !h.Contains(5) {
				t.Fatal("missing after insert")
			}
			if !h.Delete(5) || h.Delete(5) {
				t.Fatal("delete semantics")
			}
			if h.Contains(5) {
				t.Fatal("present after delete")
			}
		})
	}
}

func TestSkipListTowerHeights(t *testing.T) {
	h := &Handle{s: &SkipList{levels: 8}, rng: 42}
	counts := map[int]int{}
	for i := 0; i < 100000; i++ {
		lvl := h.randomLevel()
		if lvl < 1 || lvl > 8 {
			t.Fatalf("level %d out of range", lvl)
		}
		counts[lvl]++
	}
	// Geometric(1/2): level 1 about half, level 2 about a quarter...
	if counts[1] < 40000 || counts[1] > 60000 {
		t.Fatalf("level-1 frequency %d implausible for p=1/2", counts[1])
	}
	if counts[2] < 15000 || counts[2] > 35000 {
		t.Fatalf("level-2 frequency %d implausible", counts[2])
	}
}

func TestSkipListBulkSortedAndValid(t *testing.T) {
	s, d, hs := newSet(t, "qsbr", 1, 16)
	defer d.Close()
	h := hs[0]
	rng := rand.New(rand.NewSource(7))
	inserted := map[int64]bool{}
	for i := 0; i < 2000; i++ {
		k := int64(rng.Intn(5000))
		if h.Insert(k) == inserted[k] {
			t.Fatalf("insert %d disagreed with model", k)
		}
		inserted[k] = true
	}
	n, msg := s.Validate()
	if msg != "" {
		t.Fatalf("validate: %s", msg)
	}
	if n != len(inserted) {
		t.Fatalf("count %d != model %d", n, len(inserted))
	}
	for k := range inserted {
		if !h.Contains(k) {
			t.Fatalf("missing %d", k)
		}
	}
}

func TestSkipListAgainstModelQuick(t *testing.T) {
	f := func(ops []int16) bool {
		s, d, hs := newSet(t, "qsense", 1, 8)
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
		n, msg := s.Validate()
		return msg == "" && n == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSkipListReclaimsDeletedNodes(t *testing.T) {
	s, d, hs := newSet(t, "qsbr", 1, 12)
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
	if live := s.Pool().Stats().Live; live != 2 {
		t.Fatalf("live after churn+close = %d, want 2 sentinels", live)
	}
}

// runDisjointRanges is one round of the disjoint-ranges workload: each
// worker insert/contains/deletes its own key span, so every structural
// conflict happens at the range boundaries and in the upper index levels.
// This is the workload that reproduces the known hp/rc use-after-free (see
// TestSkipListUAFReproHPRC in stress_test.go and ROADMAP.md).
func runDisjointRanges(t *testing.T, scheme string) {
	t.Helper()
	const workers = 4
	const span = 256
	s, d, hs := newSet(t, scheme, workers, 16)
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
	if n, msg := s.Validate(); msg != "" || n != 0 {
		t.Fatalf("validate: n=%d %s", n, msg)
	}
	d.Close()
}

func TestSkipListConcurrentDisjointRanges(t *testing.T) {
	for _, scheme := range reclaim.Schemes() {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			runDisjointRanges(t, scheme)
		})
	}
}

func TestSkipListConcurrentSameKeyContention(t *testing.T) {
	for _, scheme := range []string{"qsbr", "hp", "cadence", "qsense"} {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			const workers = 4
			const iters = 3000
			s, d, hs := newSet(t, scheme, workers, 8)
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
			if it-dt != int64(s.Len()) {
				t.Fatalf("ins %d - del %d != len %d", it, dt, s.Len())
			}
			d.Close()
		})
	}
}

func TestSkipListConcurrentMixedChurn(t *testing.T) {
	for _, scheme := range []string{"qsbr", "hp", "cadence", "qsense"} {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			const workers = 4
			iters := 12000
			if testing.Short() {
				iters = 3000
			}
			s, d, hs := newSet(t, scheme, workers, 16)
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
			n, msg := s.Validate()
			if msg != "" {
				t.Fatalf("validate: %s", msg)
			}
			d.Close()
			if live := s.Pool().Stats().Live; live != uint64(n)+2 {
				t.Fatalf("live=%d, members=%d", live, n)
			}
		})
	}
}

func TestSkipListLevelsConfig(t *testing.T) {
	s := New(Config{Levels: 4})
	if s.Levels() != 4 {
		t.Fatalf("levels = %d", s.Levels())
	}
	if HPsFor(4) != 11 { // 2 per level + scratch + pin + value slot
		t.Fatalf("HPsFor(4) = %d", HPsFor(4))
	}
	// Out-of-range configs fall back to MaxLevel.
	if New(Config{Levels: 0}).Levels() != MaxLevel {
		t.Fatal("default levels")
	}
	if New(Config{Levels: 99}).Levels() != MaxLevel {
		t.Fatal("clamped levels")
	}
}
