package stack

import (
	"sync"
	"testing"
	"testing/quick"
	"time"

	"qsense/internal/reclaim"
	"qsense/internal/rooster"
)

func newStack(t *testing.T, scheme string, workers int) (*Stack, reclaim.Domain, []*Handle) {
	if t != nil {
		t.Helper()
	}
	s := New(Config{Poison: true})
	d, err := reclaim.New(scheme, reclaim.Config{
		Workers: workers,
		HPs:     HPs,
		Free:    s.FreeNode,
		Q:       8,
		R:       32,
		Rooster: rooster.Config{Interval: 500 * time.Microsecond},
	})
	if err != nil {
		panic(err)
	}
	hs := make([]*Handle, workers)
	for i := range hs {
		g, err := d.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		hs[i] = s.NewHandle(g)
	}
	return s, d, hs
}

// TestStackLIFO: single-worker LIFO semantics across every scheme.
func TestStackLIFO(t *testing.T) {
	for _, scheme := range reclaim.Schemes() {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			_, d, hs := newStack(t, scheme, 1)
			defer d.Close()
			h := hs[0]
			if _, ok := h.Pop(); ok {
				t.Fatal("empty stack popped")
			}
			for i := uint64(1); i <= 100; i++ {
				h.Push(i)
			}
			for i := uint64(100); i >= 1; i-- {
				v, ok := h.Pop()
				if !ok || v != i {
					t.Fatalf("pop = (%d,%v), want (%d,true)", v, ok, i)
				}
			}
			if _, ok := h.Pop(); ok {
				t.Fatal("drained stack popped")
			}
		})
	}
}

// TestStackSequentialModel: arbitrary op sequences match a slice model.
func TestStackSequentialModel(t *testing.T) {
	f := func(ops []uint16) bool {
		_, d, hs := newStack(nil, "hp", 1)
		defer d.Close()
		h := hs[0]
		var model []uint64
		for _, op := range ops {
			if op%2 == 0 {
				h.Push(uint64(op))
				model = append(model, uint64(op))
			} else {
				v, ok := h.Pop()
				if ok != (len(model) > 0) {
					return false
				}
				if ok {
					if v != model[len(model)-1] {
						return false
					}
					model = model[:len(model)-1]
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestStackConcurrentConservation: pushers and poppers conserve values
// under every scheme; the poisoned pool catches use-after-free, and the
// generation-tagged CAS defeats the classic Treiber ABA.
func TestStackConcurrentConservation(t *testing.T) {
	for _, scheme := range reclaim.Schemes() {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			const workers = 6
			iters := 20000
			if testing.Short() {
				iters = 4000
			}
			s, d, hs := newStack(t, scheme, workers)
			var wg sync.WaitGroup
			sums := make([]struct{ in, out uint64 }, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					h := hs[w]
					rng := uint64(w)*0x9E3779B9 + 7
					for i := 0; i < iters; i++ {
						rng = rng*6364136223846793005 + 1442695040888963407
						if rng&1 == 0 {
							v := rng>>16 | 1
							h.Push(v)
							sums[w].in += v
						} else if v, ok := h.Pop(); ok {
							sums[w].out += v
						}
					}
				}(w)
			}
			wg.Wait()
			var in, out uint64
			for _, s := range sums {
				in += s.in
				out += s.out
			}
			for {
				v, ok := hs[0].Pop()
				if !ok {
					break
				}
				out += v
			}
			if in != out {
				t.Fatalf("value conservation broken: in=%d out=%d", in, out)
			}
			d.Close()
			if scheme != "none" {
				if live := s.Pool().Stats().Live; live != 0 {
					t.Fatalf("leaked %d nodes", live)
				}
			}
		})
	}
}

// TestStackHotTopContention: all workers hammer the same top; counts must
// balance and nothing faults. This is the sharpest ABA scenario.
func TestStackHotTopContention(t *testing.T) {
	for _, scheme := range []string{"hp", "cadence", "qsense", "rc"} {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			_, d, hs := newStack(t, scheme, 4)
			defer d.Close()
			var wg sync.WaitGroup
			var pushes, pops [4]int
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					h := hs[w]
					for i := 0; i < 10000; i++ {
						h.Push(uint64(w)<<32 | uint64(i))
						if _, ok := h.Pop(); ok {
							pops[w]++
						}
						pushes[w]++
					}
				}(w)
			}
			wg.Wait()
			total := 0
			for w := range pushes {
				total += pushes[w] - pops[w]
			}
			remaining := hs[0].Drain()
			if remaining != total {
				t.Fatalf("push/pop imbalance: remaining=%d want %d", remaining, total)
			}
		})
	}
}

// TestStackLen: Len reflects quiesced contents.
func TestStackLen(t *testing.T) {
	s, d, hs := newStack(t, "ebr", 1)
	defer d.Close()
	for i := 0; i < 5; i++ {
		hs[0].Push(uint64(i))
	}
	if s.Len() != 5 {
		t.Fatalf("Len = %d, want 5", s.Len())
	}
	hs[0].Pop()
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
}
