package queue

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"qsense/internal/reclaim"
	"qsense/internal/rooster"
)

func newQueue(t *testing.T, scheme string, workers int) (*Queue, reclaim.Domain, []*Handle) {
	if t != nil {
		t.Helper()
	}
	q := New(Config{Poison: true})
	d, err := reclaim.New(scheme, reclaim.Config{
		Workers: workers,
		HPs:     HPs,
		Free:    q.FreeNode,
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
		hs[i] = q.NewHandle(g)
	}
	return q, d, hs
}

// TestQueueFIFO: single-worker FIFO semantics across every scheme.
func TestQueueFIFO(t *testing.T) {
	for _, scheme := range reclaim.Schemes() {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			_, d, hs := newQueue(t, scheme, 1)
			defer d.Close()
			h := hs[0]
			if _, ok := h.Dequeue(); ok {
				t.Fatal("empty queue dequeued")
			}
			for i := uint64(1); i <= 100; i++ {
				h.Enqueue(i)
			}
			for i := uint64(1); i <= 100; i++ {
				v, ok := h.Dequeue()
				if !ok || v != i {
					t.Fatalf("dequeue = (%d,%v), want (%d,true)", v, ok, i)
				}
			}
			if _, ok := h.Dequeue(); ok {
				t.Fatal("drained queue dequeued")
			}
		})
	}
}

// TestQueueSequentialModel: arbitrary op sequences match a slice model.
func TestQueueSequentialModel(t *testing.T) {
	f := func(ops []uint16) bool {
		_, d, hs := newQueue(nil, "hp", 1)
		defer d.Close()
		h := hs[0]
		var model []uint64
		for _, op := range ops {
			if op%2 == 0 {
				h.Enqueue(uint64(op))
				model = append(model, uint64(op))
			} else {
				v, ok := h.Dequeue()
				if ok != (len(model) > 0) {
					return false
				}
				if ok {
					if v != model[0] {
						return false
					}
					model = model[1:]
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQueueConcurrentConservation: under every scheme, N producers and N
// consumers conserve values: sum enqueued == sum dequeued + sum drained,
// with no loss, duplication, or use-after-free (poisoned pool + gen tags
// catch those).
func TestQueueConcurrentConservation(t *testing.T) {
	for _, scheme := range reclaim.Schemes() {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			const workers = 6
			iters := 20000
			if testing.Short() {
				iters = 4000
			}
			q, d, hs := newQueue(t, scheme, workers)
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
						if w%2 == 0 {
							v := rng>>16 | 1
							h.Enqueue(v)
							sums[w].in += v
						} else if v, ok := h.Dequeue(); ok {
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
				v, ok := hs[0].Dequeue()
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
				// Only the dummy node remains.
				if live := q.Pool().Stats().Live; live != 1 {
					t.Fatalf("leaked %d nodes (want 1 dummy)", live)
				}
			}
		})
	}
}

// TestQueueReclaimsDuringRun: dequeue-heavy traffic must recycle dummies
// online, not just at Close.
func TestQueueReclaimsDuringRun(t *testing.T) {
	for _, scheme := range []string{"qsbr", "hp", "cadence", "qsense", "ebr", "rc"} {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			_, d, hs := newQueue(t, scheme, 2)
			defer d.Close()
			var wg sync.WaitGroup
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					h := hs[w]
					for i := 0; i < 8000; i++ {
						h.Enqueue(uint64(i))
						h.Dequeue()
						if i%64 == 0 {
							// On GOMAXPROCS=1 the whole loop fits in one
							// scheduler timeslice, so without yields the
							// two workers run back-to-back and the
							// quiescence-based schemes can never rotate
							// epochs (each worker sees the other's stale
							// local epoch forever). Yielding restores the
							// interleaving the test is about.
							runtime.Gosched()
						}
					}
				}(w)
			}
			wg.Wait()
			if st := d.Stats(); st.Freed == 0 {
				t.Fatalf("%s freed nothing during the run: %+v", scheme, st)
			}
		})
	}
}

// TestQueueLen: Len reflects quiesced contents.
func TestQueueLen(t *testing.T) {
	q, d, hs := newQueue(t, "qsbr", 1)
	defer d.Close()
	for i := 0; i < 7; i++ {
		hs[0].Enqueue(uint64(i))
	}
	if q.Len() != 7 {
		t.Fatalf("Len = %d, want 7", q.Len())
	}
	hs[0].Dequeue()
	if q.Len() != 6 {
		t.Fatalf("Len = %d, want 6", q.Len())
	}
	if n := hs[0].Drain(); n != 6 {
		t.Fatalf("Drain = %d, want 6", n)
	}
}
