package qsense_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qsense"
)

// acquireWait leases a handle, blocking while the arena is full — what a
// goroutine-per-request server does under load spikes, with the waiter
// built into the API instead of a retry-on-ErrNoSlots spin.
func acquireWait[H any](t *testing.T, acquire func(context.Context) (H, error)) H {
	t.Helper()
	h, err := acquire(context.Background())
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	return h
}

// TestSetAcquireRelease: the leased-handle surface of the four set
// containers across every scheme — lease, operate, release, recycle.
func TestSetAcquireRelease(t *testing.T) {
	type setContainer interface {
		Acquire() (qsense.SetHandle, error)
		Stats() qsense.Stats
		Close()
		Len() int
	}
	containers := map[string]func(qsense.Options) (setContainer, error){
		"set":     func(o qsense.Options) (setContainer, error) { return qsense.NewSet(o) },
		"skipset": func(o qsense.Options) (setContainer, error) { return qsense.NewSkipSet(o) },
		"treeset": func(o qsense.Options) (setContainer, error) { return qsense.NewTreeSet(o) },
		"hashset": func(o qsense.Options) (setContainer, error) { return qsense.NewHashSet(o) },
	}
	for name, mk := range containers {
		for _, scheme := range apiSchemes {
			t.Run(name+"/"+string(scheme), func(t *testing.T) {
				// Hard-capped at 2: this test exercises the fixed-arena
				// recycle/exhaustion semantics (elastic growth is covered
				// by TestElasticAcquireNeverFails).
				s, err := mk(qsense.Options{MaxWorkers: 2, HardMaxWorkers: 2, Scheme: scheme})
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				h, err := s.Acquire()
				if err != nil {
					t.Fatal(err)
				}
				for k := int64(1); k <= 30; k++ {
					if !h.Insert(k) {
						t.Fatalf("insert %d failed", k)
					}
				}
				h.Release()
				h.Release() // extra Release must be a no-op

				// The slot must recycle: with MaxWorkers=2 both leases
				// succeed only if the first came back.
				h1, err1 := s.Acquire()
				h2, err2 := s.Acquire()
				if err1 != nil || err2 != nil {
					t.Fatalf("re-acquire after release: %v / %v", err1, err2)
				}
				if _, err := s.Acquire(); !errors.Is(err, qsense.ErrNoSlots) {
					t.Fatalf("third lease on a 2-slot arena: err = %v, want ErrNoSlots", err)
				}
				for k := int64(1); k <= 30; k += 2 {
					if !h1.Delete(k) {
						t.Fatalf("delete %d failed", k)
					}
				}
				for k := int64(1); k <= 30; k++ {
					if want := k%2 == 0; h2.Contains(k) != want {
						t.Fatalf("contains(%d) != %v", k, want)
					}
				}
				if s.Len() != 15 {
					t.Fatalf("Len = %d, want 15", s.Len())
				}
				h1.Release()
				h2.Release()
				st := s.Stats()
				if st.AcquiredHandles != 3 || st.ReleasedHandles != 3 {
					t.Fatalf("lease counters %d/%d, want 3/3", st.AcquiredHandles, st.ReleasedHandles)
				}
			})
		}
	}
}

// TestQueueStackAcquireRelease: the leased-handle surface of Queue/Stack.
func TestQueueStackAcquireRelease(t *testing.T) {
	q, err := qsense.NewQueue(qsense.Options{MaxWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	qh, err := q.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	qh.Enqueue(1)
	qh.Enqueue(2)
	qh.Release()
	qh2, err := q.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := qh2.Dequeue(); !ok || v != 1 {
		t.Fatalf("dequeue = %d,%v", v, ok)
	}
	qh2.Release()

	s, err := qsense.NewStack(qsense.Options{MaxWorkers: 1, Scheme: qsense.SchemeHP})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sh, err := s.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	sh.Push(1)
	sh.Push(2)
	if v, ok := sh.Pop(); !ok || v != 2 {
		t.Fatalf("pop = %d,%v", v, ok)
	}
	sh.Release()
	if st := s.Stats(); st.AcquiredHandles != 1 || st.ReleasedHandles != 1 {
		t.Fatalf("lease counters %+v", st)
	}
}

// TestDomainAcquireRelease: the custom-structure path — Domain.Acquire,
// Guard.Release, and the Leave/Join park protocol on an epoch scheme.
func TestDomainAcquireRelease(t *testing.T) {
	type cell struct{ val uint64 }
	pool := qsense.NewPool[cell](qsense.PoolOptions{Name: "lease-cells"})
	dom, err := qsense.NewDomain(qsense.Options{MaxWorkers: 2, HPs: 1, Scheme: qsense.SchemeQSBR, Q: 1},
		pool.FreeFunc())
	if err != nil {
		t.Fatal(err)
	}
	defer dom.Close()
	g, err := dom.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	parked, err := dom.Acquire()
	if err != nil {
		t.Fatal(err)
	}

	r, c := pool.Alloc()
	c.val = 1
	g.Begin()
	g.Retire(r)

	// A parked worker (Leave) must not block reclamation; Join re-enters.
	parked.Leave()
	for i := 0; i < 8 && pool.Valid(r); i++ {
		g.Begin()
	}
	if pool.Valid(r) {
		t.Fatal("left guard still blocks grace periods")
	}
	parked.Join()

	parked.Release()
	g.Release()
	g.Release() // no-op
	if st := dom.Stats(); st.AcquiredHandles != 2 || st.ReleasedHandles != 2 {
		t.Fatalf("lease counters %d/%d", st.AcquiredHandles, st.ReleasedHandles)
	}
	// Both slots must be back.
	a := acquireWait(t, dom.AcquireWait)
	b := acquireWait(t, dom.AcquireWait)
	a.Release()
	b.Release()
}

// TestGoroutinePerRequestChurn is the end-to-end acceptance scenario: far
// more short-lived goroutines than guard slots stream through
// Acquire/operate/Release on a shared set, on both the paper's hybrid and
// classic hazard pointers. The run must stay memory-bounded (sampled
// Pending never exceeds a fixed budget), produce zero safety violations
// (the poisoned pool panics on use-after-free; run with -race for the
// allocator's ordering), leak no slots, and reclaim while slots sit
// unleased.
func TestGoroutinePerRequestChurn(t *testing.T) {
	for _, scheme := range []qsense.Scheme{qsense.SchemeQSense, qsense.SchemeHP} {
		t.Run(string(scheme), func(t *testing.T) {
			const maxWorkers = 4
			requests, opsPer := 600, 150
			if testing.Short() {
				requests, opsPer = 200, 100
			}
			set, err := qsense.NewSet(qsense.Options{
				MaxWorkers: maxWorkers,
				Scheme:     scheme,
				Q:          8,
				R:          32,
				C:          512, // small (but legal) so QSense engages its fallback under churn
			})
			if err != nil {
				t.Fatal(err)
			}

			// memBudget is generous against steady-state pending (tens of
			// nodes per leased slot here) but far below total retire volume,
			// so unbounded growth — the failure leasing must prevent — trips
			// it long before the run ends.
			const memBudget = 20000
			var peak atomic.Int64
			var wg sync.WaitGroup
			sem := make(chan struct{}, 2*maxWorkers) // keep >MaxWorkers goroutines contending
			for req := 0; req < requests; req++ {
				wg.Add(1)
				sem <- struct{}{}
				go func(req int) {
					defer wg.Done()
					defer func() { <-sem }()
					h := acquireWait(t, set.AcquireWait)
					defer h.Release()
					rng := uint64(req)*0x9E3779B9 + 1
					for i := 0; i < opsPer; i++ {
						rng = rng*6364136223846793005 + 1442695040888963407
						k := int64(rng>>33)%512 + 1
						switch rng % 4 {
						case 0:
							h.Insert(k)
						case 1:
							h.Delete(k)
						default:
							h.Contains(k)
						}
					}
					if p := set.Stats().Pending; p > peak.Load() {
						peak.Store(p)
					}
				}(req)
			}
			wg.Wait()

			st := set.Stats()
			if p := peak.Load(); p > memBudget {
				t.Fatalf("pending peaked at %d (> budget %d): memory not bounded under churn", p, memBudget)
			}
			if st.AcquiredHandles != uint64(requests) || st.ReleasedHandles != uint64(requests) {
				t.Fatalf("lease counters %d/%d, want %d/%d",
					st.AcquiredHandles, st.ReleasedHandles, requests, requests)
			}
			if st.Freed == 0 {
				t.Fatalf("nothing reclaimed during churn: %+v", st)
			}
			// No slot leaks: the full arena must be acquirable afterwards.
			handles := make([]qsense.SetHandle, maxWorkers)
			for i := range handles {
				h, err := set.Acquire()
				if err != nil {
					t.Fatalf("slot leaked: re-acquire %d failed: %v", i, err)
				}
				handles[i] = h
			}
			for _, h := range handles {
				h.Release()
			}
			set.Close()
			if st := set.Stats(); st.Pending != 0 {
				t.Fatalf("pending after Close: %+v", st)
			}
		})
	}
}

// TestReclamationWhileSlotsUnleased: one lone goroutine cycling leases must
// keep reclaiming even though most of the arena sits vacant — vacant slots
// may not count toward grace periods.
func TestReclamationWhileSlotsUnleased(t *testing.T) {
	set, err := qsense.NewSet(qsense.Options{MaxWorkers: 16, Scheme: qsense.SchemeQSBR, Q: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	epochs0 := set.Stats().EpochAdvances
	for cycle := 0; cycle < 50; cycle++ {
		h := acquireWait(t, set.AcquireWait)
		for k := int64(0); k < 32; k++ {
			h.Insert(k)
			h.Delete(k)
		}
		h.Release()
	}
	st := set.Stats()
	if st.Freed == 0 {
		t.Fatalf("15 vacant slots starved reclamation: %+v", st)
	}
	if st.EpochAdvances == epochs0 {
		t.Fatalf("epoch frozen while slots were unleased: %+v", st)
	}
}

// TestAcquireWaitPublic: the blocking lease surface — a waiter parks while
// the arena is exhausted, wakes on Release, and honors context
// cancellation — on both the container and custom-structure APIs.
func TestAcquireWaitPublic(t *testing.T) {
	set, err := qsense.NewSet(qsense.Options{MaxWorkers: 1, HardMaxWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	h, err := set.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan qsense.SetHandle)
	go func() {
		h2, err := set.AcquireWait(context.Background())
		if err != nil {
			t.Error(err)
		}
		got <- h2
	}()
	select {
	case <-got:
		t.Fatal("AcquireWait returned while the arena was exhausted")
	case <-time.After(20 * time.Millisecond):
	}
	h.Release()
	select {
	case h2 := <-got:
		h2.Insert(1)
		h2.Release()
	case <-time.After(2 * time.Second):
		t.Fatal("AcquireWait not woken by Release")
	}

	// Context cancellation unblocks a parked waiter with ctx.Err().
	h3, err := set.AcquireWait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := set.AcquireWait(ctx)
		errCh <- err
	}()
	select {
	case err := <-errCh:
		t.Fatalf("AcquireWait returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancellation did not unblock AcquireWait")
	}
	h3.Release()
}

// TestOrphanStatsPublic: a released handle's unreclaimed backlog surfaces
// as OrphanedNodes, stays Pending until other workers adopt it, and the
// adoption shows up as AdoptedNodes — all through the public container API,
// with the releasing slot never leased again.
func TestOrphanStatsPublic(t *testing.T) {
	set, err := qsense.NewSet(qsense.Options{MaxWorkers: 2, Scheme: qsense.SchemeQSBR, Q: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	worker := acquireWait(t, set.AcquireWait)
	leaver := acquireWait(t, set.AcquireWait)
	for k := int64(0); k < 16; k++ {
		leaver.Insert(k)
		leaver.Delete(k) // retires the node on the leaver's guard
	}
	leaver.Release()
	st := set.Stats()
	if st.OrphanedNodes == 0 {
		t.Fatalf("released backlog was not orphaned: %+v", st)
	}
	// The other worker's quiescent states adopt the orphans; the leaver's
	// slot stays vacant (no Acquire until the backlog is gone).
	for i := 0; i < 64 && set.Stats().Pending > 0; i++ {
		worker.Contains(int64(i))
	}
	st = set.Stats()
	if st.Pending != 0 {
		t.Fatalf("orphans not adopted while the slot sat vacant: %+v", st)
	}
	if st.AdoptedNodes == 0 {
		t.Fatalf("Pending drained without adoption: %+v", st)
	}
	worker.Release()
}

// onceTenant is one lease of any public handle kind, reduced to what
// TestReleaseExactlyOnce needs of it.
type onceTenant struct {
	release func()
	operate func() bool // true if the handle still works
}

// onceContainer is a one-slot container or domain of one handle kind.
type onceContainer struct {
	acquire func() (onceTenant, error)
	stats   func() qsense.Stats
	close   func()
}

func onceKind[H interface{ Release() }](acquire func() (H, error), operate func(H) bool, stats func() qsense.Stats, close func()) onceContainer {
	return onceContainer{func() (onceTenant, error) {
		h, err := acquire()
		if err != nil {
			return onceTenant{}, err
		}
		return onceTenant{h.Release, func() bool { return operate(h) }}, nil
	}, stats, close}
}

// TestReleaseExactlyOnce: every public handle kind gives its slot back once
// and only once. On a one-slot arena the first handle is released, another
// goroutine's Acquire takes the same slot, and the first handle's SECOND
// Release must then touch nothing — the new tenant stays the only lease and
// keeps operating. The zero values of the exported handle types release
// nothing.
func TestReleaseExactlyOnce(t *testing.T) {
	one := qsense.Options{MaxWorkers: 1, HardMaxWorkers: 1, HPs: 1}
	must := func(t *testing.T, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	kinds := map[string]func(*testing.T) onceContainer{
		"SetHandle": func(t *testing.T) onceContainer {
			s, err := qsense.NewSet(one)
			must(t, err)
			return onceKind(s.Acquire, func(h qsense.SetHandle) bool { return h.Insert(7) && h.Delete(7) }, s.Stats, s.Close)
		},
		"MapHandle": func(t *testing.T) onceContainer {
			m, err := qsense.NewSkipMap(one)
			must(t, err)
			return onceKind(m.Acquire, func(h qsense.MapHandle) bool { return h.PutUint64(7, 1) && h.Delete(7) }, m.Stats, m.Close)
		},
		"QueueHandle": func(t *testing.T) onceContainer {
			q, err := qsense.NewQueue(one)
			must(t, err)
			return onceKind(q.Acquire, func(h qsense.QueueHandle) bool {
				h.Enqueue(7)
				v, ok := h.Dequeue()
				return ok && v == 7
			}, q.Stats, q.Close)
		},
		"StackHandle": func(t *testing.T) onceContainer {
			s, err := qsense.NewStack(one)
			must(t, err)
			return onceKind(s.Acquire, func(h qsense.StackHandle) bool {
				h.Push(7)
				v, ok := h.Pop()
				return ok && v == 7
			}, s.Stats, s.Close)
		},
		"Guard": func(t *testing.T) onceContainer {
			pool := qsense.NewPool[uint64](qsense.PoolOptions{Name: "once"})
			d, err := qsense.NewDomain(one, pool.FreeFunc())
			must(t, err)
			return onceKind(d.Acquire, func(g qsense.Guard) bool {
				r, _ := pool.Alloc()
				g.Begin()
				g.Protect(0, r)
				g.Retire(r)
				g.End()
				return true
			}, d.Stats, d.Close)
		},
	}
	for name, build := range kinds {
		t.Run(name, func(t *testing.T) {
			c := build(t)
			defer c.close()
			first, err := c.acquire()
			must(t, err)
			first.release()

			type leased struct {
				onceTenant
				err error
			}
			got := make(chan leased)
			go func() {
				next, err := c.acquire()
				got <- leased{next, err}
			}()
			next := <-got
			if next.err != nil {
				t.Fatalf("the released slot did not come back: %v", next.err)
			}

			first.release() // stale: the slot is the new tenant's now
			if st := c.stats(); st.AcquiredHandles-st.ReleasedHandles != 1 {
				t.Fatalf("a second Release changed the lease count: %d acquired, %d released",
					st.AcquiredHandles, st.ReleasedHandles)
			}
			if _, err := c.acquire(); !errors.Is(err, qsense.ErrNoSlots) {
				t.Fatalf("a second Release put the tenant's slot back on the freelist: err = %v", err)
			}
			if !next.operate() {
				t.Fatal("the new tenant's handle stopped working")
			}
			next.release()
			if st := c.stats(); st.AcquiredHandles != 2 || st.ReleasedHandles != 2 {
				t.Fatalf("lease counters %d/%d, want 2/2", st.AcquiredHandles, st.ReleasedHandles)
			}
		})
	}

	qsense.QueueHandle{}.Release()
	qsense.StackHandle{}.Release()
	qsense.Guard{}.Release()
}

// TestAcquireAllocatesOnce: a lease costs one allocation — the handle that
// carries its once-flag — and nothing per structure (the slot's structure
// handle is cached). The ruler's containers.lease_ns and
// containers.allocs_per_op probes cross this path.
func TestAcquireAllocatesOnce(t *testing.T) {
	m, err := qsense.NewSkipMap(qsense.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	allocs := testing.AllocsPerRun(1000, func() {
		h, err := m.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	})
	if allocs > 1 {
		t.Fatalf("SkipMap Acquire+Release allocates %v times, want at most 1", allocs)
	}
}
