package qsense_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"qsense"
)

// apiSchemes is every registered reclaiming scheme — derived from
// SchemeNames so a newly registered scheme is exercised by the public API
// tests without edits here. The leaky baseline is excluded: these tests
// assert reclamation side effects.
var apiSchemes = func() []qsense.Scheme {
	var out []qsense.Scheme
	for _, s := range qsense.SchemeNames() {
		if qsense.Scheme(s) != qsense.SchemeNone {
			out = append(out, qsense.Scheme(s))
		}
	}
	return out
}()

// lease calls a container's or domain's Acquire and fails the test on error.
func lease[H any](t testing.TB, acquire func() (H, error)) H {
	t.Helper()
	h, err := acquire()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestPublicSetContainers: the four set containers share semantics across
// every scheme through the public API alone.
func TestPublicSetContainers(t *testing.T) {
	type mkSet func(qsense.Options) (interface {
		Acquire() (qsense.SetHandle, error)
		Stats() qsense.Stats
		Close()
		Len() int
	}, error)
	containers := map[string]mkSet{
		"set": func(o qsense.Options) (interface {
			Acquire() (qsense.SetHandle, error)
			Stats() qsense.Stats
			Close()
			Len() int
		}, error) {
			return qsense.NewSet(o)
		},
		"skipset": func(o qsense.Options) (interface {
			Acquire() (qsense.SetHandle, error)
			Stats() qsense.Stats
			Close()
			Len() int
		}, error) {
			return qsense.NewSkipSet(o)
		},
		"treeset": func(o qsense.Options) (interface {
			Acquire() (qsense.SetHandle, error)
			Stats() qsense.Stats
			Close()
			Len() int
		}, error) {
			return qsense.NewTreeSet(o)
		},
		"hashset": func(o qsense.Options) (interface {
			Acquire() (qsense.SetHandle, error)
			Stats() qsense.Stats
			Close()
			Len() int
		}, error) {
			return qsense.NewHashSet(o)
		},
	}
	for name, mk := range containers {
		for _, scheme := range apiSchemes {
			t.Run(name+"/"+string(scheme), func(t *testing.T) {
				s, err := mk(qsense.Options{MaxWorkers: 1, Scheme: scheme})
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				h := lease(t, s.Acquire)
				for k := int64(1); k <= 50; k++ {
					if !h.Insert(k) {
						t.Fatalf("insert %d failed", k)
					}
				}
				if h.Insert(25) {
					t.Fatal("duplicate insert succeeded")
				}
				if s.Len() != 50 {
					t.Fatalf("Len = %d, want 50", s.Len())
				}
				for k := int64(1); k <= 50; k += 2 {
					if !h.Delete(k) {
						t.Fatalf("delete %d failed", k)
					}
				}
				for k := int64(1); k <= 50; k++ {
					want := k%2 == 0
					if h.Contains(k) != want {
						t.Fatalf("contains(%d) = %v, want %v", k, !want, want)
					}
				}
				if st := s.Stats(); st.Retired == 0 {
					t.Fatalf("deletes retired nothing: %+v", st)
				}
			})
		}
	}
}

// TestPublicQueueStack: FIFO/LIFO via the public API.
func TestPublicQueueStack(t *testing.T) {
	q, err := qsense.NewQueue(qsense.Options{MaxWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	h := lease(t, q.Acquire)
	h.Enqueue(1)
	h.Enqueue(2)
	if v, ok := lease(t, q.Acquire).Dequeue(); !ok || v != 1 {
		t.Fatalf("dequeue = %d,%v", v, ok)
	}

	s, err := qsense.NewStack(qsense.Options{MaxWorkers: 1, Scheme: qsense.SchemeHP})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sh := lease(t, s.Acquire)
	sh.Push(1)
	sh.Push(2)
	if v, ok := sh.Pop(); !ok || v != 2 {
		t.Fatalf("pop = %d,%v", v, ok)
	}
}

// TestPublicConcurrentSet: concurrent churn through the facade reclaims
// memory and keeps the set consistent.
func TestPublicConcurrentSet(t *testing.T) {
	const workers = 4
	// Epoch rotation needs every worker to pass several quiescent states;
	// on an oversubscribed scheduler each rotation costs ~a timeslice, so
	// the churn must be long enough for a few rotations (Q=8 helps too).
	set, err := qsense.NewSet(qsense.Options{MaxWorkers: workers, Q: 8})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int, h qsense.SetHandle) {
			defer wg.Done()
			rng := uint64(w)*0x9E3779B9 + 1
			for i := 0; i < 100000; i++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				k := int64(rng>>33)%256 + 1
				switch rng % 4 {
				case 0:
					h.Insert(k)
				case 1:
					h.Delete(k)
				default:
					h.Contains(k)
				}
			}
		}(w, lease(t, set.Acquire))
	}
	wg.Wait()
	st := set.Stats()
	if st.Freed == 0 {
		t.Fatalf("no reclamation during concurrent churn: %+v", st)
	}
	set.Close()
	if st := set.Stats(); st.Pending != 0 {
		t.Fatalf("pending after Close: %+v", st)
	}
}

// TestCustomStructureViaPublicAPI builds a minimal custom structure (a
// single shared cell with replace semantics) against Pool/Domain/Guard —
// the integration path a downstream structure author follows.
func TestCustomStructureViaPublicAPI(t *testing.T) {
	type cell struct {
		val uint64
	}
	for _, scheme := range apiSchemes {
		t.Run(string(scheme), func(t *testing.T) {
			pool := qsense.NewPool[cell](qsense.PoolOptions{Name: "cells"})
			dom, err := qsense.NewDomain(qsense.Options{
				MaxWorkers: 3, HPs: 1, Scheme: scheme,
			}, pool.FreeFunc())
			if err != nil {
				t.Fatal(err)
			}
			var slot atomic.Uint64 // holds a Ref

			var wg sync.WaitGroup
			var gs [3]qsense.Guard
			for w := range gs {
				gs[w] = lease(t, dom.Acquire)
				wg.Add(1)
				go func(w int, g qsense.Guard) {
					defer wg.Done()
					for i := 0; i < 5000; i++ {
						g.Begin()
						if i%2 == 0 {
							// Publish a fresh cell; retire the displaced one.
							r, c := pool.Alloc()
							c.val = uint64(w)<<32 | uint64(i)
							if old := qsense.Ref(slot.Swap(uint64(r))); !old.IsNil() {
								g.Retire(old)
							}
						} else {
							// Read with the protect/validate discipline.
							for {
								r := qsense.Ref(slot.Load())
								if r.IsNil() {
									break
								}
								g.Protect(0, r)
								if qsense.Ref(slot.Load()) != r {
									continue
								}
								_ = pool.Get(r).val
								break
							}
						}
						g.End()
					}
				}(w, gs[w])
			}
			wg.Wait()
			if r := qsense.Ref(slot.Swap(0)); !r.IsNil() {
				gs[0].Retire(r)
			}
			dom.Close()
			if live := pool.Live(); live != 0 {
				t.Fatalf("%d cells leaked", live)
			}
		})
	}
}

// TestOptionsDefaults: the zero Options value works and selects QSense.
func TestOptionsDefaults(t *testing.T) {
	set, err := qsense.NewSet(qsense.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	if !lease(t, set.Acquire).Insert(1) {
		t.Fatal("insert failed")
	}
	if got := set.Stats().Scheme; got != "qsense" {
		t.Fatalf("default scheme = %q", got)
	}
}

// TestRefTagRoundTrip: the public Ref tag helpers mirror the substrate.
func TestRefTagRoundTrip(t *testing.T) {
	pool := qsense.NewPool[int](qsense.PoolOptions{})
	r, _ := pool.Alloc()
	if r.IsNil() {
		t.Fatal("fresh ref is nil")
	}
	tagged := r.WithTag(1)
	if tagged.Tag() != 1 || tagged.Untagged() != r {
		t.Fatalf("tag round trip broke: %v -> %v", r, tagged)
	}
	if !pool.Valid(r) {
		t.Fatal("ref not valid")
	}
	pool.Free(r)
	if pool.Valid(r) {
		t.Fatal("freed ref still valid")
	}
}
