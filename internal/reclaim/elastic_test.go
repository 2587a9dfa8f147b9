package reclaim

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"qsense/internal/mem"
)

// TestSegGeometry pins the arena's segment arithmetic: every index below
// the cap maps into exactly one segment, offsets are contiguous, and the
// segment count covers the cap.
func TestSegGeometry(t *testing.T) {
	for _, init := range []uint32{1, 2, 3, 5, 8, 16} {
		for _, cap := range []uint32{init, init + 1, 4 * init, 4*init + 3, 64} {
			if cap < init {
				continue
			}
			n := numSegs(init, cap)
			covered := uint32(0)
			for s := 0; s < n; s++ {
				lo, hi := segBounds(s, init, cap)
				if lo != covered {
					t.Fatalf("init=%d cap=%d seg=%d: lo=%d, want %d", init, cap, s, lo, covered)
				}
				for i := lo; i < hi; i++ {
					gs, off := segOf(i, init)
					if gs != s || off != i-lo {
						t.Fatalf("init=%d cap=%d: segOf(%d) = (%d,%d), want (%d,%d)",
							init, cap, i, gs, off, s, i-lo)
					}
				}
				covered = hi
			}
			if covered < cap {
				t.Fatalf("init=%d cap=%d: %d segments cover only %d slots", init, cap, n, covered)
			}
		}
	}
}

// TestAcquireGrowsArena is the tentpole contract: with no hard cap, Acquire
// never returns ErrNoSlots — the arena grows by publish-once segments —
// and the new capacity stats report the growth. Each slot, grown or not,
// has its own client cell, and the cell outlives a lease.
func TestAcquireGrowsArena(t *testing.T) {
	const initial, leases = 2, 40
	for _, scheme := range Schemes() {
		t.Run(scheme, func(t *testing.T) {
			pool := newTestPool()
			cfg := Config{Workers: initial, HPs: 1, Free: freeInto(pool), Q: 1, R: 4}
			if scheme == "qsense" {
				cfg.C = LegalC(cfg)
			}
			d, err := New(scheme, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()

			guards := make([]Guard, leases)
			seen := make(map[int]bool, leases)
			for i := range guards {
				g, err := d.Acquire()
				if err != nil {
					t.Fatalf("acquire %d on an elastic arena: %v", i, err)
				}
				w := SlotIndex(g)
				if seen[w] {
					t.Fatalf("slot %d handed out twice", w)
				}
				seen[w] = true
				// Every slot, grown ones included, has its own client cell.
				if cell := SlotClient(g); *cell != nil {
					t.Fatalf("slot %d's client cell starts as %v, want nil", w, *cell)
				} else {
					*cell = w
				}
				guards[i] = g
			}
			st := d.Stats()
			if st.ArenaSize < leases {
				t.Fatalf("ArenaSize = %d after %d concurrent leases", st.ArenaSize, leases)
			}
			if st.ArenaGrowths == 0 {
				t.Fatalf("no growths recorded growing %d -> %d", initial, st.ArenaSize)
			}
			if st.HighWaterWorkers != leases {
				t.Fatalf("HighWaterWorkers = %d, want %d", st.HighWaterWorkers, leases)
			}

			// Guards must work across segments: retire through a grown slot.
			last := guards[leases-1]
			last.Begin()
			last.Retire(allocNode(pool, 1))
			for _, g := range guards {
				d.Release(g)
			}
			// Released capacity is reused, not regrown.
			size := d.Stats().ArenaSize
			g, err := d.Acquire()
			if err != nil {
				t.Fatal(err)
			}
			if got := *SlotClient(g); got != SlotIndex(g) {
				t.Fatalf("slot %d's client cell holds %v after a re-lease, want its own index", SlotIndex(g), got)
			}
			d.Release(g)
			if got := d.Stats().ArenaSize; got != size {
				t.Fatalf("arena grew on reuse: %d -> %d", size, got)
			}
		})
	}
}

// TestHardMaxBackpressure: with HardMaxWorkers set, growth stops at the cap
// and the pre-elastic semantics return — ErrNoSlots from Acquire, parking
// from AcquireWait (woken by Release).
func TestHardMaxBackpressure(t *testing.T) {
	const initial, hard = 2, 5
	for _, scheme := range Schemes() {
		t.Run(scheme, func(t *testing.T) {
			pool := newTestPool()
			cfg := Config{Workers: initial, HardMaxWorkers: hard, HPs: 1, Free: freeInto(pool), Q: 1, R: 4}
			if scheme == "qsense" {
				cfg.C = LegalC(cfg)
			}
			d, err := New(scheme, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()

			guards := make([]Guard, hard)
			for i := range guards {
				g, err := d.Acquire()
				if err != nil {
					t.Fatalf("acquire %d below the cap: %v", i, err)
				}
				guards[i] = g
			}
			if _, err := d.Acquire(); !errors.Is(err, ErrNoSlots) {
				t.Fatalf("acquire past HardMaxWorkers: err = %v, want ErrNoSlots", err)
			}
			if st := d.Stats(); st.ArenaSize != hard {
				t.Fatalf("ArenaSize = %d, want the cap %d", st.ArenaSize, hard)
			}

			// AcquireWait parks at the cap and wakes on Release.
			got := make(chan Guard)
			go func() {
				g, err := d.AcquireWait(context.Background())
				if err != nil {
					t.Error(err)
				}
				got <- g
			}()
			select {
			case <-got:
				t.Fatal("AcquireWait returned at the hard cap")
			case <-time.After(20 * time.Millisecond):
			}
			d.Release(guards[0])
			select {
			case g := <-got:
				d.Release(g)
			case <-time.After(2 * time.Second):
				t.Fatal("AcquireWait not woken by Release at the hard cap")
			}
			for _, g := range guards[1:] {
				d.Release(g)
			}
		})
	}
}

// TestGrowthChurnRace is the -race stress for the elastic arena: far more
// goroutines than initial slots Acquire concurrently (never failing), churn
// a shared mailbox under full HP discipline — so segment publication
// interleaves with HP scans, epoch advances, rooster flushes — and Release
// mid-stream so orphan adoption runs against a growing arena too. One lease
// is held throughout — the paper's fixed worker — to cover a long tenancy
// operating across every growth.
func TestGrowthChurnRace(t *testing.T) {
	for _, scheme := range Schemes() {
		t.Run(scheme, func(t *testing.T) {
			const initial = 1
			workers, rounds, opsPer := 24, 3, 50
			if testing.Short() {
				workers, rounds = 10, 2
			}
			pool := newTestPool()
			cfg := Config{Workers: initial, HPs: 1, Free: freeInto(pool), Q: 2, R: 4}
			if scheme == "qsense" {
				cfg.C = LegalC(cfg)
			}
			d, err := New(scheme, cfg)
			if err != nil {
				t.Fatal(err)
			}
			mb := newMailbox(pool, 16)
			var wg sync.WaitGroup
			errs := make(chan error, workers+1)

			// The fixed worker, operating across every growth.
			held := acquire(t, d, 1)[0]
			var stop sync.WaitGroup
			stop.Add(1)
			done := make(chan struct{})
			go func() {
				defer stop.Done()
				defer func() {
					if r := recover(); r != nil {
						if v, ok := r.(*mem.Violation); ok {
							errs <- v
							return
						}
						panic(r)
					}
				}()
				rng := uint64(0xfeed)
				for {
					select {
					case <-done:
						held.ClearHPs()
						return
					default:
					}
					held.Begin()
					rng = rng*6364136223846793005 + 1442695040888963407
					if rng&1 == 0 {
						mb.put(held, int(rng>>33)%len(mb.slots), rng)
					} else {
						mb.take(held, int(rng>>33)%len(mb.slots))
					}
				}
			}()

			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					defer func() {
						if r := recover(); r != nil {
							if v, ok := r.(*mem.Violation); ok {
								errs <- v
								return
							}
							panic(r)
						}
					}()
					rng := uint64(id)*0x9e3779b9 + 1
					for round := 0; round < rounds; round++ {
						g, err := d.Acquire() // must never fail: the arena grows
						if err != nil {
							errs <- err
							return
						}
						for i := 0; i < opsPer; i++ {
							g.Begin()
							rng = rng*6364136223846793005 + 1442695040888963407
							slot := int(rng>>33) % len(mb.slots)
							if rng&1 == 0 {
								mb.put(g, slot, rng)
							} else {
								mb.take(g, slot)
							}
						}
						g.ClearHPs()
						d.Release(g) // orphans whatever has not aged
					}
				}(w)
			}
			wg.Wait()
			close(done)
			stop.Wait()
			d.Release(held)
			close(errs)
			for err := range errs {
				t.Fatalf("%s: %v", scheme, err)
			}

			st := d.Stats()
			if st.ArenaGrowths == 0 || st.ArenaSize <= initial {
				t.Fatalf("%s: churn with %d workers never grew the 1-slot arena: %+v", scheme, workers, st)
			}
			if st.AcquiredHandles != st.ReleasedHandles {
				t.Fatalf("%s: %d leases vs %d releases", scheme, st.AcquiredHandles, st.ReleasedHandles)
			}
			g, err := d.Acquire()
			if err != nil {
				t.Fatal(err)
			}
			mb.drain(g)
			d.Release(g)
			d.Close()
			if scheme != "none" {
				if st := d.Stats(); st.Pending != 0 {
					t.Fatalf("%s: %d pending after Close", scheme, st.Pending)
				}
				if live := pool.Stats().Live; live != 0 {
					t.Fatalf("%s: %d nodes leaked", scheme, live)
				}
			}
		})
	}
}

// TestGrowthAdoptsOrphans: a backlog orphaned BEFORE any growth must be
// adopted by a worker leased into a GROWN slot — the grown slot is a full
// protocol participant, qua orphan adoption included.
func TestGrowthAdoptsOrphans(t *testing.T) {
	pool := newTestPool()
	d, err := NewQSBR(Config{Workers: 1, HPs: 1, Free: freeInto(pool), Q: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	leaver, err := d.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	r := allocNode(pool, 7)
	leaver.Retire(r)

	// Growth: the initial slot is held, so this lease publishes segment 1.
	grown, err := d.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if SlotIndex(grown) == SlotIndex(leaver) {
		t.Fatal("second lease did not grow")
	}
	d.Release(leaver) // strands the unaged node on the orphan list
	if st := d.Stats(); st.OrphanedNodes != 1 {
		t.Fatalf("OrphanedNodes = %d, want 1", st.OrphanedNodes)
	}
	for i := 0; i < 8 && pool.Valid(r); i++ {
		grown.Begin() // the grown slot's quiescent states must adopt
	}
	if pool.Valid(r) {
		t.Fatal("grown slot did not adopt the orphaned backlog")
	}
	if st := d.Stats(); st.AdoptedNodes != 1 || st.Pending != 0 {
		t.Fatalf("adopted/pending = %d/%d, want 1/0", st.AdoptedNodes, st.Pending)
	}
	d.Release(grown)
}

// TestHighWaterNeverExceedsArena hammers the racy occupancy estimate with
// lease churn at the cap, then one more lease, and checks the invariant the
// clamp enforces: HighWaterWorkers <= ArenaSize, whatever interleaving
// happened.
func TestHighWaterNeverExceedsArena(t *testing.T) {
	pool := newTestPool()
	d, err := NewQSBR(Config{Workers: 4, HardMaxWorkers: 8, HPs: 1, Free: freeInto(pool), Q: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				g, err := d.Acquire()
				if err != nil {
					continue // transient exhaustion at the cap is fine here
				}
				d.Release(g)
			}
		}()
	}
	wg.Wait()
	acquire(t, d, 1) // one more occupant on top of the churn
	st := d.Stats()
	if st.HighWaterWorkers > st.ArenaSize {
		t.Fatalf("HighWaterWorkers %d exceeds ArenaSize %d", st.HighWaterWorkers, st.ArenaSize)
	}
	if st.HighWaterWorkers < 1 {
		t.Fatalf("HighWaterWorkers = %d after real occupancy", st.HighWaterWorkers)
	}
}
