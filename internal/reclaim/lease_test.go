package reclaim

import (
	"context"
	"errors"
	"sync"
	"testing"

	"qsense/internal/mem"
)

// mkLease builds a small domain of the named scheme over the shared test
// pool, with thresholds low enough that reclamation cycles within a test.
// The arena is capped at its initial size (HardMaxWorkers = workers): these
// tests exercise the fixed-arena exhaustion/backpressure semantics; elastic
// growth has its own suite in elastic_test.go.
func mkLease(t *testing.T, scheme string, workers int) Domain {
	t.Helper()
	pool := newTestPool()
	cfg := Config{Workers: workers, HardMaxWorkers: workers, HPs: 1, Free: freeInto(pool), Q: 1, R: 4}
	if scheme == "qsense" {
		cfg.C = LegalC(cfg)
	}
	d, err := New(scheme, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

func TestAcquireExhaustionAndReuse(t *testing.T) {
	for _, scheme := range Schemes() {
		t.Run(scheme, func(t *testing.T) {
			const n = 4
			d := mkLease(t, scheme, n)
			guards := make([]Guard, n)
			for i := range guards {
				g, err := d.Acquire()
				if err != nil {
					t.Fatalf("acquire %d: %v", i, err)
				}
				guards[i] = g
			}
			if _, err := d.Acquire(); !errors.Is(err, ErrNoSlots) {
				t.Fatalf("acquire past the arena: err = %v, want ErrNoSlots", err)
			}
			d.Release(guards[2])
			g, err := d.Acquire()
			if err != nil {
				t.Fatalf("acquire after release: %v", err)
			}
			if g != guards[2] {
				t.Fatal("freelist did not recycle the released slot")
			}
			st := d.Stats()
			if st.AcquiredHandles != n+1 || st.ReleasedHandles != 1 {
				t.Fatalf("lease counters = %d/%d, want %d/1",
					st.AcquiredHandles, st.ReleasedHandles, n+1)
			}
		})
	}
}

// TestAcquireSkipsPinnedSlots: a slot pinned down by a lease that is never
// released — the paper's fixed worker — is handed to nobody else, however
// hard the rest of the arena is drained.
func TestAcquireSkipsPinnedSlots(t *testing.T) {
	for _, scheme := range Schemes() {
		t.Run(scheme, func(t *testing.T) {
			const n = 3
			d := mkLease(t, scheme, n)
			held := acquire(t, d, 1)[0]
			var got []Guard
			for {
				g, err := d.Acquire()
				if err != nil {
					break
				}
				got = append(got, g)
			}
			if len(got) != n-1 {
				t.Fatalf("leased %d slots next to 1 held, want %d", len(got), n-1)
			}
			for _, g := range got {
				if g == held {
					t.Fatal("Acquire handed out a slot that is still leased")
				}
			}
		})
	}
}

func TestDoubleReleaseIsNoOp(t *testing.T) {
	for _, scheme := range Schemes() {
		t.Run(scheme, func(t *testing.T) {
			d := mkLease(t, scheme, 2)
			g, err := d.Acquire()
			if err != nil {
				t.Fatal(err)
			}
			d.Release(g)
			d.Release(g) // must not push the slot twice
			a, err1 := d.Acquire()
			b, err2 := d.Acquire()
			if err1 != nil || err2 != nil {
				t.Fatalf("re-acquire: %v / %v", err1, err2)
			}
			if a == b {
				t.Fatal("double release duplicated a slot in the freelist")
			}
			if _, err := d.Acquire(); !errors.Is(err, ErrNoSlots) {
				t.Fatal("arena of 2 handed out a third lease")
			}
		})
	}
}

func TestReleasedSlotDoesNotBlockGracePeriods(t *testing.T) {
	// The point of leasing for the epoch schemes: a released slot is out of
	// grace-period accounting, so reclamation proceeds without it. (The
	// pre-leasing behaviour — an idle fixed worker freezing the epoch — is
	// TestQSBRBlockingGrowsUnboundedAndFails.)
	for _, scheme := range []string{"qsbr", "qsense"} {
		t.Run(scheme, func(t *testing.T) {
			pool := newTestPool()
			cfg := Config{Workers: 2, HardMaxWorkers: 2, HPs: 1, Free: freeInto(pool), Q: 1, ManualRooster: true}
			if scheme == "qsense" {
				cfg.C = LegalC(cfg)
			}
			d, err := New(scheme, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			active, err := d.Acquire()
			if err != nil {
				t.Fatal(err)
			}
			idle, err := d.Acquire()
			if err != nil {
				t.Fatal(err)
			}
			_ = idle
			r := allocNode(pool, 1)
			active.Retire(r)
			d.Release(idle) // leaves: must stop blocking the epoch
			for i := 0; i < 8 && pool.Valid(r); i++ {
				active.Begin()
			}
			if pool.Valid(r) {
				t.Fatal("released slot still blocks grace periods")
			}
		})
	}
}

func TestReleaseOrphansUnagedBacklog(t *testing.T) {
	// A released slot's unaged limbo moves to the domain's orphan list and
	// is adopted by another worker's quiescent states once three epochs
	// pass — the vacated slot's re-lease is NOT required (the pre-orphan
	// behaviour parked the backlog on the slot for its next tenant, which
	// stranded it forever if the slot never re-leased).
	pool := newTestPool()
	d, err := NewQSBR(Config{Workers: 2, HPs: 1, Free: freeInto(pool), Q: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	active, err := d.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	leaver, err := d.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	r := allocNode(pool, 7)
	leaver.Retire(r)
	d.Release(leaver)
	if !pool.Valid(r) {
		t.Fatal("backlog freed at Release although it had not aged")
	}
	if st := d.Stats(); st.OrphanedNodes != 1 {
		t.Fatalf("OrphanedNodes = %d, want 1", st.OrphanedNodes)
	}
	for i := 0; i < 8 && pool.Valid(r); i++ { // >= 3 epoch advances, slot vacant
		active.Begin()
	}
	if pool.Valid(r) {
		t.Fatal("vacant slot's orphaned backlog was not adopted by the active worker")
	}
	st := d.Stats()
	if st.AdoptedNodes != 1 {
		t.Fatalf("AdoptedNodes = %d, want 1", st.AdoptedNodes)
	}
	if st.Pending != 0 {
		t.Fatalf("Pending = %d after adoption, want 0", st.Pending)
	}
}

func TestEpochAdvancesUnderPureHandleChurn(t *testing.T) {
	// Goroutines too short-lived to reach a Q-th Begin never declare
	// quiescent states; the lease points themselves must keep the epoch
	// rotating and limbo draining.
	for _, scheme := range []string{"qsbr", "qsense", "ebr"} {
		t.Run(scheme, func(t *testing.T) {
			pool := newTestPool()
			cfg := Config{Workers: 4, HPs: 1, Free: freeInto(pool), Q: 1 << 20, R: 1 << 20}
			if scheme == "qsense" {
				cfg.C = LegalC(cfg)
			}
			d, err := New(scheme, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			for i := 0; i < 200; i++ {
				g, err := d.Acquire()
				if err != nil {
					t.Fatal(err)
				}
				g.Begin() // far below Q: never a quiescent state from here
				g.Retire(allocNode(pool, uint64(i)))
				d.Release(g)
			}
			if st := d.Stats(); st.Freed == 0 {
				t.Fatalf("%s: nothing reclaimed across 200 lease cycles: %+v", scheme, st)
			}
		})
	}
}

// TestLeaseChurnStress is the scheme-level recycling stress: short-lived
// workers lease via the blocking AcquireWait, churn the shared mailbox
// under full HP discipline, and release, far more workers than slots. The
// poisoned pool turns any use-after-free into a panic; the final accounting
// catches slot or node leaks. Run with -race to check the allocator's
// publication ordering (and the waiter wake protocol).
func TestLeaseChurnStress(t *testing.T) {
	for _, scheme := range Schemes() {
		t.Run(scheme, func(t *testing.T) {
			const slots = 4
			workers, iters := 32, 300
			if testing.Short() {
				workers, iters = 12, 150
			}
			pool := newTestPool()
			cfg := Config{Workers: slots, HardMaxWorkers: slots, HPs: 1, Free: freeInto(pool), Q: 4, R: 8}
			if scheme == "qsense" {
				cfg.C = LegalC(cfg)
			}
			d, err := New(scheme, cfg)
			if err != nil {
				t.Fatal(err)
			}
			mb := newMailbox(pool, 16)
			var wg sync.WaitGroup
			errs := make(chan error, workers)
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
					g, err := d.AcquireWait(context.Background())
					if err != nil {
						errs <- err
						return
					}
					rng := uint64(id)*0x9e3779b9 + 1
					for i := 0; i < iters; i++ {
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
					d.Release(g)
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatalf("%s: safety violation under lease churn: %v", scheme, err)
			}
			// No slot leaks: every lease was returned, so the whole arena
			// must be acquirable again.
			st := d.Stats()
			if st.AcquiredHandles != st.ReleasedHandles {
				t.Fatalf("%s: %d leases vs %d releases", scheme, st.AcquiredHandles, st.ReleasedHandles)
			}
			if st.AcquiredHandles < uint64(workers) {
				t.Fatalf("%s: only %d leases for %d workers", scheme, st.AcquiredHandles, workers)
			}
			final := make([]Guard, 0, slots)
			for i := 0; i < slots; i++ {
				g, err := d.Acquire()
				if err != nil {
					t.Fatalf("%s: slot leaked: re-acquire %d failed: %v", scheme, i, err)
				}
				final = append(final, g)
			}
			mb.drain(final[0])
			for _, g := range final {
				d.Release(g)
			}
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
