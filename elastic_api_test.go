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

// TestElasticAcquireNeverFails is the acceptance criterion of the elastic
// redesign: with DEFAULT Options, Acquire never returns ErrNoSlots even
// when 10,000 goroutines hold handles at once — the guard arena grows on
// demand (ArenaGrowths > 0), every goroutine gets a distinct live slot
// (HighWaterWorkers reaches the population), and the domain still
// reclaims and recycles cleanly afterwards.
func TestElasticAcquireNeverFails(t *testing.T) {
	goroutines := 10000
	if testing.Short() {
		goroutines = 2000
	}
	set, err := qsense.NewSet(qsense.Options{}) // all defaults: elastic QSense
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	var failures atomic.Uint64
	var wg, holding sync.WaitGroup
	holding.Add(goroutines)
	allHeld := make(chan struct{})
	go func() { holding.Wait(); close(allHeld) }()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h, err := set.Acquire()
			holding.Done()
			if err != nil {
				failures.Add(1)
				return
			}
			defer h.Release()
			// Barrier: nobody releases until every goroutine holds a
			// handle, so the domain really carries `goroutines` leases at
			// once — growth MUST engage whatever GOMAXPROCS is.
			<-allHeld
			rng := uint64(g)*0x9E3779B9 + 1
			for i := 0; i < 8; i++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				k := int64(rng>>33)%1024 + 1
				switch rng % 4 {
				case 0:
					h.Insert(k)
				case 1:
					h.Delete(k)
				default:
					h.Contains(k)
				}
			}
		}(g)
	}
	wg.Wait()

	if n := failures.Load(); n != 0 {
		t.Fatalf("%d of %d Acquires failed on a default (elastic) domain", n, goroutines)
	}
	st := set.Stats()
	if st.AcquiredHandles != uint64(goroutines) || st.ReleasedHandles != uint64(goroutines) {
		t.Fatalf("lease counters %d/%d, want %d/%d",
			st.AcquiredHandles, st.ReleasedHandles, goroutines, goroutines)
	}
	if st.ArenaGrowths == 0 {
		t.Fatalf("%d concurrent leases never grew the arena: %+v", goroutines, st)
	}
	if st.HighWaterWorkers > st.ArenaSize {
		t.Fatalf("HighWaterWorkers %d exceeds ArenaSize %d", st.HighWaterWorkers, st.ArenaSize)
	}
	if st.HighWaterWorkers != goroutines {
		t.Fatalf("HighWaterWorkers = %d, want %d (every goroutine held a slot at the barrier)",
			st.HighWaterWorkers, goroutines)
	}
	if st.RRetunes == 0 {
		t.Fatalf("scan threshold never re-tuned while growing to %d slots: %+v", st.ArenaSize, st)
	}
	// Occupancy-proportional decay: with the burst drained, a few solo
	// lease cycles must leave the grown capacity parked — every later scan
	// and epoch advance walks a near-empty arena, not the 10k high-water.
	for i := 0; i < 4; i++ {
		h, err := set.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		h.Contains(1)
		h.Release()
	}
	st = set.Stats()
	if st.SegmentParks == 0 || st.ParkedSlots == 0 {
		t.Fatalf("grown capacity never parked after the burst drained: %+v", st)
	}
	if walked := st.ArenaSize - st.ParkedSlots; walked > st.ArenaSize/2 {
		t.Fatalf("%d of %d slots still walked after the burst drained", walked, st.ArenaSize)
	}
	set.Close()
	if st := set.Stats(); st.Pending != 0 {
		t.Fatalf("pending after Close: %+v", st)
	}
}

// TestHardMaxBackpressurePublic: with Options.HardMaxWorkers the
// pre-elastic semantics hold through the public API — ErrNoSlots at the
// cap, AcquireWait parking until Release, context cancellation honored.
func TestHardMaxBackpressurePublic(t *testing.T) {
	set, err := qsense.NewSet(qsense.Options{MaxWorkers: 2, HardMaxWorkers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	var held []qsense.SetHandle
	for i := 0; i < 3; i++ {
		h, err := set.Acquire()
		if err != nil {
			t.Fatalf("acquire %d below the cap: %v", i, err)
		}
		held = append(held, h)
	}
	if _, err := set.Acquire(); !errors.Is(err, qsense.ErrNoSlots) {
		t.Fatalf("acquire past HardMaxWorkers: err = %v, want ErrNoSlots", err)
	}
	if st := set.Stats(); st.ArenaSize != 3 || st.HighWaterWorkers != 3 {
		t.Fatalf("arena/highwater = %d/%d, want 3/3", st.ArenaSize, st.HighWaterWorkers)
	}

	got := make(chan qsense.SetHandle)
	go func() {
		h, err := set.AcquireWait(context.Background())
		if err != nil {
			t.Error(err)
		}
		got <- h
	}()
	select {
	case <-got:
		t.Fatal("AcquireWait returned at the hard cap")
	case <-time.After(20 * time.Millisecond):
	}
	held[0].Release()
	select {
	case h := <-got:
		h.Release()
	case <-time.After(2 * time.Second):
		t.Fatal("AcquireWait not woken by Release")
	}
	for _, h := range held[1:] {
		h.Release()
	}
}

// TestHardCapBelowInitial: a hard cap below MaxWorkers lowers the initial
// arena to the cap rather than erroring or exceeding it.
func TestHardCapBelowInitial(t *testing.T) {
	set, err := qsense.NewSet(qsense.Options{MaxWorkers: 8, HardMaxWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	a, err1 := set.Acquire()
	b, err2 := set.Acquire()
	if err1 != nil || err2 != nil {
		t.Fatalf("acquires below cap: %v / %v", err1, err2)
	}
	if _, err := set.Acquire(); !errors.Is(err, qsense.ErrNoSlots) {
		t.Fatalf("err = %v, want ErrNoSlots at cap 2", err)
	}
	if st := set.Stats(); st.ArenaSize != 2 {
		t.Fatalf("ArenaSize = %d, want 2 (cap wins over MaxWorkers)", st.ArenaSize)
	}
	a.Release()
	b.Release()
}
