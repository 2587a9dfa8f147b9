package reclaim

import (
	"testing"
	"testing/quick"

	"qsense/internal/mem"
)

// scriptStep drives one deterministic action on one guard: the generator's
// raw bytes become (guard, action) pairs, so testing/quick explores the
// scheme state machines far beyond what hand-written sequences reach.
type scriptStep struct {
	Guard  uint8
	Action uint8
}

// runScript executes a script against a fresh domain and checks the
// invariants that must hold for ANY interleaving of Begin / Protect /
// Retire / ClearHPs / rooster steps on correct schemes:
//
//  1. no use-after-free or double-free faults (the pool panics on both),
//  2. accounting balances: retired == freed + pending at every point,
//  3. after Close, everything retired has been freed exactly once and the
//     pool holds exactly the never-retired allocations.
func runScript(t *testing.T, scheme string, steps []scriptStep) bool {
	t.Helper()
	const workers = 3
	pool := newTestPool()
	cfg := Config{
		Workers: workers, HPs: 2, Free: freeInto(pool),
		Q: 2, R: 4, ManualRooster: true,
	}
	d, err := New(scheme, cfg)
	if err != nil {
		t.Fatal(err)
	}
	step := func() {
		switch dom := d.(type) {
		case *Cadence:
			dom.Rooster().Step()
		case *QSense:
			dom.Rooster().Step()
		}
	}
	// Per-guard: one live node that may be protected, then retired.
	held := make([]mem.Ref, workers)
	liveNotRetired := 0
	for i := range held {
		held[i] = allocNode(pool, uint64(i))
		liveNotRetired++
	}
	gs := acquire(t, d, workers)
	for _, s := range steps {
		w := int(s.Guard) % workers
		g := gs[w]
		switch s.Action % 6 {
		case 0:
			g.Begin()
		case 1:
			if !held[w].IsNil() {
				g.Protect(0, held[w])
			}
		case 2:
			if !held[w].IsNil() {
				g.Retire(held[w])
				held[w] = 0
				liveNotRetired--
			}
		case 3:
			g.ClearHPs()
		case 4:
			if held[w].IsNil() {
				held[w] = allocNode(pool, uint64(w))
				liveNotRetired++
			}
		case 5:
			step()
		}
		st := d.Stats()
		if st.Freed > st.Retired {
			t.Fatalf("%s: freed %d > retired %d", scheme, st.Freed, st.Retired)
		}
		// The cross-module invariant: every allocated node is either
		// held (never retired) or retired-and-pending. A double free,
		// a lost retiree, or an unaccounted free breaks this equality.
		if scheme != "none" {
			if live := int64(pool.Stats().Live); live != int64(liveNotRetired)+st.Pending {
				t.Fatalf("%s: pool live %d != held %d + pending %d",
					scheme, live, liveNotRetired, st.Pending)
			}
		}
	}
	d.Close()
	if scheme == "none" {
		return true
	}
	if st := d.Stats(); st.Pending != 0 {
		t.Fatalf("%s: pending %d after Close", scheme, st.Pending)
		return false
	}
	if live := pool.Stats().Live; live != uint64(liveNotRetired) {
		t.Fatalf("%s: pool live %d, want %d never-retired nodes", scheme, live, liveNotRetired)
		return false
	}
	return true
}

func TestSchemeScriptsQuick(t *testing.T) {
	for _, scheme := range Schemes() {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			f := func(steps []scriptStep) bool {
				return runScript(t, scheme, steps)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSchemeScriptsLong runs one long deterministic script per scheme so
// bucket rotation, scan thresholds and rooster deferral all cycle many
// times within a single domain.
func TestSchemeScriptsLong(t *testing.T) {
	for _, scheme := range Schemes() {
		var steps []scriptStep
		rng := uint64(0x9e3779b9)
		for i := 0; i < 3000; i++ {
			rng = rng*6364136223846793005 + 1442695040888963407
			steps = append(steps, scriptStep{Guard: uint8(rng >> 32), Action: uint8(rng >> 40)})
		}
		runScript(t, scheme, steps)
	}
}

// TestStatsSnapshotConsistency: a stats snapshot taken under concurrent
// churn never shows freed > retired.
func TestStatsSnapshotConsistency(t *testing.T) {
	pool := newTestPool()
	d, err := NewQSense(Config{Workers: 2, HPs: 1, Free: freeInto(pool), Q: 2})
	if err != nil {
		t.Fatal(err)
	}
	g := acquire(t, d, 1)[0]
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 30000; i++ {
			g.Begin()
			g.Retire(allocNode(pool, uint64(i)))
		}
	}()
	bad := 0
	for {
		select {
		case <-done:
			if bad > 0 {
				t.Fatalf("%d inconsistent snapshots (freed > retired)", bad)
			}
			acquire(t, d, 1)[0].Begin() // participate so Close leaves nothing odd
			d.Close()
			return
		default:
			st := d.Stats()
			if st.Freed > st.Retired {
				bad++
			}
		}
	}
}
