package reclaim

import (
	"testing"

	"qsense/internal/mem"
)

func newCadenceDomain(t *testing.T, pool *mem.Pool[tnode], workers, k, r int) *Cadence {
	t.Helper()
	d, err := NewCadence(Config{
		Workers: workers, HPs: k, Free: freeInto(pool), R: r,
		ManualRooster: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestCadenceDeferralProtectsUnflushedHP is the paper's core safety
// argument, end to end and deterministic: a hazard pointer that has been
// published but not yet flushed (a store sitting in the "store buffer") is
// invisible to scans — yet the node it protects survives, because it is not
// old enough until a full rooster pass has both completed after the
// retirement and flushed the publication.
func TestCadenceDeferralProtectsUnflushedHP(t *testing.T) {
	pool := newTestPool()
	d := newCadenceDomain(t, pool, 2, 1, 1)
	gs := acquire(t, d, 2)
	reclaimer, reader := gs[0], gs[1]

	r := allocNode(pool, 7)
	reader.Protect(0, r) // pending only: invisible to scans

	reclaimer.Retire(r) // R=1: scans immediately; shared HPs are empty
	if !pool.Valid(r) {
		t.Fatal("scan freed a node retired this tick: deferral broken")
	}
	if pool.Get(r).val != 7 { // the reader's access is still safe
		t.Fatal("node corrupted")
	}

	d.Rooster().Step() // pass 1: flushes reader's HP to shared
	reclaimer.Retire(allocNode(pool, 1))
	if !pool.Valid(r) {
		t.Fatal("node freed after one pass (pass may predate the stamp)")
	}

	d.Rooster().Step() // pass 2: r is now old enough...
	reclaimer.Retire(allocNode(pool, 2))
	if !pool.Valid(r) {
		t.Fatal("old-enough but HP-protected node freed")
	}

	// Reader releases; the clear is itself only visible after a flush.
	reader.Protect(0, 0)
	reclaimer.Retire(allocNode(pool, 3))
	if !pool.Valid(r) {
		t.Fatal("node freed while shared slot still held the stale protection — scan must read shared, which is fine, but then it must keep the node")
	}

	d.Rooster().Step() // pass 3: flushes the clear
	reclaimer.Retire(allocNode(pool, 4))
	if pool.Valid(r) {
		t.Fatal("released, old-enough node not reclaimed")
	}
	d.Close()
	if pool.Stats().Live != 0 {
		t.Fatalf("leak: %d", pool.Stats().Live)
	}
}

func TestCadenceUnprotectedFreedAfterTwoPasses(t *testing.T) {
	pool := newTestPool()
	d := newCadenceDomain(t, pool, 1, 1, 1)
	g := acquire(t, d, 1)[0]
	r := allocNode(pool, 1)
	g.Retire(r)
	for pass := 0; pass < 2; pass++ {
		g.Retire(allocNode(pool, uint64(pass)))
		if pool.Valid(r) == false {
			t.Fatalf("freed after %d passes", pass)
		}
		d.Rooster().Step()
	}
	g.Retire(allocNode(pool, 9)) // triggers scan at tick 2
	if pool.Valid(r) {
		t.Fatal("unprotected, old-enough node not freed")
	}
}

func TestCadenceNoRoosterNoReclamation(t *testing.T) {
	// Liveness depends on rooster passes (the paper's assumption 3 —
	// "rooster processes never fail"). With the rooster halted, nothing
	// is ever old enough; once it beats again, reclamation resumes.
	pool := newTestPool()
	d := newCadenceDomain(t, pool, 1, 1, 2)
	g := acquire(t, d, 1)[0]
	for i := 0; i < 100; i++ {
		g.Retire(allocNode(pool, uint64(i)))
	}
	if d.Stats().Freed != 0 {
		t.Fatal("freed nodes without any rooster pass")
	}
	d.Rooster().Step()
	d.Rooster().Step()
	g.Retire(allocNode(pool, 0))
	g.Retire(allocNode(pool, 0))
	if d.Stats().Freed == 0 {
		t.Fatal("no reclamation after rooster resumed")
	}
}

func TestCadenceStalledWorkerDelaysOnlyItsNodes(t *testing.T) {
	// Property 2 in spirit: a stalled reader pins at most its K nodes;
	// the system's pending count stays bounded while others churn.
	pool := newTestPool()
	const workers, k, r = 4, 2, 8
	d := newCadenceDomain(t, pool, workers, k, r)
	stalled := acquire(t, d, 1)[0]
	pinned := allocNode(pool, 99)
	stalled.Protect(0, pinned)
	d.Rooster().Step() // make the protection visible
	active := acquire(t, d, 1)[0]
	active.Retire(pinned) // removed, but protected by the stalled worker

	const perStep = 100
	bound := int64(workers*k + 2*perStep + r + 1)
	for step := 0; step < 50; step++ {
		for i := 0; i < perStep; i++ {
			active.Retire(allocNode(pool, uint64(i)))
		}
		d.Rooster().Step()
		if p := d.Stats().Pending; p > bound {
			t.Fatalf("pending %d exceeded bound %d at step %d", p, bound, step)
		}
	}
	if !pool.Valid(pinned) {
		t.Fatal("stalled worker's node freed — safety violated")
	}
	if pool.Get(pinned).val != 99 {
		t.Fatal("pinned node corrupted")
	}
	d.Close()
	if pool.Stats().Live != 0 {
		t.Fatalf("leak after Close: %d", pool.Stats().Live)
	}
}

func TestCadenceScanThresholdR(t *testing.T) {
	pool := newTestPool()
	d := newCadenceDomain(t, pool, 1, 1, 5)
	g := acquire(t, d, 1)[0]
	for i := 0; i < 4; i++ {
		g.Retire(allocNode(pool, uint64(i)))
	}
	if d.Stats().Scans != 0 {
		t.Fatal("scan before R retires")
	}
	g.Retire(allocNode(pool, 4))
	if d.Stats().Scans != 1 {
		t.Fatal("no scan at R retires")
	}
}

func TestCadenceStatsRoosterPasses(t *testing.T) {
	pool := newTestPool()
	d := newCadenceDomain(t, pool, 1, 1, 1)
	d.Rooster().Step()
	d.Rooster().Step()
	if st := d.Stats(); st.RoosterPasses != 2 {
		t.Fatalf("rooster passes = %d", st.RoosterPasses)
	}
	d.Close()
}

func TestCadenceStartedRoosterTimerDriven(t *testing.T) {
	// With a real timer the same lifecycle works without manual steps.
	pool := newTestPool()
	d, err := NewCadence(Config{Workers: 1, HPs: 1, Free: freeInto(pool), R: 2})
	if err != nil {
		t.Fatal(err)
	}
	g := acquire(t, d, 1)[0]
	deadline := 2000
	for i := 0; d.Stats().Freed == 0 && i < deadline; i++ {
		g.Begin()
		g.Retire(allocNode(pool, uint64(i)))
		if i%100 == 99 {
			sleepMs(1)
		}
	}
	if d.Stats().Freed == 0 {
		t.Fatal("timer-driven cadence never freed")
	}
	d.Close()
	if pool.Stats().Live != 0 {
		t.Fatalf("leak: %d", pool.Stats().Live)
	}
}
