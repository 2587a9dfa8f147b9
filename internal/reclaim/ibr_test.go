package reclaim

import "testing"

// TestIBRAdaptiveEraQ pins the cadence controller's two directions in their
// smallest deterministic form. A reader holding a reservation wider than
// ibrWidthTarget eras must drive eraQ down to the floor — the era clock
// speeds up so new births land past the wide interval and reclaim without
// waiting on it. Once the reader deactivates and only narrow reservations
// remain, churn must relax eraQ back up to the cap.
func TestIBRAdaptiveEraQ(t *testing.T) {
	pool := newTestPool()
	const q = 8
	d, err := NewIBR(Config{
		Workers: 2, HPs: 2, Q: q, R: 1, // R=1: every retire scans, so the controller runs per retire
		Free: freeInto(pool), Era: pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	floor, cap := q/4, q*16

	if got := d.EraQ(); got != q {
		t.Fatalf("initial EraQ = %d, want Config.Q = %d", got, q)
	}

	// Build a wide reservation: the reader Begins, then keeps Protecting
	// while the era clock advances, so upper tracks the clock while lower
	// stays pinned at the Begin era.
	gs := acquire(t, d, 2)
	reader, writer := gs[0], gs[1]
	reader.Begin()
	probe := allocNode(pool, 1)
	for i := 0; i < 2*ibrWidthTarget; i++ {
		pool.AdvanceEra()
		reader.Protect(0, probe)
	}
	// The reader now stalls, reservation held at width 2*ibrWidthTarget.

	// Writer churn: each retire scans (R=1), observes the wide reservation
	// and halves eraQ; a handful of retires must reach the floor.
	writer.Begin()
	for i := 0; i < 8; i++ {
		writer.Retire(allocNode(pool, 100+uint64(i)))
	}
	if got := d.EraQ(); got != floor {
		t.Fatalf("EraQ = %d under a width-%d reservation, want floor %d", got, 2*ibrWidthTarget, floor)
	}

	// The reader deactivates; with only the writer's zero-width reservation
	// visible, the same churn must relax eraQ to the cap. Begin per op keeps
	// the writer's own reservation at width 0.
	reader.ClearHPs()
	for i := 0; i < 16; i++ {
		writer.Begin()
		writer.Retire(allocNode(pool, 200+uint64(i)))
	}
	if got := d.EraQ(); got != cap {
		t.Fatalf("EraQ = %d after the wide reader cleared, want cap %d", got, cap)
	}

	writer.Retire(probe)
	writer.ClearHPs()
}
