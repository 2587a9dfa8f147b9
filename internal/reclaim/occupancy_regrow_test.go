package reclaim

import "testing"

// TestSegmentGrownAfterUnparkIsWalked: once the top segment has been parked
// and unparked, a segment grown AFTER that must not be born inside the
// parked suffix — its tenants' hazard pointers and epochs have to be
// visited by every reclamation walk. (Found as a use-after-free under
// goroutine-per-request churn: hp freed a node a reader in the regrown
// segment still protected.)
func TestSegmentGrownAfterUnparkIsWalked(t *testing.T) {
	pool := newTestPool()
	d, err := NewHP(Config{Workers: 2, HPs: 1, Free: freeInto(pool)})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	lease := func(n int) []Guard {
		gs := make([]Guard, n)
		for i := range gs {
			if gs[i], err = d.Acquire(); err != nil {
				t.Fatal(err)
			}
		}
		return gs
	}
	for _, g := range lease(4) { // grows segment 1; the drain parks it
		d.Release(g)
	}
	if s := d.Stats(); s.SegmentParks != 1 || s.ParkedSlots != 2 {
		t.Fatalf("setup: parks=%d parked slots=%d, want 1 and 2", s.SegmentParks, s.ParkedSlots)
	}
	held := lease(8) // unparks segment 1, then grows segment 2
	if s := d.Stats(); s.SegmentUnparks != 1 || s.ArenaSize != 8 || s.ParkedSlots != 0 {
		t.Fatalf("setup: unparks=%d arena=%d parked slots=%d, want 1, 8 and 0", s.SegmentUnparks, s.ArenaSize, s.ParkedSlots)
	}
	if n := d.slots.walkOccupied(func(int) bool { return true }); n != len(held) {
		t.Fatalf("walkOccupied visited %d of %d leased slots", n, len(held))
	}
	// End to end: a protection published from the regrown segment holds.
	r := allocNode(pool, 1)
	held[7].Protect(0, r)
	held[0].Retire(r)
	held[0].(*hpGuard).scan()
	if !pool.Valid(r) {
		t.Fatal("scan freed a node protected by a guard of the segment grown after an unpark")
	}
	held[7].ClearHPs()
}
