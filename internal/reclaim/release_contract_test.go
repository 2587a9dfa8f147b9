package reclaim

import "testing"

// TestReleaseContract pins the half of the Domain contract the kernel owns
// for every scheme (core.go): a guard is released only by the domain that
// leased it, releasing twice changes nothing, and Close leaves nothing
// pending.
func TestReleaseContract(t *testing.T) {
	pool := newTestPool()
	cfg := Config{Workers: 2, HPs: 2, Free: freeInto(pool), ManualRooster: true}
	build := func(t *testing.T, scheme string) Domain {
		t.Helper()
		d, err := New(scheme, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	lease := func(t *testing.T, d Domain) Guard {
		t.Helper()
		g, err := d.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	// leasedAndPending is what a no-op Release must leave untouched.
	leasedAndPending := func(d Domain) [2]int64 {
		s := d.Stats()
		return [2]int64{int64(s.AcquiredHandles - s.ReleasedHandles), s.Pending}
	}
	mustPanicForeign := func(t *testing.T, what string, release func()) {
		t.Helper()
		defer func() {
			if r := recover(); r != errForeignGuard {
				t.Errorf("%s: recovered %v, want panic %q", what, r, errForeignGuard)
			}
		}()
		release()
	}

	for i, scheme := range Schemes() {
		other := Schemes()[(i+1)%len(Schemes())]
		t.Run(scheme, func(t *testing.T) {
			d := build(t, scheme)
			twin, stranger := build(t, scheme), build(t, other)
			defer twin.Close()
			defer stranger.Close()

			for what, from := range map[string]Domain{"same scheme, other domain": twin, other + " guard": stranger} {
				g := lease(t, from)
				mustPanicForeign(t, what, func() { d.Release(g) })
				from.Release(g)
			}

			g := lease(t, d)
			for n := uint64(1); n <= 3; n++ {
				g.Begin()
				g.Retire(allocNode(pool, n))
				g.ClearHPs()
			}
			d.Release(g)
			before := leasedAndPending(d)
			if before[0] != 0 {
				t.Fatalf("%d handles still leased after Release", before[0])
			}
			d.Release(g)
			if after := leasedAndPending(d); after != before {
				t.Errorf("second Release changed (leased, pending) %v -> %v", before, after)
			}
			d.Close()
			if s := d.Stats(); scheme != nameNone && s.Pending != 0 {
				t.Errorf("Pending = %d after Close (retired %d, freed %d)", s.Pending, s.Retired, s.Freed)
			}
		})
	}
}
