package reclaim

import (
	"sync"
	"sync/atomic"
	"testing"

	"qsense/internal/mem"
)

func sharedSnapshot(slots *slotPool, recs *arena[*hprec]) []uint64 {
	snap, _ := snapshotShared(slots, recs, nil)
	return snap.vals
}

// TestInactiveRecordIsInvisible: ClearHPs lowers the active word and leaves
// the slot values behind; a scan must not see them. Once the record is
// active again the untouched slot is a (bounded) over-protection, and the
// overwritten one names only the new node.
func TestInactiveRecordIsInvisible(t *testing.T) {
	pool := newTestPool()
	d, err := NewHP(Config{Workers: 2, HPs: 2, Free: freeInto(pool), R: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	g := acquire(t, d, 1)[0].(*hpGuard)
	a, b, c := allocNode(pool, 1), allocNode(pool, 2), allocNode(pool, 3)
	g.Protect(0, a)
	g.Protect(1, b)
	if got := sharedSnapshot(d.slots, d.recs); len(got) != 2 {
		t.Fatalf("active record: snapshot %v, want 2 entries", got)
	}
	g.ClearHPs()
	if g.rec.shared[0].v.Load() != uint64(a) || g.rec.shared[1].v.Load() != uint64(b) {
		t.Fatal("ClearHPs touched a slot: it must be one store to the active word")
	}
	if got := sharedSnapshot(d.slots, d.recs); len(got) != 0 {
		t.Fatalf("inactive record contributed %v", got)
	}
	acquire(t, d, 1)[0].Retire(a) // R=1: scans now
	if pool.Valid(a) {
		t.Fatal("stale slot of an inactive record kept a node alive")
	}
	g.Protect(0, c)
	got := sharedSnapshot(d.slots, d.recs)
	if len(got) != 2 || !(hpSnapshot{got}).contains(c) || !(hpSnapshot{got}).contains(b) {
		t.Fatalf("re-activated record: snapshot %v, want {b (stale), c}", got)
	}
	g.ClearHPs()
	g.ClearHPs() // idempotent
	if g.rec.sharedActive.Load() || g.rec.on {
		t.Fatal("record still active after ClearHPs")
	}
}

// TestFlushFollowsActiveWord drives the pending -> shared half by hand: an
// idle record's slots are not copied (its stale pending values never reach
// shared), "inactive" is published by the word alone, and a pass after
// re-activation leaves shared equal to pending.
func TestFlushFollowsActiveWord(t *testing.T) {
	pool := newTestPool()
	d := newCadenceDomain(t, pool, 2, 2, 1)
	defer d.Close()
	g := acquire(t, d, 1)[0].(*cadenceGuard)
	a, b := allocNode(pool, 1), allocNode(pool, 2)

	g.Protect(0, a)
	g.ClearHPs() // never flushed: pending[0] is stale, shared[0] is nil
	d.Rooster().Step()
	if g.rec.shared[0].v.Load() != 0 || g.rec.sharedActive.Load() {
		t.Fatal("flush of an idle record stored to shared")
	}

	g.Protect(1, b)
	if got := sharedSnapshot(d.slots, d.recs); len(got) != 0 {
		t.Fatalf("unflushed activation visible to scans: %v", got)
	}
	d.Rooster().Step()
	if !g.rec.sharedActive.Load() || g.rec.shared[0].v.Load() != uint64(a) || g.rec.shared[1].v.Load() != uint64(b) {
		t.Fatal("pass after activation did not republish pending")
	}

	g.ClearHPs()
	d.Rooster().Step()
	if g.rec.sharedActive.Load() {
		t.Fatal("pass after ClearHPs left the record active")
	}
	if g.rec.shared[1].v.Load() != uint64(b) {
		t.Fatal("publishing \"inactive\" touched a slot")
	}
	if got := sharedSnapshot(d.slots, d.recs); len(got) != 0 {
		t.Fatalf("inactive record contributed %v", got)
	}
}

// TestFlushRepublishesBeforeActive: a scan that reads "active" must read
// this pass's slots, never the values the record went idle with. The owner
// publishes an increasing sequence, one value per activation; an observer
// that has seen n idle flushes and then reads "active" is looking at
// activation n+1 or later, so the slot must have moved past value n.
func TestFlushRepublishesBeforeActive(t *testing.T) {
	const rounds = 20000
	h := newHPRec(1)
	var idle atomic.Uint64 // idle flushes completed
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			n := idle.Load()
			if !h.sharedActive.Load() {
				continue
			}
			if v := h.shared[0].v.Load() >> mem.TagBits; v <= n {
				t.Errorf("saw \"active\" after %d idle flushes with slot value %d", n, v)
				return
			}
		}
	}()
	for i := uint64(1); i <= rounds; i++ {
		h.publishPending(0, mem.Ref(i<<mem.TagBits))
		h.FlushHP()
		h.deactivate(&h.pendingActive)
		h.FlushHP()
		idle.Store(i)
	}
	close(stop)
	wg.Wait()
}

// TestLeaseBoundaryResetsRecord: join and Release keep the full clear, so a
// record enters and leaves a lease with every slot and both words zero —
// over-protection by stale slots is bounded by the lease.
func TestLeaseBoundaryResetsRecord(t *testing.T) {
	for _, scheme := range []string{"hp", "cadence", "qsense"} {
		t.Run(scheme, func(t *testing.T) {
			pool := newTestPool()
			d, err := New(scheme, Config{Workers: 1, HPs: 3, Free: freeInto(pool), ManualRooster: true})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			recOf := func(g Guard) *hprec {
				switch g := g.(type) {
				case *hpGuard:
					return g.rec
				case *cadenceGuard:
					return g.rec
				}
				return g.(*qsenseGuard).rec
			}
			clean := func(when string, r *hprec) {
				t.Helper()
				for i := range r.pending {
					if r.pending[i].v.Load() != 0 || r.shared[i].v.Load() != 0 {
						t.Fatalf("%s: slot %d not zero", when, i)
					}
				}
				if r.on || r.pendingActive.Load() || r.sharedActive.Load() {
					t.Fatalf("%s: record still active", when)
				}
			}
			for round := 0; round < 2; round++ {
				g, err := d.Acquire()
				if err != nil {
					t.Fatal(err)
				}
				r := recOf(g)
				clean("after join", r)
				for i := 0; i < 3; i++ {
					g.Protect(i, allocNode(pool, uint64(i)))
				}
				if scheme != "hp" {
					r.FlushHP() // stale values in shared too
				}
				g.ClearHPs()
				d.Release(g)
				clean("after Release", r)
			}
		})
	}
}
