package reclaim

import (
	"testing"
	"testing/quick"

	"qsense/internal/mem"
)

// --- EBR ---

// TestEBRIdleWorkerDoesNotBlock: the robustness half EBR has over QSBR. A
// worker that finished its operation (ClearHPs) and then stalls
// indefinitely is inactive; grace periods advance without it and memory is
// reclaimed. Under QSBR the same worker (which stops declaring quiescent
// states) blocks reclamation forever.
func TestEBRIdleWorkerDoesNotBlock(t *testing.T) {
	pool := newTestPool()
	d, err := NewEBR(Config{Workers: 2, HPs: 1, Free: freeInto(pool), R: 4})
	if err != nil {
		t.Fatal(err)
	}
	idle := acquire(t, d, 1)[0]
	idle.Begin()
	idle.ClearHPs() // operation over; worker now stalls forever

	g := acquire(t, d, 1)[0]
	for i := 0; i < 200; i++ {
		g.Begin()
		g.Retire(allocNode(pool, uint64(i)))
		g.ClearHPs()
	}
	if st := d.Stats(); st.Freed == 0 {
		t.Fatalf("an idle (inactive) worker blocked EBR reclamation: %+v", st)
	}
	d.Close()
	if live := pool.Stats().Live; live != 0 {
		t.Fatalf("%d nodes leaked", live)
	}
}

// TestEBRMidOperationStallBlocks is the other half: a worker stalled
// INSIDE a critical section pins its announced epoch; after at most two
// further advances reclamation stops — EBR is still blocking, as §8 says
// of epoch-based techniques.
func TestEBRMidOperationStallBlocks(t *testing.T) {
	pool := newTestPool()
	d, err := NewEBR(Config{Workers: 2, HPs: 1, Free: freeInto(pool), R: 4})
	if err != nil {
		t.Fatal(err)
	}
	stuck := acquire(t, d, 1)[0]
	stuck.Begin() // enters a critical section and never leaves

	g := acquire(t, d, 1)[0]
	for i := 0; i < 400; i++ {
		g.Begin()
		g.Retire(allocNode(pool, uint64(i)))
		g.ClearHPs()
	}
	st := d.Stats()
	if st.EpochAdvances > 2 {
		t.Fatalf("epoch advanced %d times past a pinned critical section", st.EpochAdvances)
	}
	// Whatever was freed came from the first two advances; the tail must
	// be stuck.
	if st.Pending < 300 {
		t.Fatalf("reclamation proceeded past a pinned epoch: %+v", st)
	}
	d.Close()
}

// TestEBRSafetyUnderProtectedUse: a node reachable by an active critical
// section is never freed, even while other workers retire and advance
// furiously. The checksum would catch recycled memory.
func TestEBRSafetyUnderProtectedUse(t *testing.T) {
	pool := newTestPool()
	d, err := NewEBR(Config{Workers: 2, HPs: 1, Free: freeInto(pool), R: 2})
	if err != nil {
		t.Fatal(err)
	}
	gs := acquire(t, d, 2)
	reader, writer := gs[0], gs[1]

	reader.Begin() // reader's CS observes epoch e and holds a node
	held := allocNode(pool, 42)
	writer.Begin()
	writer.Retire(held)
	for i := 0; i < 100; i++ {
		writer.Begin() // re-announces; cannot advance past reader's pin
		writer.Retire(allocNode(pool, uint64(i)))
		writer.ClearHPs()
	}
	n := pool.Get(held) // must still be live
	if checksum(n.val) != n.check {
		t.Fatal("held node recycled under an active critical section")
	}
	reader.ClearHPs()
	d.Close()
}

// TestEBRFreesBatchAfterGracePeriods: nodes flow out of limbo buckets once
// the epoch cycles past them.
func TestEBRFreesBatchAfterGracePeriods(t *testing.T) {
	pool := newTestPool()
	d, err := NewEBR(Config{Workers: 1, HPs: 1, Free: freeInto(pool), R: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := acquire(t, d, 1)[0]
	for i := 0; i < 64; i++ {
		g.Begin()
		g.Retire(allocNode(pool, uint64(i)))
		g.ClearHPs()
	}
	if st := d.Stats(); st.Freed < 32 {
		t.Fatalf("solo EBR worker barely reclaimed: %+v", st)
	}
	d.Close()
}

// --- RC ---

// TestRCProtectedNodeSurvives: a counted reference blocks the claim; the
// release unblocks it.
func TestRCProtectedNodeSurvives(t *testing.T) {
	pool := newTestPool()
	d, err := NewRC(Config{Workers: 2, HPs: 2, Free: freeInto(pool), R: 1})
	if err != nil {
		t.Fatal(err)
	}
	gs := acquire(t, d, 2)
	reader, writer := gs[0].(*rcGuard), gs[1]
	r := allocNode(pool, 7)
	reader.Protect(0, r)
	writer.Retire(r) // R=1: sweeps immediately, must keep r
	if !pool.Valid(r) {
		t.Fatal("counted node was freed")
	}
	// Churn more retires through the writer; r must keep surviving.
	for i := 0; i < 50; i++ {
		writer.Retire(allocNode(pool, uint64(i)))
	}
	if !pool.Valid(r) {
		t.Fatal("counted node was freed during sweeps")
	}
	reader.ClearHPs()
	for i := 0; i < 4; i++ { // sweeps now reclaim r
		writer.Retire(allocNode(pool, 99))
	}
	if pool.Valid(r) {
		t.Fatal("released node never reclaimed")
	}
	d.Close()
}

// TestRCStaleAcquireFails: protecting a reference whose node is gone
// leaves the slot empty instead of corrupting the new tenant's count.
func TestRCStaleAcquireFails(t *testing.T) {
	pool := newTestPool()
	d, err := NewRC(Config{Workers: 1, HPs: 1, Free: freeInto(pool), R: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := acquire(t, d, 1)[0].(*rcGuard)
	r := allocNode(pool, 1)
	g.Retire(r) // swept immediately: freed
	if pool.Valid(r) {
		t.Fatal("unprotected retire not freed with R=1")
	}
	r2 := allocNode(pool, 2) // recycles the slot, new generation
	g.Protect(0, r)          // stale!
	if g.held[0] != 0 {
		t.Fatal("stale acquire succeeded")
	}
	// The live node's protection still works.
	g.Protect(0, r2)
	if g.held[0] != r2 {
		t.Fatal("live acquire failed after stale attempt")
	}
	g.Retire(r2)
	if !pool.Valid(r2) {
		t.Fatal("counted node freed")
	}
	g.ClearHPs()
	d.Close()
}

// TestRCProtectSameRefIdempotent: re-protecting the slot's current
// occupant must not change the count (or a later release would underflow).
func TestRCProtectSameRefIdempotent(t *testing.T) {
	pool := newTestPool()
	d, err := NewRC(Config{Workers: 1, HPs: 1, Free: freeInto(pool), R: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := acquire(t, d, 1)[0].(*rcGuard)
	r := allocNode(pool, 3)
	for i := 0; i < 5; i++ {
		g.Protect(0, r)
	}
	g.ClearHPs() // single release must fully unprotect
	g.Retire(r)
	if pool.Valid(r) {
		t.Fatal("node not reclaimed after ClearHPs — count leaked")
	}
	d.Close()
}

// TestRCCountTableProperty: against a sequential model, any sequence of
// acquire/release/claim operations on one slot across two generations
// keeps the table's answers consistent: claims succeed exactly when the
// model count is zero, acquires fail only for superseded generations.
func TestRCCountTableProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		var tbl countTable
		gen := uint32(1)
		ref := mem.MakeRef(5, gen)
		count := 0
		claimed := false
		for _, op := range ops {
			switch op % 4 {
			case 0: // acquire
				ok := tbl.acquire(ref)
				if claimed && ok {
					return false // acquire after claim must fail
				}
				if !claimed && !ok {
					return false // live acquire must succeed
				}
				if ok {
					count++
				}
			case 1: // release
				if count > 0 {
					tbl.release(ref)
					count--
				}
			case 2: // claim attempt
				ok := tbl.tryClaim(ref)
				if ok != (!claimed && count == 0) {
					return false
				}
				if ok {
					claimed = true
				}
			case 3: // generation hop: simulate slot reuse
				if claimed {
					gen += 2
					ref = mem.MakeRef(5, gen)
					count = 0
					claimed = false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestRCOlderGenerationCannotBlockLiveAcquire is the regression test for
// the resurrection hazard the monotonic-generation rule exists to prevent:
// a stale reader parking its dead count in the word must not make a LIVE
// node's acquire fail (an acquire failure sends the current reader past
// validation unprotected).
func TestRCOlderGenerationCannotBlockLiveAcquire(t *testing.T) {
	var tbl countTable
	oldRef := mem.MakeRef(9, 1)
	newRef := mem.MakeRef(9, 3)
	if !tbl.acquire(oldRef) {
		t.Fatal("setup: old acquire failed")
	}
	// The old tenant dies without its counts ever being released (e.g. a
	// crashed reader); the slot moves on.
	if !tbl.acquire(newRef) {
		t.Fatal("live acquire blocked by a dead generation's count")
	}
	// And the stale reader's release is a harmless no-op now.
	tbl.release(oldRef)
	if tbl.tryClaim(newRef) {
		t.Fatal("claim succeeded despite the live count")
	}
	tbl.release(newRef)
	if !tbl.tryClaim(newRef) {
		t.Fatal("claim failed with zero count")
	}
}
