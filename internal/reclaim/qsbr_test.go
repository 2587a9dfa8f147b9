package reclaim

import (
	"testing"

	"qsense/internal/mem"
)

func newQSBR(t *testing.T, pool *mem.Pool[tnode], workers, q int, limit int) *QSBR {
	t.Helper()
	d, err := NewQSBR(Config{Workers: workers, HPs: 1, Free: freeInto(pool), Q: q, MemoryLimit: limit})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestQSBRSingleWorkerReclaimsAfterThreeQuiescentStates(t *testing.T) {
	// A node retired at local epoch e is freed when the global epoch
	// reaches e+3 (see the derivation on qsbrGuard.quiescent): a solo
	// worker needs three quiescent states.
	pool := newTestPool()
	d := newQSBR(t, pool, 1, 1, 0)
	g := acquire(t, d, 1)[0]
	r := allocNode(pool, 1)
	g.Retire(r)
	if pool.Valid(r) == false {
		t.Fatal("retire must not free immediately")
	}
	g.Begin()
	g.Begin()
	if !pool.Valid(r) {
		t.Fatal("two quiescent states must not be enough: a reader whose " +
			"critical section began at the retire epoch + 1 could still hold the node")
	}
	g.Begin()
	if pool.Valid(r) {
		t.Fatal("node must be freed once the global epoch is 3 past the retire epoch")
	}
	if d.Stats().Freed != 1 {
		t.Fatalf("freed = %d", d.Stats().Freed)
	}
}

func TestQSBRQuiescenceThresholdBatches(t *testing.T) {
	pool := newTestPool()
	d := newQSBR(t, pool, 1, 10, 0)
	g := acquire(t, d, 1)[0]
	base := d.Stats().QuiescentStates // after the lease: its join is a quiescent state
	g.Retire(allocNode(pool, 1))
	for i := 0; i < 9; i++ {
		g.Begin()
	}
	if d.Stats().QuiescentStates != base {
		t.Fatal("quiescent state declared before Q calls")
	}
	g.Begin() // 10th call
	if got := d.Stats().QuiescentStates - base; got != 1 {
		t.Fatalf("quiescent states = %d, want 1", got)
	}
}

func TestQSBRGracePeriodNeedsAllWorkers(t *testing.T) {
	pool := newTestPool()
	d := newQSBR(t, pool, 2, 1, 0)
	gs := acquire(t, d, 2)
	a, b := gs[0], gs[1]
	// Both quiesce once so everyone is at the global epoch.
	a.Begin()
	b.Begin()
	r := allocNode(pool, 1)
	a.Retire(r)
	// A quiesces many times, but B never does: the epoch advances at most
	// once more, and r must survive.
	for i := 0; i < 10; i++ {
		a.Begin()
	}
	if !pool.Valid(r) {
		t.Fatal("node freed although worker B never passed a quiescent state")
	}
	// Both quiesce in rounds: r must be reclaimed within a few rounds.
	for round := 0; round < 6 && pool.Valid(r); round++ {
		b.Begin()
		a.Begin()
	}
	if pool.Valid(r) {
		t.Fatal("node not freed after all workers quiesced repeatedly")
	}
}

func TestQSBRRetiredNodeNotFreedWhileReaderInCriticalSection(t *testing.T) {
	// The QSBR contract: a node retired at epoch e is freed only after
	// every worker quiesces; a reader that read the node before it was
	// retired and has not quiesced since keeps it alive.
	pool := newTestPool()
	d := newQSBR(t, pool, 2, 1, 0)
	gs := acquire(t, d, 2)
	writer, reader := gs[0], gs[1]
	writer.Begin()
	reader.Begin()
	r := allocNode(pool, 42)
	// Reader "holds" r (conceptually mid-operation, no quiescent state).
	writer.Retire(r)
	for i := 0; i < 6; i++ {
		writer.Begin()
		if !pool.Valid(r) {
			t.Fatal("node freed while reader had not quiesced")
		}
		if pool.Get(r).val != 42 { // the reader's access stays safe
			t.Fatal("node corrupted")
		}
	}
	// Reader finally quiesces in rounds with the writer: r must go.
	for round := 0; round < 6 && pool.Valid(r); round++ {
		reader.Begin()
		writer.Begin()
	}
	if pool.Valid(r) {
		t.Fatal("node still live after full grace periods")
	}
}

func TestQSBREpochAdvanceRoundRobin(t *testing.T) {
	pool := newTestPool()
	const workers = 4
	d := newQSBR(t, pool, workers, 1, 0)
	gs := acquire(t, d, workers)
	start := d.GlobalEpoch() // after the leases: a join is a quiescent state and may advance it
	for round := 0; round < 5; round++ {
		for _, g := range gs {
			g.Begin()
		}
	}
	if d.GlobalEpoch() < start+4 {
		t.Fatalf("epoch advanced only %d in 5 all-worker rounds", d.GlobalEpoch()-start)
	}
	if d.Stats().EpochAdvances == 0 {
		t.Fatal("no epoch advances recorded")
	}
}

func TestQSBRBlockingGrowsUnboundedAndFails(t *testing.T) {
	// §3.1's robustness problem: with one stalled worker, memory is never
	// reclaimed; with MemoryLimit set the domain reports failure —
	// the OOM emulation used by the Figure 5 (bottom) experiment.
	pool := newTestPool()
	const limit = 500
	d := newQSBR(t, pool, 2, 1, limit)
	gs := acquire(t, d, 2)
	active, stalled := gs[0], gs[1]
	stalled.Begin() // participates once, then stalls forever
	for i := 0; i < 2*limit; i++ {
		active.Begin()
		active.Retire(allocNode(pool, uint64(i)))
	}
	st := d.Stats()
	if st.Pending <= limit {
		t.Fatalf("pending = %d, expected growth past %d", st.Pending, limit)
	}
	if !d.Failed() {
		t.Fatal("domain must report Failed after exceeding MemoryLimit")
	}
	d.Close()
	if pool.Stats().Live != 0 {
		t.Fatal("Close must still drain everything")
	}
}

func TestQSBRCloseDrainsAllBuckets(t *testing.T) {
	pool := newTestPool()
	d := newQSBR(t, pool, 1, 1, 0)
	g := acquire(t, d, 1)[0]
	for i := 0; i < 10; i++ {
		g.Retire(allocNode(pool, uint64(i)))
		g.Begin()
	}
	d.Close()
	if live := pool.Stats().Live; live != 0 {
		t.Fatalf("leaked %d", live)
	}
	if st := d.Stats(); st.Pending != 0 {
		t.Fatalf("pending = %d after Close", st.Pending)
	}
}

func TestQSBRProtectIsNoOp(t *testing.T) {
	pool := newTestPool()
	d := newQSBR(t, pool, 1, 1, 0)
	g := acquire(t, d, 1)[0]
	r := allocNode(pool, 1)
	g.Protect(0, r) // must not prevent reclamation: QSBR ignores HPs
	g.Retire(r)
	g.Begin()
	g.Begin()
	g.Begin()
	if pool.Valid(r) {
		t.Fatal("Protect must not pin nodes under QSBR")
	}
	g.ClearHPs()
}

func TestQSBRBucketRotation(t *testing.T) {
	// Nodes retired in different epochs land in different buckets and are
	// freed in retirement order as epochs advance.
	pool := newTestPool()
	d := newQSBR(t, pool, 1, 1, 0)
	g := acquire(t, d, 1)[0]
	var refs []mem.Ref
	for e := 0; e < 3; e++ {
		r := allocNode(pool, uint64(e))
		g.Retire(r)
		refs = append(refs, r)
		g.Begin()
	}
	// refs[0] retired 3 advances ago: freed. refs[2] retired in the
	// current epoch: must be live.
	if pool.Valid(refs[0]) {
		t.Fatal("oldest bucket not freed")
	}
	if !pool.Valid(refs[2]) {
		t.Fatal("youngest bucket freed too early")
	}
}
