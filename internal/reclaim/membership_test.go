package reclaim

import (
	"testing"
	"time"

	"qsense/internal/mem"
)

func TestQSBRLeaveUnblocksReclamation(t *testing.T) {
	// Without Leave, a silent worker freezes the epoch (see
	// TestQSBRBlockingGrowsUnboundedAndFails). With Leave, the remaining
	// worker reclaims alone.
	pool := newTestPool()
	d := newQSBR(t, pool, 2, 1, 0)
	gs := acquire(t, d, 2)
	active, idle := gs[0], gs[1]
	idle.Begin()
	r := allocNode(pool, 1)
	active.Retire(r)
	idle.(Leaver).Leave() // announces: holding nothing, going away
	for i := 0; i < 6 && pool.Valid(r); i++ {
		active.Begin()
	}
	if pool.Valid(r) {
		t.Fatal("epoch frozen although the idle worker left")
	}
	d.Close()
}

func TestQSBRJoinResumesParticipation(t *testing.T) {
	// After Join the worker blocks grace periods again: the protocol
	// must wait for it exactly as before.
	pool := newTestPool()
	d := newQSBR(t, pool, 2, 1, 0)
	gs := acquire(t, d, 2)
	active, flaky := gs[0], gs[1]
	flaky.(Leaver).Leave()
	active.Begin() // advances freely while flaky is away
	active.Begin()
	flaky.(Leaver).Join()
	r := allocNode(pool, 1)
	active.Retire(r)
	for i := 0; i < 10; i++ {
		active.Begin()
	}
	if !pool.Valid(r) {
		t.Fatal("node freed although the rejoined worker never quiesced")
	}
	// Once it participates, reclamation completes.
	for i := 0; i < 6 && pool.Valid(r); i++ {
		flaky.Begin()
		active.Begin()
	}
	if pool.Valid(r) {
		t.Fatal("node not freed after rejoined worker quiesced")
	}
	d.Close()
}

func TestQSBRLeaveFreesOwnBacklogOnRejoin(t *testing.T) {
	// Nodes the leaver retired age out while it is away (other workers
	// advance the epoch); Join frees them wholesale. A Join after Leave
	// is the quiet re-entry, not a recovery: Rejoins stays 0.
	pool := newTestPool()
	d := newQSBR(t, pool, 2, 1, 0)
	gs := acquire(t, d, 2)
	active, leaver := gs[0], gs[1]
	r := allocNode(pool, 1)
	leaver.Retire(r)
	leaver.(Leaver).Leave()
	for i := 0; i < 8; i++ { // >= 3 epoch advances while away
		active.Begin()
	}
	if !pool.Valid(r) {
		t.Fatal("leaver's backlog freed before it rejoined (buckets are guard-local)")
	}
	leaver.(Leaver).Join()
	if pool.Valid(r) {
		t.Fatal("aged-out backlog not freed on Join")
	}
	if d.Stats().Rejoins != 0 {
		t.Fatalf("rejoins = %d", d.Stats().Rejoins)
	}
	d.Close()
}

func TestQSBREvictionRecoversFromCrash(t *testing.T) {
	// The paper's sketch: a crashed worker is evicted after EvictAfter
	// of silence, and reclamation resumes without it.
	pool := newTestPool()
	d, err := NewQSBR(Config{Workers: 2, HPs: 1, Free: freeInto(pool), Q: 1,
		EvictAfter: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	gs := acquire(t, d, 2)
	active, crashed := gs[0], gs[1]
	crashed.Begin() // alive once, then crashes silently
	r := allocNode(pool, 1)
	active.Retire(r)
	deadline := time.Now().Add(2 * time.Second)
	for pool.Valid(r) && time.Now().Before(deadline) {
		active.Begin()
		time.Sleep(time.Millisecond)
	}
	if pool.Valid(r) {
		t.Fatal("eviction did not unblock reclamation")
	}
	if d.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d", d.Stats().Evictions)
	}
	// The "crashed" worker restarts: its first quiescent state rejoins.
	crashed.Begin()
	if d.Stats().Rejoins != 1 {
		t.Fatalf("rejoins = %d", d.Stats().Rejoins)
	}
	// And it participates again: it can block a grace period.
	r2 := allocNode(pool, 2)
	active.Retire(r2)
	for i := 0; i < 6; i++ {
		active.Begin()
	}
	if !pool.Valid(r2) {
		t.Fatal("rejoined worker ignored by grace periods")
	}
	d.Close()
}

func TestQSenseEvictionRestoresFastPathAfterCrash(t *testing.T) {
	// §5.2: "if a process crashes and never recovers, QSense will switch
	// to fallback mode and stay there forever" — unless eviction is
	// enabled. The crashed worker is evicted; presence scanning then
	// ignores it; the system returns to (and stays on) the fast path.
	pool := newTestPool()
	cfg := Config{Workers: 2, HPs: 1, Q: 1, R: 1, Free: freeInto(pool),
		ManualRooster: true, EvictAfter: 20 * time.Millisecond}
	cfg.C = LegalC(cfg)
	d, err := NewQSense(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gs := acquire(t, d, 2)
	active, crashed := gs[0], gs[1]
	alive := time.Now() // taken before the stamp: an upper bound on the silence
	crashed.Begin()     // alive once, then crashes
	for i := 0; i < cfg.C+1; i++ {
		active.Retire(allocNode(pool, uint64(i)))
	}
	if !d.InFallback() {
		t.Fatal("setup: not in fallback")
	}
	stepToPresenceReset(d) // the crashed worker's stale flag clears
	active.Begin()
	// Checked only while the eviction window is provably still open: on a
	// loaded machine the set-up above can outlast EvictAfter, and the
	// eviction is then legitimate.
	if time.Since(alive) < cfg.EvictAfter && !d.InFallback() {
		t.Fatal("switched back while the crashed worker still counted " +
			"(eviction window has not elapsed yet)")
	}
	// Without eviction this would loop forever; with it, the presence
	// scan evicts the stale worker and the switch-back proceeds.
	time.Sleep(25 * time.Millisecond) // exceed EvictAfter
	deadline := time.Now().Add(2 * time.Second)
	for d.InFallback() && time.Now().Before(deadline) {
		active.Begin()
		d.Rooster().Step()
	}
	if d.InFallback() {
		t.Fatal("never recovered the fast path after the crash")
	}
	if d.Stats().Evictions == 0 {
		t.Fatal("no eviction recorded")
	}
	// Fast path works solo: retire + quiesce reclaims.
	r := allocNode(pool, 9)
	active.Retire(r)
	for i := 0; i < 8 && pool.Valid(r); i++ {
		active.Begin()
	}
	if pool.Valid(r) {
		t.Fatal("solo fast path does not reclaim after eviction")
	}
	d.Close()
}

func TestQSenseLeaveAllowsSwitchBack(t *testing.T) {
	// A worker that announces Leave (rather than crashing) immediately
	// stops counting toward presence: switch-back needs no eviction.
	pool := newTestPool()
	cfg := Config{Workers: 2, HPs: 1, Q: 1, R: 1, Free: freeInto(pool), ManualRooster: true}
	cfg.C = LegalC(cfg)
	d, err := NewQSense(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gs := acquire(t, d, 2)
	active, leaver := gs[0], gs[1]
	leaver.Begin()
	for i := 0; i < cfg.C+1; i++ {
		active.Retire(allocNode(pool, uint64(i)))
	}
	if !d.InFallback() {
		t.Fatal("setup: not in fallback")
	}
	leaver.(Leaver).Leave()
	active.Begin() // presence of the leaver no longer required
	if d.InFallback() {
		t.Fatal("switch-back blocked by a worker that left")
	}
	d.Close()
}

func TestEvictionDisabledByDefault(t *testing.T) {
	// Without EvictAfter, a silent worker is never evicted — slowness
	// must not be treated as crash unless opted in.
	pool := newTestPool()
	d := newQSBR(t, pool, 2, 1, 0)
	gs := acquire(t, d, 2)
	active, silent := gs[0], gs[1]
	silent.Begin()
	r := allocNode(pool, 1)
	active.Retire(r)
	for i := 0; i < 50; i++ {
		active.Begin()
		time.Sleep(time.Millisecond)
	}
	if !pool.Valid(r) {
		t.Fatal("node freed: worker was implicitly evicted")
	}
	if d.Stats().Evictions != 0 {
		t.Fatal("eviction happened without opt-in")
	}
	d.Close()
}

func TestLeaverInterfaceCoverage(t *testing.T) {
	// Epoch-based guards implement Leaver; per-node schemes do not need
	// membership and do not implement it.
	pool := newTestPool()
	free := freeInto(pool)
	mk := func(name string) Guard {
		d, err := New(name, Config{Workers: 1, HPs: 1, Free: free, ManualRooster: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Close)
		return acquire(t, d, 1)[0]
	}
	if _, ok := mk("qsbr").(Leaver); !ok {
		t.Fatal("qsbr guard must implement Leaver")
	}
	if _, ok := mk("qsense").(Leaver); !ok {
		t.Fatal("qsense guard must implement Leaver")
	}
	if _, ok := mk("hp").(Leaver); ok {
		t.Fatal("hp guard must not implement Leaver (wait-free already)")
	}
	if _, ok := mk("cadence").(Leaver); ok {
		t.Fatal("cadence guard must not implement Leaver")
	}
	_ = mem.Ref(0)
}
