package reclaim

import (
	"testing"

	"qsense/internal/mem"
)

func newQSenseDomain(t *testing.T, pool *mem.Pool[tnode], cfg Config) *QSense {
	t.Helper()
	cfg.Free = freeInto(pool)
	cfg.ManualRooster = true
	d, err := NewQSense(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestQSenseFastPathReclaimsLikeQSBR(t *testing.T) {
	// In the common case QSense is QSBR: wholesale frees on epoch
	// advance, no hazard-pointer scans, no rooster required.
	pool := newTestPool()
	d := newQSenseDomain(t, pool, Config{Workers: 1, HPs: 1, Q: 1})
	g := acquire(t, d, 1)[0]
	r := allocNode(pool, 1)
	g.Retire(r)
	g.Begin()
	g.Begin()
	if !pool.Valid(r) {
		t.Fatal("freed before the global epoch reached retire epoch + 3")
	}
	g.Begin()
	if pool.Valid(r) {
		t.Fatal("fast path failed to free after three epoch advances")
	}
	st := d.Stats()
	if st.Scans != 0 {
		t.Fatal("fast path must not run hazard-pointer scans")
	}
	if st.InFallback {
		t.Fatal("must start on the fast path")
	}
	if st.QuiescentStates == 0 || st.EpochAdvances == 0 {
		t.Fatalf("missing QSBR activity: %+v", st)
	}
	d.Close()
}

func TestQSenseFallbackTriggerAtC(t *testing.T) {
	// §5.2 step 1: a worker whose limbo lists reach C nodes raises the
	// fallback flag and immediately scans.
	pool := newTestPool()
	cfg := Config{Workers: 2, HPs: 1, Q: 1, R: 1}
	cfg.C = LegalC(cfg)
	d := newQSenseDomain(t, pool, cfg)
	gs := acquire(t, d, 2)
	active, stalled := gs[0], gs[1]
	stalled.Begin() // participates once, then stalls: quiescence impossible
	for i := 0; i < cfg.C-1; i++ {
		active.Retire(allocNode(pool, uint64(i)))
		if d.InFallback() {
			t.Fatalf("fallback before C (%d) retires: i=%d", cfg.C, i)
		}
	}
	active.Retire(allocNode(pool, 99)) // limbo total reaches C
	if !d.InFallback() {
		t.Fatal("fallback flag not raised at C retired nodes")
	}
	st := d.Stats()
	if st.SwitchesToFallback != 1 {
		t.Fatalf("switches to fallback = %d", st.SwitchesToFallback)
	}
	if st.Scans == 0 {
		t.Fatal("the switching worker must scan immediately (§5.2 step 2)")
	}
	d.Close()
}

func TestQSenseFallbackReclaimsDespiteStalledWorker(t *testing.T) {
	// The robustness headline: QSBR alone would leak forever here;
	// QSense keeps freeing through Cadence while a worker is stalled.
	pool := newTestPool()
	cfg := Config{Workers: 2, HPs: 1, Q: 1, R: 2}
	cfg.C = LegalC(cfg)
	d := newQSenseDomain(t, pool, cfg)
	gs := acquire(t, d, 2)
	active, stalled := gs[0], gs[1]
	stalled.Begin()
	for i := 0; i < cfg.C+10; i++ { // push past C into fallback
		active.Retire(allocNode(pool, uint64(i)))
	}
	if !d.InFallback() {
		t.Fatal("not in fallback")
	}
	d.Rooster().Step()
	d.Rooster().Step() // older retirees become old enough
	before := d.Stats().Freed
	for i := 0; i < 10; i++ {
		active.Retire(allocNode(pool, uint64(i)))
	}
	if d.Stats().Freed <= before {
		t.Fatal("fallback path did not reclaim despite the stalled worker")
	}
	d.Close()
	if pool.Stats().Live != 0 {
		t.Fatalf("leak: %d", pool.Stats().Live)
	}
}

func TestQSenseSwitchBackWhenAllActive(t *testing.T) {
	// §5.2 steps 3-4: presence flags bring the system home to QSBR.
	pool := newTestPool()
	cfg := Config{Workers: 2, HPs: 1, Q: 1, R: 1}
	cfg.C = LegalC(cfg)
	d := newQSenseDomain(t, pool, cfg)
	gs := acquire(t, d, 2)
	active, stalled := gs[0], gs[1]
	stalled.Begin()
	for i := 0; i < cfg.C+1; i++ {
		active.Retire(allocNode(pool, uint64(i)))
	}
	if !d.InFallback() {
		t.Fatal("setup: not in fallback")
	}
	// The stalled worker wakes up and declares itself active.
	stalled.Begin() // sets its presence flag (Q=1)
	active.Begin()  // sets its own, sees all active, switches back
	if d.InFallback() {
		t.Fatal("did not switch back to the fast path")
	}
	st := d.Stats()
	if st.SwitchesToFast != 1 {
		t.Fatalf("switches to fast = %d", st.SwitchesToFast)
	}
	// QSBR machinery must work again: epoch advances resume.
	eBefore := d.GlobalEpoch()
	for i := 0; i < 4; i++ {
		active.Begin()
		stalled.Begin()
	}
	if d.GlobalEpoch() <= eBefore {
		t.Fatal("epochs did not resume after recovery")
	}
	d.Close()
}

func TestQSensePresenceResetBlocksPrematureSwitchBack(t *testing.T) {
	// After a presence reset, one active worker alone must not conclude
	// that everyone is back.
	pool := newTestPool()
	cfg := Config{Workers: 2, HPs: 1, Q: 1, R: 1}
	cfg.C = LegalC(cfg)
	d := newQSenseDomain(t, pool, cfg)
	gs := acquire(t, d, 2)
	active, stalled := gs[0], gs[1]
	stalled.Begin()
	for i := 0; i < cfg.C+1; i++ {
		active.Retire(allocNode(pool, uint64(i)))
	}
	if !d.InFallback() {
		t.Fatal("setup: not in fallback")
	}
	stalled.Begin()        // wakes briefly, sets presence...
	stepToPresenceReset(d) // ...but the reset hook clears all flags
	active.Begin()         // sees presence[stalled] == false
	if !d.InFallback() {
		t.Fatal("switched back although the stalled worker is silent again")
	}
	d.Close()
}

func TestQSenseProtectionSurvivesPathSwitch(t *testing.T) {
	// §4.1: hazard pointers are maintained during the fast path so that
	// references held across the switch stay protected. A node protected
	// before the switch must survive fallback scans indefinitely.
	//
	// Two arms. "flushed": a rooster pass publishes the protection while
	// still on the fast path, so the fallback's snapshot sees it.
	// "unflushed" is Algorithm 2's interleaving on the hybrid: the
	// protection is still pending (in the "store buffer") when the node is
	// retired and the C-switch scans — no snapshot can see it, and only
	// deferral (the node is not old enough before a full pass) keeps it.
	for _, arm := range []struct {
		name    string
		flushed bool
	}{{"flushed", true}, {"unflushed", false}} {
		t.Run(arm.name, func(t *testing.T) {
			pool := newTestPool()
			cfg := Config{Workers: 2, HPs: 1, Q: 1, R: 1}
			cfg.C = LegalC(cfg)
			d := newQSenseDomain(t, pool, cfg)
			gs := acquire(t, d, 2)
			active, reader := gs[0], gs[1]
			reader.Begin()
			r := allocNode(pool, 7)
			reader.Protect(0, r) // published fence-free on the fast path
			if arm.flushed {
				d.Rooster().Step() // flushed while still in fast path
			}
			active.Retire(r)
			for i := 0; i < cfg.C+5; i++ { // force the switch and many scans
				active.Retire(allocNode(pool, uint64(i)))
			}
			if !d.InFallback() {
				t.Fatal("setup: not in fallback")
			}
			st := d.Stats()
			if st.SwitchesToFallback < 1 || st.Scans == 0 {
				t.Fatalf("setup: switches to fallback = %d, scans = %d", st.SwitchesToFallback, st.Scans)
			}
			if !arm.flushed && st.RoosterPasses != 0 {
				t.Fatalf("setup: %d rooster passes before the switch; the protection may have been flushed", st.RoosterPasses)
			}
			if !pool.Valid(r) {
				t.Fatal("the switch's scans freed a node whose protection no snapshot could see yet: deferral broken")
			}
			for s := 0; s < 4; s++ {
				d.Rooster().Step()
				active.Retire(allocNode(pool, uint64(s)))
			}
			if !pool.Valid(r) {
				t.Fatal("pre-switch protection lost across the path switch")
			}
			if pool.Get(r).val != 7 {
				t.Fatal("node corrupted")
			}
			// Release: the node drains like any Cadence retiree.
			reader.Protect(0, 0)
			for s := 0; s < 3; s++ {
				d.Rooster().Step()
				active.Retire(allocNode(pool, uint64(s)))
			}
			if pool.Valid(r) {
				t.Fatal("released node never reclaimed in fallback")
			}
			d.Close()
		})
	}
}

func TestQSenseLivenessBound2NC(t *testing.T) {
	// Property 4: with a legal C, at most 2NC retired nodes exist at any
	// time — even with a stalled worker. (The paper's bound assumes scan
	// backlogs bounded by the retire pacing; we pace with rooster steps.)
	pool := newTestPool()
	cfg := Config{Workers: 2, HPs: 1, Q: 2, R: 4}
	cfg.C = LegalC(cfg)
	d := newQSenseDomain(t, pool, cfg)
	gs := acquire(t, d, 2)
	active, stalled := gs[0], gs[1]
	stalled.Begin()
	bound := int64(2 * cfg.Workers * cfg.C)
	for step := 0; step < 200; step++ {
		for i := 0; i < 4; i++ {
			active.Begin()
			active.Retire(allocNode(pool, uint64(i)))
		}
		d.Rooster().Step()
		if p := d.Stats().Pending; p > bound {
			t.Fatalf("pending %d exceeded 2NC=%d at step %d", p, bound, step)
		}
	}
	if !d.InFallback() {
		t.Fatal("expected fallback under permanent stall")
	}
	d.Close()
}

func TestQSenseRepeatedSwitchCycles(t *testing.T) {
	// Figure 5 (bottom) alternates stall and recovery; the flag must
	// follow, repeatedly.
	pool := newTestPool()
	cfg := Config{Workers: 2, HPs: 1, Q: 1, R: 1}
	cfg.C = LegalC(cfg)
	d := newQSenseDomain(t, pool, cfg)
	gs := acquire(t, d, 2)
	active, flaky := gs[0], gs[1]
	flaky.Begin()
	for cycle := 0; cycle < 3; cycle++ {
		// Stall phase: drive into fallback.
		for i := 0; i < cfg.C+1 && !d.InFallback(); i++ {
			active.Retire(allocNode(pool, uint64(i)))
		}
		if !d.InFallback() {
			t.Fatalf("cycle %d: no fallback", cycle)
		}
		// Recovery phase.
		flaky.Begin()
		active.Begin()
		if d.InFallback() {
			t.Fatalf("cycle %d: no recovery", cycle)
		}
		// Let the fast path drain the backlog so the next cycle's
		// trigger count starts fresh.
		for i := 0; i < 4; i++ {
			active.Begin()
			flaky.Begin()
		}
	}
	st := d.Stats()
	if st.SwitchesToFallback != 3 || st.SwitchesToFast != 3 {
		t.Fatalf("switch counts = %d/%d, want 3/3", st.SwitchesToFallback, st.SwitchesToFast)
	}
	d.Close()
	if pool.Stats().Live != 0 {
		t.Fatalf("leak: %d", pool.Stats().Live)
	}
}

func TestQSenseQuiescenceBatchingQ(t *testing.T) {
	pool := newTestPool()
	d := newQSenseDomain(t, pool, Config{Workers: 1, HPs: 1, Q: 5})
	g := acquire(t, d, 1)[0]
	base := d.Stats().QuiescentStates // after the lease: its join is a quiescent state
	for i := 0; i < 4; i++ {
		g.Begin()
	}
	if d.Stats().QuiescentStates != base {
		t.Fatal("quiesced before Q calls")
	}
	g.Begin()
	if d.Stats().QuiescentStates != base+1 {
		t.Fatal("no quiescent state at Q calls")
	}
	d.Close()
}

func TestQSenseFallbackScanEveryR(t *testing.T) {
	pool := newTestPool()
	cfg := Config{Workers: 2, HPs: 1, Q: 1, R: 3}
	cfg.C = LegalC(cfg)
	d := newQSenseDomain(t, pool, cfg)
	gs := acquire(t, d, 2)
	active, stalled := gs[0], gs[1]
	stalled.Begin()
	for i := 0; i < cfg.C; i++ {
		active.Retire(allocNode(pool, uint64(i)))
	}
	scansAtSwitch := d.Stats().Scans
	if scansAtSwitch == 0 {
		t.Fatal("no scan at switch")
	}
	// In fallback, every R-th retire scans all three buckets.
	n := int(d.Stats().Retired)
	for i := 0; i < 3*cfg.R; i++ {
		active.Retire(allocNode(pool, uint64(i)))
		n++
	}
	if got := d.Stats().Scans; got <= scansAtSwitch {
		t.Fatalf("no periodic fallback scans (got %d)", got)
	}
	d.Close()
}
