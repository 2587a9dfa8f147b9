package fault

import (
	"sync/atomic"
	"testing"
	"time"

	"qsense/internal/mem"
	"qsense/internal/reclaim"
	"qsense/internal/rooster"
)

// The scheme x fault robustness matrix: one reader stalled forever at its
// scheme's most damaging sync point while healthy goroutines drive a retire
// storm. The paper's central robustness claim becomes a test oracle:
//
//   - pointer/interval/batch schemes (hp, cadence, qsense, rc, ibr,
//     hyaline) must keep Stats().Pending under a ceiling derived from
//     R, Q, C and the storm size — the stalled reader pins only what it
//     actually protects;
//   - pure epoch schemes (qsbr, ebr) must demonstrably EXCEED the same
//     ceiling — the stalled reader freezes the epoch and pins everything
//     (the negative control that proves the matrix can fail);
//   - qsense must additionally record Evictions > 0: the stalled reader is
//     detected as silent and expelled, after which the domain drains.
//
// After the storm the victim is released and every scheme — including the
// epoch ones — must drain back under the ceiling (recovery), proving the
// stall was the only thing pinning garbage.
//
// Matrix geometry (explicit R/C so the ceiling is deterministic under
// elastic growth):
const (
	mxWorkers = 8
	mxHPs     = 2
	mxQ       = 8
	mxR       = 96  // the default formula's value for 8x2, frozen
	mxC       = 128 // >= LegalC(113) for this geometry
	mxStorm   = 4   // healthy storm goroutines
)

// mxInterval is the rooster cadence for the tick-deferred schemes; the
// deferral window holds ~3 intervals of retires at the storm's rate, which
// the ceiling accounts for (rate-dependent term, added after the storm).
const mxInterval = 500 * time.Microsecond

// mxCeiling is the static part of the bound: per-guard unscanned backlog
// (R), limbo epochs (Q), hazard slots (HPs) across storm+victim+driver
// guards with generous slack, plus QSense's fallback threshold (C) twice
// over, plus a flat allowance for batch and orphan-list rounding.
func mxCeiling() int64 {
	return int64(4*(mxStorm+2)*(mxR+mxQ+mxHPs) + 2*mxC + 8192)
}

type matrixCase struct {
	scheme string
	point  reclaim.FaultPoint
	// robust: the scheme must hold Pending <= ceiling with the victim
	// stalled. False marks the negative control (must exceed it).
	robust bool
	// needRef: the victim's stall point is Protect, which needs a live
	// node to protect; the victim then pins exactly that node.
	needRef bool
	// rated: the ceiling gets the rooster-deferral rate term.
	rated bool
}

var matrixCases = []matrixCase{
	{scheme: "qsbr", point: reclaim.FaultQuiesce},
	{scheme: "ebr", point: reclaim.FaultQuiesce},
	{scheme: "hp", point: reclaim.FaultProtect, robust: true, needRef: true},
	{scheme: "cadence", point: reclaim.FaultProtect, robust: true, needRef: true, rated: true},
	{scheme: "qsense", point: reclaim.FaultQuiesce, robust: true, rated: true},
	{scheme: "rc", point: reclaim.FaultProtect, robust: true, needRef: true},
	{scheme: "ibr", point: reclaim.FaultProtect, robust: true, needRef: true},
	{scheme: "hyaline", point: reclaim.FaultInbox, robust: true},
}

func TestRobustnessMatrix(t *testing.T) {
	for _, tc := range matrixCases {
		t.Run(tc.scheme, func(t *testing.T) { runMatrixCase(t, tc) })
	}
}

// runMatrixCase stalls one victim, storms, asserts the scheme-appropriate
// bound, then releases the victim and asserts recovery.
func runMatrixCase(t *testing.T, tc matrixCase) {
	t.Helper()
	pool := mem.NewPool[fnode](mem.Config{MaxSlots: 1 << 18, Poison: true, Name: "matrix-" + tc.scheme})
	inj := New()
	cfg := reclaim.Config{
		Workers:        mxWorkers,
		HardMaxWorkers: 2 * mxWorkers,
		HPs:            mxHPs,
		Q:              mxQ,
		R:              mxR,
		C:              mxC,
		Free:           func(r mem.Ref) { pool.Free(r) },
		Era:            pool,
		Rooster:        rooster.Config{Interval: mxInterval},
		FaultHook:      inj.Hook(),
	}
	if tc.scheme == "qsense" {
		// The eviction extension: a reader silent for this long is treated
		// as crashed. Set only here so qsbr/ebr stay unbounded controls.
		cfg.EvictAfter = 50 * time.Millisecond
	}
	d, err := reclaim.New(tc.scheme, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// --- Stall the victim at the scheme's sync point. Determinism: the
	// trap is armed before the victim goroutine starts, and nothing else
	// is running the protocol yet, so the victim is the only candidate.
	vg, err := d.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	var held mem.Ref
	if tc.needRef {
		held, _ = pool.Alloc()
	}
	var stopVictim atomic.Bool
	victimDone := make(chan struct{})
	inj.StallNext(tc.point)
	go func() {
		defer close(victimDone)
		for !stopVictim.Load() {
			vg.Begin()
			if tc.needRef {
				vg.Protect(0, held)
			}
			vg.ClearHPs()
		}
		vg.ClearHPs()
		d.Release(vg)
	}()
	if _, ok := inj.AwaitStalled(10 * time.Second); !ok {
		t.Fatal("victim never reached the fault point")
	}

	// --- Storm from healthy goroutines while the victim stays parked.
	target := 5 * int(mxCeiling())
	res := RunStorm(d, PoolAlloc(pool), StormConfig{
		Workers: mxStorm,
		Target:  target,
		MinWall: 300 * time.Millisecond, // wall time for rooster/eviction clocks
	})
	if res.Walled {
		t.Fatalf("storm hit MaxWall at %d/%d retires", res.Retired, target)
	}

	ceil := mxCeiling()
	if tc.rated {
		// Tick-deferred schemes legitimately hold ~3 rooster intervals of
		// retires in flight; translate the storm's measured rate into nodes.
		rate := float64(res.Retired) / res.Elapsed.Seconds()
		ceil += int64(3 * mxInterval.Seconds() * rate)
	}

	st := d.Stats()
	if tc.robust {
		if st.Pending > ceil {
			t.Errorf("stalled reader pinned %d pending nodes, bound is %d (retired %d): scheme is NOT robust",
				st.Pending, ceil, res.Retired)
		}
	} else {
		// Negative control: the frozen epoch must pin essentially the
		// whole storm, proving the ceiling is a real discriminator.
		if st.Pending <= ceil {
			t.Errorf("negative control failed: pending %d stayed under ceiling %d — epoch scheme unexpectedly robust",
				st.Pending, ceil)
		}
		if st.Pending < int64(res.Retired)/2 {
			t.Errorf("negative control weaker than expected: pending %d of %d retired", st.Pending, res.Retired)
		}
	}
	if tc.scheme == "qsense" && st.Evictions == 0 {
		t.Errorf("qsense never evicted the silent reader (EvictAfter=%v, storm wall %v)", cfg.EvictAfter, res.Elapsed)
	}

	// --- Recovery: release the victim; every scheme must drain back under
	// the ceiling once the stall clears (epoch schemes included).
	stopVictim.Store(true)
	inj.Resume()
	inj.Disarm()
	select {
	case <-victimDone:
	case <-time.After(10 * time.Second):
		t.Fatal("victim did not exit after Resume")
	}
	if tc.needRef {
		pool.Free(held) // never retired; victim no longer protects it
	}

	dg, err := d.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	recovered := false
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		// Keep the protocol moving: quiescent states, era advances, scans.
		for i := 0; i < 2*(mxR+mxQ); i++ {
			dg.Begin()
			r, _ := pool.Alloc()
			dg.Retire(r)
			dg.ClearHPs()
		}
		if d.Stats().Pending <= ceil {
			recovered = true
			break
		}
		time.Sleep(2 * time.Millisecond) // let rooster ticks land
	}
	d.Release(dg)
	if !recovered {
		t.Errorf("pending %d never drained under %d after the victim was released", d.Stats().Pending, ceil)
	}
	t.Logf("%s: storm retired %d in %v; pending after storm %d (ceiling %d), evictions %d, stalls %d",
		tc.scheme, res.Retired, res.Elapsed.Round(time.Millisecond), st.Pending, ceil, st.Evictions, inj.Stalls())
}
