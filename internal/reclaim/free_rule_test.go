package reclaim

import (
	"testing"

	"qsense/internal/mem"
)

// TestReclamationPassAllocatesNothing: a reclamation pass runs on the
// retiring worker's own path, so it must not allocate — not for the
// snapshot's sort, and not for the free rule it sweeps with. Each pass runs
// with live protections published and (for the fence-free schemes) flushed,
// one protected node in the guard's own backlog and one in an orphan batch,
// so the snapshot, the sweep and the adoption all do real work.
func TestReclamationPassAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		scheme string
		pass   func(Guard)
	}{
		{"hp", func(g Guard) { g.(*hpGuard).scan() }},
		{"cadence", func(g Guard) { g.(*cadenceGuard).scan() }},
		{"qsense", func(g Guard) { g.(*qsenseGuard).scanAll() }}, // the fallback scan
		{"ibr", func(g Guard) { g.(*ibrGuard).scan() }},
		{"rc", func(g Guard) { g.(*rcGuard).sweep() }},
	} {
		t.Run(tc.scheme, func(t *testing.T) {
			pool := newTestPool()
			// R is out of reach: only the measured calls scan.
			cfg := Config{Workers: 3, HardMaxWorkers: 3, HPs: 2, Free: freeInto(pool), R: 1 << 20, ManualRooster: true}
			if tc.scheme == "qsense" {
				cfg.C = LegalC(cfg)
			}
			d, err := New(tc.scheme, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			step := func() {}
			switch dd := d.(type) {
			case *Cadence:
				step = dd.Rooster().Step
			case *QSense:
				step = dd.Rooster().Step
			}
			gs := acquire(t, d, 3)
			scanner, reader, leaver := gs[0], gs[1], gs[2]

			reader.Begin()
			held := [2]mem.Ref{allocNode(pool, 1), allocNode(pool, 2)}
			reader.Protect(0, held[0])
			reader.Protect(1, held[1])
			step() // flushed: the snapshot sees both protections
			scanner.Retire(held[0])
			leaver.Retire(held[1])
			d.Release(leaver) // the release scan keeps held[1]: orphaned
			if st := d.Stats(); st.OrphanedNodes != 1 {
				t.Fatalf("setup: %d nodes orphaned, want the protected one", st.OrphanedNodes)
			}
			for i := 0; i < 8; i++ {
				scanner.Retire(allocNode(pool, 100+uint64(i)))
			}
			step()
			step() // cadence and qsense: every retiree is old enough

			if n := testing.AllocsPerRun(100, func() { tc.pass(scanner) }); n != 0 {
				t.Fatalf("%s pass: %v allocations, want 0", tc.scheme, n)
			}
			if !pool.Valid(held[0]) || !pool.Valid(held[1]) {
				t.Fatal("a pass freed a protected node")
			}
			reader.ClearHPs()
		})
	}
}

// TestQSenseOrphanEitherPath: a QSense orphan batch carries both forms of
// evidence — the global epoch at release and each node's rooster tick — so
// whichever path the domain is on frees it. The epoch rule cannot help
// while a stalled peer freezes the epoch, and the tick rule cannot help
// while no rooster pass runs; each case below leaves exactly one rule
// able to free the batch, and the batch must be freed.
func TestQSenseOrphanEitherPath(t *testing.T) {
	const k = 4 // below C: the leaver alone never switches the path
	setup := func(t *testing.T) (*mem.Pool[tnode], *QSense, Guard, Guard, Guard) {
		t.Helper()
		pool := newTestPool()
		cfg := Config{Workers: 3, HardMaxWorkers: 3, HPs: 1, Q: 1, R: 1}
		cfg.C = LegalC(cfg) // 5
		d := newQSenseDomain(t, pool, cfg)
		t.Cleanup(d.Close)
		gs := acquire(t, d, 3)
		return pool, d, gs[0], gs[1], gs[2]
	}
	orphan := func(t *testing.T, pool *mem.Pool[tnode], d *QSense, leaver Guard) ([]mem.Ref, uint64) {
		t.Helper()
		refs := make([]mem.Ref, k)
		for i := range refs {
			refs[i] = allocNode(pool, uint64(i))
			leaver.Retire(refs[i])
		}
		d.Release(leaver)
		b := d.orphans.head.Load()
		if st := d.Stats(); st.OrphanedNodes != k || b == nil {
			t.Fatalf("setup: %d nodes orphaned, want %d", st.OrphanedNodes, k)
		}
		return refs, b.epoch
	}
	freed := func(t *testing.T, pool *mem.Pool[tnode], d *QSense, refs []mem.Ref) {
		t.Helper()
		if st := d.Stats(); st.AdoptedNodes != k {
			t.Fatalf("%d of %d orphans adopted: %+v", st.AdoptedNodes, k, st)
		}
		for _, r := range refs {
			if pool.Valid(r) {
				t.Fatalf("orphan %v still live", r)
			}
		}
	}

	// Orphaned on the fast path, then the stalled peer freezes the epoch:
	// only the tick rule can free the batch, by either of its adopters.
	for _, by := range []string{"fallback scan", "rooster pass"} {
		t.Run("fast-orphan/"+by, func(t *testing.T) {
			pool, d, active, stalled, leaver := setup(t)
			stalled.Begin() // participates once, then never quiesces again
			for i := 0; i < 3; i++ {
				active.Begin()
			}
			refs, stamp := orphan(t, pool, d, leaver)
			if d.InFallback() {
				t.Fatal("setup: orphaned in fallback")
			}
			// A hook runs inside its pass, before the tick moves, so after
			// two passes the hook has judged only ticks 0 and 1: the tick-0
			// orphans are not yet old to it, but are to a scan after the
			// second pass.
			d.Rooster().Step()
			d.Rooster().Step()
			if st := d.Stats(); st.AdoptedNodes != 0 {
				t.Fatalf("setup: %d orphans adopted before they were old enough", st.AdoptedNodes)
			}
			if by == "fallback scan" {
				for i := 0; !d.InFallback(); i++ {
					active.Begin()
					active.Retire(allocNode(pool, 100+uint64(i)))
				}
			} else {
				d.Rooster().Step()
			}
			if e := d.GlobalEpoch(); e >= stamp+3 {
				t.Fatalf("epoch %d matured the batch stamped %d: the peer did not stall it", e, stamp)
			}
			freed(t, pool, d, refs)
		})
	}

	// Orphaned in fallback, then the domain switches back: no rooster pass
	// ever runs, so only the epoch rule can free the batch.
	t.Run("fallback-orphan/quiescent states", func(t *testing.T) {
		pool, d, active, stalled, leaver := setup(t)
		stalled.Begin()
		for i := 0; !d.InFallback(); i++ {
			active.Retire(allocNode(pool, uint64(i)))
		}
		refs, _ := orphan(t, pool, d, leaver)
		stalled.Begin() // the stalled peer is back: presence
		active.Begin()  // every present worker seen: switch to the fast path
		if d.InFallback() {
			t.Fatal("setup: no switch back to the fast path")
		}
		for i := 0; i < 8 && d.Stats().AdoptedNodes < k; i++ {
			active.Begin()
			stalled.Begin()
		}
		if st := d.Stats(); st.RoosterPasses != 0 {
			t.Fatalf("%d rooster passes: the tick rule could have freed the batch", st.RoosterPasses)
		}
		freed(t, pool, d, refs)
	})
}
