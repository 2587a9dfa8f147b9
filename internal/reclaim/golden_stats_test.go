package reclaim

import (
	"fmt"
	"testing"
)

// goldenProject renders the Stats fields the literals below were captured
// over as one canonical string. Fields added later stay out of the
// projection, so the literals stay comparable: the domain core must remain
// byte-identical to the capture on every one of these fields.
func goldenProject(s Stats) string {
	return fmt.Sprintf(
		"ret=%d freed=%d pend=%d scans=%d scanned=%d quiesce=%d epochs=%d "+
			"tofall=%d tofast=%d evict=%d rejoin=%d acq=%d rel=%d "+
			"arena=%d hw=%d grows=%d parked=%d parks=%d unparks=%d "+
			"effR=%d effC=%d retR=%d retC=%d orph=%d adopt=%d "+
			"fall=%v passes=%d failed=%v",
		s.Retired, s.Freed, s.Pending, s.Scans, s.ScannedRecords,
		s.QuiescentStates, s.EpochAdvances,
		s.SwitchesToFallback, s.SwitchesToFast, s.Evictions, s.Rejoins,
		s.AcquiredHandles, s.ReleasedHandles,
		s.ArenaSize, s.HighWaterWorkers, s.ArenaGrowths,
		s.ParkedSlots, s.SegmentParks, s.SegmentUnparks,
		s.EffectiveR, s.EffectiveC, s.RRetunes, s.CRetunes,
		s.OrphanedNodes, s.AdoptedNodes,
		s.InFallback, s.RoosterPasses, s.Failed)
}

// goldenDrive runs a fixed, fully deterministic single-goroutine operation
// sequence against a fresh domain: one lease held throughout, a burst of
// leases that forces one arena growth, retire/advance churn with manual
// rooster steps, a Release that strands a backlog (orphan handoff), churn
// that adopts it, then full release (exercising segment parking) and Close.
func goldenDrive(t *testing.T, scheme string) (pre, post string) {
	t.Helper()
	pool := newTestPool()
	cfg := Config{
		Workers: 4, HardMaxWorkers: 16, HPs: 2, Q: 2, R: 8,
		ManualRooster: true,
		Free:          freeInto(pool),
	}
	if scheme == "qsense" {
		cfg.C = LegalC(cfg)
	}
	d, err := New(scheme, cfg)
	if err != nil {
		t.Fatal(err)
	}
	step := func() {
		switch dom := d.(type) {
		case *Cadence:
			dom.Rooster().Step()
		case *QSense:
			dom.Rooster().Step()
		}
	}

	// One lease held for the whole run (never released: acq ends one
	// ahead of rel). It sits on slot 0.
	g0 := acquire(t, d, 1)[0]
	g0.Begin()

	// Lease past Workers=4: the fifth Acquire grows the arena once.
	leases := make([]Guard, 5)
	for i := range leases {
		g, err := d.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		leases[i] = g
	}

	// Churn phase 1: every guard retires with interleaved advances/steps.
	for i := 0; i < 24; i++ {
		for _, g := range leases {
			g.Begin()
			r := allocNode(pool, uint64(i))
			g.Protect(0, r)
			g.Retire(r)
			g.Protect(0, 0)
		}
		g0.Begin()
		if i%6 == 0 {
			step()
		}
	}

	// Strand a backlog: leases[2] retires and releases before any grace
	// period elapses; its slot is not re-leased afterwards.
	for i := 0; i < 8; i++ {
		leases[2].Retire(allocNode(pool, 1000+uint64(i)))
	}
	d.Release(leases[2])

	// Churn phase 2: the survivors adopt the orphaned backlog.
	for i := 0; i < 24; i++ {
		for j, g := range leases {
			if j == 2 {
				continue
			}
			g.Begin()
			g.Retire(allocNode(pool, 2000+uint64(i)))
		}
		g0.Begin()
		if i%6 == 0 {
			step()
		}
	}

	// Full release in reverse order: the growth segment empties first,
	// exercising the parking low-water check.
	for j := len(leases) - 1; j >= 0; j-- {
		if j == 2 {
			continue
		}
		d.Release(leases[j])
	}

	pre = goldenProject(d.Stats())
	d.Close()
	post = goldenProject(d.Stats())
	return pre, post
}

// goldenStats holds the pre/post-Close projections captured by running
// goldenDrive on a single slot pool with a single orphan list.
// TestGoldenStats asserts the domain core reproduces them exactly.
//
// Provenance of the current literals: the original capture, moved by
// one stated delta when the drive's fixed worker became a lease (its
// positional Guard(0) was deleted with the pinned slot state). That one-line
// edit of the drive, run on the last commit that still had Guard(0), moves
// only: acq 5 -> 6 for all nine schemes (the held lease, never released);
// quiesce +1, epochs +1 and post-Close scanned +1 under qsbr and qsense (the
// join's solitary quiescent state advances the epoch, and its one-slot walk
// is residue until Close drains it); epochs +1 and post-Close scanned +1
// under ebr (the join's advance attempt, alone in the arena). Every other
// field of both projections is byte-identical to the earlier capture, and
// the lease-only kernel reproduces the edited parent's strings exactly.
var goldenStats = map[string][2]string{
	"none": {
		"ret=224 freed=0 pend=224 scans=0 scanned=0 quiesce=0 epochs=0 tofall=0 tofast=0 evict=0 rejoin=0 acq=6 rel=5 arena=8 hw=6 grows=1 parked=4 parks=1 unparks=0 effR=0 effC=0 retR=0 retC=0 orph=0 adopt=0 fall=false passes=0 failed=false",
		"ret=224 freed=0 pend=224 scans=0 scanned=0 quiesce=0 epochs=0 tofall=0 tofast=0 evict=0 rejoin=0 acq=6 rel=5 arena=8 hw=6 grows=1 parked=4 parks=1 unparks=0 effR=0 effC=0 retR=0 retC=0 orph=0 adopt=0 fall=false passes=0 failed=false",
	},
	"qsbr": {
		"ret=224 freed=204 pend=20 scans=0 scanned=143 quiesce=143 epochs=26 tofall=0 tofast=0 evict=0 rejoin=0 acq=6 rel=5 arena=8 hw=6 grows=1 parked=4 parks=1 unparks=0 effR=0 effC=0 retR=0 retC=0 orph=33 adopt=13 fall=false passes=0 failed=false",
		"ret=224 freed=224 pend=0 scans=0 scanned=144 quiesce=143 epochs=26 tofall=0 tofast=0 evict=0 rejoin=0 acq=6 rel=5 arena=8 hw=6 grows=1 parked=4 parks=1 unparks=0 effR=0 effC=0 retR=0 retC=0 orph=33 adopt=13 fall=false passes=0 failed=false",
	},
	"ebr": {
		"ret=224 freed=152 pend=72 scans=0 scanned=93 quiesce=0 epochs=12 tofall=0 tofast=0 evict=0 rejoin=0 acq=6 rel=5 arena=8 hw=6 grows=1 parked=4 parks=1 unparks=0 effR=8 effC=8192 retR=0 retC=0 orph=97 adopt=25 fall=false passes=0 failed=false",
		"ret=224 freed=224 pend=0 scans=0 scanned=98 quiesce=0 epochs=12 tofall=0 tofast=0 evict=0 rejoin=0 acq=6 rel=5 arena=8 hw=6 grows=1 parked=4 parks=1 unparks=0 effR=8 effC=8192 retR=0 retC=0 orph=97 adopt=25 fall=false passes=0 failed=false",
	},
	"hp": {
		"ret=224 freed=224 pend=0 scans=28 scanned=156 quiesce=0 epochs=0 tofall=0 tofast=0 evict=0 rejoin=0 acq=6 rel=5 arena=8 hw=6 grows=1 parked=4 parks=1 unparks=0 effR=8 effC=8192 retR=0 retC=0 orph=0 adopt=0 fall=false passes=0 failed=false",
		"ret=224 freed=224 pend=0 scans=28 scanned=156 quiesce=0 epochs=0 tofall=0 tofast=0 evict=0 rejoin=0 acq=6 rel=5 arena=8 hw=6 grows=1 parked=4 parks=1 unparks=0 effR=8 effC=8192 retR=0 retC=0 orph=0 adopt=0 fall=false passes=0 failed=false",
	},
	"cadence": {
		"ret=224 freed=180 pend=44 scans=33 scanned=210 quiesce=0 epochs=0 tofall=0 tofast=0 evict=0 rejoin=0 acq=6 rel=5 arena=8 hw=6 grows=1 parked=4 parks=1 unparks=0 effR=8 effC=8192 retR=0 retC=0 orph=63 adopt=19 fall=false passes=8 failed=false",
		"ret=224 freed=224 pend=0 scans=33 scanned=230 quiesce=0 epochs=0 tofall=0 tofast=0 evict=0 rejoin=0 acq=6 rel=5 arena=8 hw=6 grows=1 parked=4 parks=1 unparks=0 effR=8 effC=8192 retR=0 retC=0 orph=63 adopt=19 fall=false passes=8 failed=false",
	},
	"qsense": {
		"ret=224 freed=204 pend=20 scans=5 scanned=192 quiesce=143 epochs=26 tofall=0 tofast=0 evict=0 rejoin=0 acq=6 rel=5 arena=8 hw=6 grows=1 parked=4 parks=1 unparks=0 effR=8 effC=17 retR=0 retC=2 orph=33 adopt=13 fall=false passes=8 failed=false",
		"ret=224 freed=224 pend=0 scans=5 scanned=213 quiesce=143 epochs=26 tofall=0 tofast=0 evict=0 rejoin=0 acq=6 rel=5 arena=8 hw=6 grows=1 parked=4 parks=1 unparks=0 effR=8 effC=17 retR=0 retC=2 orph=33 adopt=13 fall=false passes=8 failed=false",
	},
	"rc": {
		"ret=224 freed=224 pend=0 scans=28 scanned=0 quiesce=0 epochs=0 tofall=0 tofast=0 evict=0 rejoin=0 acq=6 rel=5 arena=8 hw=6 grows=1 parked=4 parks=1 unparks=0 effR=8 effC=8192 retR=0 retC=0 orph=0 adopt=0 fall=false passes=0 failed=false",
		"ret=224 freed=224 pend=0 scans=28 scanned=0 quiesce=0 epochs=0 tofall=0 tofast=0 evict=0 rejoin=0 acq=6 rel=5 arena=8 hw=6 grows=1 parked=4 parks=1 unparks=0 effR=8 effC=8192 retR=0 retC=0 orph=0 adopt=0 fall=false passes=0 failed=false",
	},
	// ibr and hyaline were born later, so their goldens are the capture at
	// introduction rather than the original seed; they gate the same
	// property going forward (determinism of the drive and Stats-accounting
	// balance). The ibr strings were
	// re-captured when the era cadence became adaptive (eraQ relaxes under
	// the drive's narrow reservations, so far fewer epoch advances).
	"ibr": {
		"ret=224 freed=189 pend=35 scans=34 scanned=181 quiesce=0 epochs=26 tofall=0 tofast=0 evict=0 rejoin=0 acq=6 rel=5 arena=8 hw=6 grows=1 parked=4 parks=1 unparks=0 effR=8 effC=8192 retR=0 retC=0 orph=60 adopt=25 fall=false passes=0 failed=false",
		"ret=224 freed=224 pend=0 scans=34 scanned=186 quiesce=0 epochs=26 tofall=0 tofast=0 evict=0 rejoin=0 acq=6 rel=5 arena=8 hw=6 grows=1 parked=4 parks=1 unparks=0 effR=8 effC=8192 retR=0 retC=0 orph=60 adopt=25 fall=false passes=0 failed=false",
	},
	"hyaline": {
		"ret=224 freed=216 pend=8 scans=0 scanned=575 quiesce=0 epochs=0 tofall=0 tofast=0 evict=0 rejoin=0 acq=6 rel=5 arena=8 hw=6 grows=1 parked=4 parks=1 unparks=0 effR=0 effC=0 retR=0 retC=0 orph=18 adopt=10 fall=false passes=0 failed=false",
		"ret=224 freed=224 pend=0 scans=0 scanned=575 quiesce=0 epochs=0 tofall=0 tofast=0 evict=0 rejoin=0 acq=6 rel=5 arena=8 hw=6 grows=1 parked=4 parks=1 unparks=0 effR=0 effC=0 retR=0 retC=0 orph=18 adopt=10 fall=false passes=0 failed=false",
	},
}

// TestGoldenStats is the domain core's regression gate: the domain must be
// byte-identical in Stats to the captured literals across a deterministic
// drive of every scheme.
func TestGoldenStats(t *testing.T) {
	for _, scheme := range Schemes() {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			pre, post := goldenDrive(t, scheme)
			want, ok := goldenStats[scheme]
			if !ok {
				t.Fatalf("no golden for %s; captured:\n\tpre:  %q\n\tpost: %q", scheme, pre, post)
			}
			if pre != want[0] {
				t.Errorf("pre-Close stats diverged from the golden capture:\n\tgot:  %s\n\twant: %s", pre, want[0])
			}
			if post != want[1] {
				t.Errorf("post-Close stats diverged from the golden capture:\n\tgot:  %s\n\twant: %s", post, want[1])
			}
		})
	}
}
