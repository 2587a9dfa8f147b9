package harness

import (
	"testing"
	"time"

	"qsense/internal/reclaim"
	"qsense/internal/workload"
)

func TestDelayReclaimBudgetsAreConsistent(t *testing.T) {
	// For every structure: C legal, budget above 3x the 2NC bound of
	// Property 4 (so QSense can never trip the budget), presence of a
	// memory limit at all.
	for _, ds := range DataStructures() {
		rc, err := DelayReclaim(ds, 8, 0)
		if err != nil {
			t.Fatal(err)
		}
		hps, _ := HPsForDS(ds)
		legal := reclaim.LegalC(reclaim.Config{Workers: 8, HPs: hps, Q: rc.Q})
		if rc.C < legal {
			t.Errorf("%s: C=%d below legal %d", ds, rc.C, legal)
		}
		if rc.MemoryLimit < 3*2*8*rc.C {
			t.Errorf("%s: budget %d below 3x the 2NC bound %d", ds, rc.MemoryLimit, 2*8*rc.C)
		}
		if rc.MemoryLimit == 0 {
			t.Errorf("%s: no memory limit", ds)
		}
	}
	// Explicit limits pass through untouched.
	rc, err := DelayReclaim("list", 8, 777)
	if err != nil {
		t.Fatal(err)
	}
	if rc.MemoryLimit != 777 {
		t.Fatalf("explicit limit not honored: %d", rc.MemoryLimit)
	}
	if _, err := DelayReclaim("nope", 8, 0); err == nil {
		t.Fatal("unknown ds must error")
	}
}

func TestRunHashmapAllSchemes(t *testing.T) {
	// The bonus structure works through the harness under every scheme.
	for _, scheme := range reclaim.Schemes() {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			cfg := quickCfg("hashmap", scheme, 2)
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Ops == 0 {
				t.Fatal("no ops")
			}
			if scheme != "none" && res.Reclaim.Pending != 0 {
				t.Fatalf("pending %d after close", res.Reclaim.Pending)
			}
		})
	}
}

func TestHPsForHashmap(t *testing.T) {
	if n, err := HPsForDS("hashmap"); err != nil || n != 3 {
		t.Fatalf("hashmap HPs = %d, %v", n, err)
	}
}

func TestRunQSenseEvictionInHarness(t *testing.T) {
	// End-to-end: a permanently crashed worker, eviction enabled — the
	// run must finish on the fast path with the crash evicted.
	plan := permanentStall(10 * time.Millisecond)
	cfg := quickCfg("list", "qsense", 3)
	cfg.Duration = 1200 * time.Millisecond
	cfg.Reclaim.Q = 4
	cfg.Reclaim.R = 16
	cfg.Reclaim.C = reclaim.LegalC(reclaim.Config{Workers: 3, HPs: 3, Q: 4, R: 16})
	cfg.Reclaim.EvictAfter = 100 * time.Millisecond
	cfg.Delays = &plan
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatal("failed despite eviction")
	}
	if res.Reclaim.Evictions == 0 {
		t.Fatal("crashed worker never evicted")
	}
	if res.Reclaim.SwitchesToFast == 0 {
		t.Fatal("never recovered the fast path after eviction")
	}
}

func permanentStall(start time.Duration) (p workload.DelayPlan) {
	p.Worker = 0
	p.Start = start
	p.Duration = time.Hour
	p.Period = 2 * time.Hour
	return p
}
