package harness

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"qsense/internal/fence"
	"qsense/internal/reclaim"
	"qsense/internal/rooster"
	"qsense/internal/workload"
)

func quickCfg(ds, scheme string, workers int) Config {
	return Config{
		DS: ds, Scheme: scheme, Workers: workers,
		KeyRange: 128, UpdatePct: 50, Duration: 60 * time.Millisecond,
		Reclaim: reclaim.Config{Q: 8, Rooster: rooster.Config{Interval: time.Millisecond}},
		Seed:    42,
	}
}

func TestRunAllStructuresAllSchemes(t *testing.T) {
	for _, ds := range DataStructures() {
		for _, scheme := range reclaim.Schemes() {
			ds, scheme := ds, scheme
			t.Run(ds+"/"+scheme, func(t *testing.T) {
				res, err := Run(quickCfg(ds, scheme, 2))
				if err != nil {
					t.Fatal(err)
				}
				if res.Ops == 0 {
					t.Fatal("no operations performed")
				}
				if res.Mops <= 0 {
					t.Fatal("throughput not positive")
				}
				if scheme != "none" && res.Reclaim.Retired > 0 && res.Reclaim.Pending != 0 {
					t.Fatalf("pending %d after close", res.Reclaim.Pending)
				}
			})
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{DS: "list", Scheme: "qsbr", Workers: 0, KeyRange: 10}); err == nil {
		t.Fatal("zero workers must error")
	}
	if _, err := Run(Config{DS: "list", Scheme: "qsbr", Workers: 1, KeyRange: 1}); err == nil {
		t.Fatal("key range 1 must error")
	}
	if _, err := Run(quickCfgBad("nope", "qsbr")); err == nil {
		t.Fatal("unknown DS must error")
	}
	if _, err := Run(quickCfgBad("list", "nope")); err == nil {
		t.Fatal("unknown scheme must error")
	}
}

func quickCfgBad(ds, scheme string) Config {
	c := quickCfg(ds, scheme, 1)
	c.DS = ds
	c.Scheme = scheme
	return c
}

func TestHPsForDS(t *testing.T) {
	if n, _ := HPsForDS("list"); n != 3 {
		t.Fatalf("list HPs = %d", n)
	}
	if n, _ := HPsForDS("bst"); n != 6 {
		t.Fatalf("bst HPs = %d", n)
	}
	if n, _ := HPsForDS("skiplist"); n != 35 {
		t.Fatalf("skiplist HPs = %d (the paper's 'up to 35')", n)
	}
	if _, err := HPsForDS("nope"); err == nil {
		t.Fatal("unknown DS must error")
	}
}

func TestRunQSBRFailsUnderPermanentStall(t *testing.T) {
	// A worker stalled past the memory budget kills QSBR — the Figure 5
	// (bottom) orange line.
	plan := &workload.DelayPlan{Worker: 0, Start: 10 * time.Millisecond, Duration: time.Hour, Period: 2 * time.Hour}
	cfg := quickCfg("list", "qsbr", 3)
	cfg.Duration = 2 * time.Second
	cfg.Reclaim.MemoryLimit = 200
	cfg.Delays = plan
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed {
		t.Fatal("QSBR should have exhausted its memory budget")
	}
	if res.FailedAt == 0 {
		t.Fatal("failure time not recorded")
	}
}

func TestRunQSenseSurvivesStall(t *testing.T) {
	// Same scenario: QSense must switch to the fallback path and finish
	// within the same memory budget.
	plan := &workload.DelayPlan{Worker: 0, Start: 10 * time.Millisecond, Duration: time.Hour, Period: 2 * time.Hour}
	cfg := quickCfg("list", "qsense", 3)
	cfg.Duration = 1 * time.Second
	cfg.Reclaim.MemoryLimit = 100000
	cfg.Reclaim.Q = 4
	cfg.Reclaim.R = 16
	cfg.Reclaim.C = reclaim.LegalC(reclaim.Config{Workers: 3, HPs: 3, Q: 4, R: 16})
	cfg.Delays = plan
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatal("QSense must not fail under a stalled worker")
	}
	if res.Reclaim.SwitchesToFallback == 0 {
		t.Fatal("QSense never engaged the fallback path")
	}
	if res.Reclaim.Freed == 0 {
		t.Fatal("QSense reclaimed nothing")
	}
}

func TestRunTimeSeriesSampling(t *testing.T) {
	cfg := quickCfg("list", "qsbr", 2)
	cfg.Duration = 300 * time.Millisecond
	cfg.SampleEvery = 50 * time.Millisecond
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) < 3 {
		t.Fatalf("only %d samples", len(res.Samples))
	}
	var any bool
	for _, s := range res.Samples {
		if s.Mops > 0 {
			any = true
		}
	}
	if !any {
		t.Fatal("all samples zero")
	}
}

func TestRunScalabilityAndOverheads(t *testing.T) {
	sc := ScalabilityConfig{
		DS: "list", KeyRange: 64, UpdatePct: 50,
		Schemes: []string{"none", "qsense"},
		Workers: []int{1, 2}, Duration: 50 * time.Millisecond,
	}
	curves, err := RunScalability(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 2 || len(curves[0].Points) != 2 {
		t.Fatalf("unexpected shape: %d curves", len(curves))
	}
	ov := Overheads(curves)
	if _, ok := ov["qsense"]; !ok {
		t.Fatal("overheads missing qsense")
	}
	if SpeedupOver(curves, "none", "qsense") <= 0 {
		t.Fatal("speedup must be positive")
	}
}

func TestFigConfigs(t *testing.T) {
	f3 := Fig3([]int{1, 2}, time.Second)
	if f3.DS != "list" || f3.UpdatePct != 10 || f3.KeyRange != PaperListRange {
		t.Fatalf("Fig3 config wrong: %+v", f3)
	}
	if want := []string{"none", "qsense", "hp", HPModelled}; !slices.Equal(f3.Schemes, want) {
		t.Fatalf("Fig3 compares three schemes, hp at both prices: got %v, want %v", f3.Schemes, want)
	}
	for _, ds := range DataStructures() {
		f5 := Fig5Top(ds, []int{1}, time.Second, false)
		if want := []string{"none", "qsbr", "qsense", "hp", HPModelled}; f5.UpdatePct != 50 || !slices.Equal(f5.Schemes, want) {
			t.Fatalf("Fig5Top(%s) wrong: %+v", ds, f5)
		}
	}
	if Fig5Top("bst", nil, 0, true).KeyRange != PaperBSTRange {
		t.Fatal("paper scale must restore 2M keys")
	}
	fb := Fig5Bottom("skiplist", 0.2, 1000)
	if fb.Workers != 8 || fb.KeyRange != PaperSkipRange {
		t.Fatalf("Fig5Bottom wrong: %+v", fb)
	}
}

func TestParseCurve(t *testing.T) {
	if scheme, cost, err := ParseCurve(HPModelled); err != nil || scheme != "hp" || cost != fence.DefaultCost {
		t.Fatalf("ParseCurve(%q) = %q, %v, %v; want hp at fence.DefaultCost", HPModelled, scheme, cost, err)
	}
	for _, scheme := range reclaim.Schemes() {
		if got, cost, err := ParseCurve(scheme); err != nil || got != scheme || cost != 0 {
			t.Errorf("ParseCurve(%q) = %q, %v, %v; a plain scheme carries no model", scheme, got, cost, err)
		}
	}
	// Only hp reads FenceCost: a model on any other scheme's name, or one
	// that costs nothing, would label a curve with a price it never paid.
	for _, bad := range []string{"cadence@model50ns", "@model50ns", "hp@model", "hp@model0s", "hp@model-5ns", "hp@modelfast", "hpx", ""} {
		if scheme, cost, err := ParseCurve(bad); err == nil {
			t.Errorf("ParseCurve(%q) = %q, %v; want an error", bad, scheme, cost)
		}
	}
}

// TestFenceModelIsAlwaysNamed: a run pays the modelled fence only when its
// curve name says so, and the name reaches every output a figure has.
func TestFenceModelIsAlwaysNamed(t *testing.T) {
	res, err := Run(quickCfg("list", "hp", 1))
	if err != nil {
		t.Fatal(err)
	}
	if cost := res.Cfg.Reclaim.FenceCost; cost != 0 {
		t.Fatalf("plain hp ran with a %v fence model", cost)
	}
	unnamed := quickCfg("list", "hp", 1)
	unnamed.Reclaim.FenceCost = fence.DefaultCost
	if _, err := Run(unnamed); err == nil {
		t.Fatal("a fence model set beside the curve name, not through it, was accepted")
	}

	sc := Fig3([]int{1, 2}, 20*time.Millisecond)
	sc.KeyRange = 64
	var log bytes.Buffer
	curves, err := RunScalability(sc, &log)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, c := range curves {
		names = append(names, c.Scheme)
		for _, p := range c.Points {
			if cost := p.Res.Cfg.Reclaim.FenceCost; (cost > 0) != (c.Scheme == HPModelled) {
				t.Errorf("curve %q, %d workers: ran with FenceCost %v", c.Scheme, p.Workers, cost)
			}
		}
	}
	if !slices.Equal(names, sc.Schemes) {
		t.Fatalf("figure driver emitted %v, want %v", names, sc.Schemes)
	}

	var tbl bytes.Buffer
	RenderCurvesTable(&tbl, "fig3", curves)
	tblHeader := strings.Split(tbl.String(), "\n")[2] // blank, title, header
	var logNames []string
	for _, line := range strings.Split(strings.TrimSpace(log.String()), "\n") {
		if name := strings.Fields(line)[1]; !slices.Contains(logNames, name) {
			logNames = append(logNames, name)
		}
	}
	for _, out := range []struct {
		where string
		got   []string
	}{
		{"table header", strings.Fields(tblHeader)[1:]},
		{"progress log", logNames},
	} {
		if !slices.Equal(out.got, sc.Schemes) {
			t.Errorf("%s names %v, want %v", out.where, out.got, sc.Schemes)
		}
	}
}

func TestRenderCSVAndTable(t *testing.T) {
	curves := []Curve{
		{Scheme: "none", Points: []Point{{1, Result{Mops: 2}}, {2, Result{Mops: 4}}}},
		{Scheme: "hp", Points: []Point{{1, Result{Mops: 1}}, {2, Result{Mops: 2}}}},
	}
	var tbl bytes.Buffer
	RenderCurvesTable(&tbl, "test", curves)
	if !strings.Contains(tbl.String(), "overhead vs none") {
		t.Fatal("table missing overhead summary")
	}
	if !strings.Contains(tbl.String(), "hp 50.0%") {
		t.Fatalf("expected hp 50%% overhead, got:\n%s", tbl.String())
	}
}

func TestSeriesCSVAndChart(t *testing.T) {
	res := Result{Samples: []Sample{
		{T: time.Second, Mops: 3},
		{T: 2 * time.Second, Mops: 2, InFallback: true},
	}}
	var chart bytes.Buffer
	RenderSeriesChart(&chart, "qsense", res, 20)
	if !strings.Contains(chart.String(), "#") {
		t.Fatal("chart has no bars")
	}
	fast, fb := FallbackWindows(res)
	if fast != 3 || fb != 2 {
		t.Fatalf("window means = %v/%v", fast, fb)
	}
}

func TestFillReachesTarget(t *testing.T) {
	cfg := quickCfg("bst", "none", 1)
	cfg.KeyRange = 1000
	cfg.Duration = 20 * time.Millisecond
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	// Fill is validated indirectly: a BST run with fill must allocate at
	// least range/2 leaves (pool live after close includes leaks for
	// "none", so it is at least the fill size).
	if res.PoolLive < 500 {
		t.Fatalf("pool live %d suggests fill did not run", res.PoolLive)
	}
}

func TestRunLeasedMode(t *testing.T) {
	// Both ends of Config.LeaseEvery. Held (0): every worker leases once,
	// after the fill lease was returned, so the arena stays at the paper's
	// N — what LegalC and the §6 bound are computed from. Churned (1):
	// workers re-lease their guard every batch, so the run must record
	// lease churn. Either way the counters balance and every retiree is
	// drained at close.
	const workers = 2
	for _, scheme := range []string{"qsbr", "qsense", "hp"} {
		t.Run(scheme, func(t *testing.T) {
			for _, every := range []int{0, 1} {
				t.Run(fmt.Sprintf("every=%d", every), func(t *testing.T) {
					cfg := quickCfg("list", scheme, workers)
					cfg.LeaseEvery = every
					res, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if res.Ops == 0 {
						t.Fatal("no operations performed")
					}
					st := res.Reclaim
					if every == 0 {
						if st.AcquiredHandles != workers+1 {
							t.Fatalf("AcquiredHandles = %d, want the fill lease plus one per worker (%d)", st.AcquiredHandles, workers+1)
						}
						if st.ArenaSize != workers {
							t.Fatalf("ArenaSize = %d: the arena grew past the paper's N = %d", st.ArenaSize, workers)
						}
					} else if st.AcquiredHandles < workers+1 {
						t.Fatalf("AcquiredHandles = %d: workers did not lease", st.AcquiredHandles)
					}
					if st.AcquiredHandles != st.ReleasedHandles {
						t.Fatalf("leases leaked: %d acquired vs %d released", st.AcquiredHandles, st.ReleasedHandles)
					}
					if st.Retired > 0 && st.Pending != 0 {
						t.Fatalf("pending %d after close", st.Pending)
					}
				})
			}
		})
	}
}

func TestRunLeaseChurn(t *testing.T) {
	out, err := RunLeaseChurn("list", []string{"qsbr"}, 2, 1, 128, 60*time.Millisecond, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Scheme != "qsbr" {
		t.Fatalf("unexpected results: %+v", out)
	}
	if out[0].Held.Ops == 0 || out[0].Churned.Ops == 0 {
		t.Fatalf("empty runs: held %d ops, churned %d ops", out[0].Held.Ops, out[0].Churned.Ops)
	}
	if held, churned := out[0].Held.Reclaim.AcquiredHandles, out[0].Churned.Reclaim.AcquiredHandles; churned <= held {
		t.Fatalf("churned run leased %d times, no more than the held run's %d", churned, held)
	}
}
