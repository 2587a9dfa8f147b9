// qsense-bench reproduces the paper's scalability experiments: Figure 3
// (linked list, 10% updates, None vs QSense vs HP) and the top row of
// Figure 5 (list / skip list / BST at 50% updates, None vs QSBR vs QSense
// vs HP). It is an exploratory driver: results print as a progress log and
// aligned tables with §7.3-style overhead summaries, and no file is
// written. A number meant to be compared across commits comes from the
// repository benchmark (benchmark/, BENCHMARK.json), not from here.
//
// hp costs what this machine charges for its publication store. The figure
// presets add a second curve, hp@model50ns, that pays the paper's 2016
// mfence as a modelled stall on top — the curve the paper drew — and
// -schemes takes the same name; the log and every table carry it.
//
// It also hosts the leasing follow-up experiment: -experiment leasechurn
// runs each scheme twice over the same workload — one lease held per worker
// for the run vs short Acquire/Release leases — and reports the lease
// overhead and its epoch-advance interaction.
//
// Examples:
//
//	qsense-bench -figure 3
//	qsense-bench -figure 5top -ds skiplist -threads 1,2,4,8 -duration 2s
//	qsense-bench -figure 5top -ds bst -paper   # full 2M-key BST
//	qsense-bench -ds list -schemes qsbr,qsense -updates 30 -range 512
//	qsense-bench -ds skiplist -schemes qsbr,cadence,hp,hp@model50ns
//	qsense-bench -experiment leasechurn -ds list -threads 8 -leaseevery 1
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"qsense"
	"qsense/internal/harness"
)

func main() {
	var (
		figure  = flag.String("figure", "", `preset: "3" or "5top" (overrides ds/schemes/updates/range)`)
		ds      = flag.String("ds", "list", "data structure: list, skiplist, bst")
		schemes = flag.String("schemes", "none,qsbr,qsense,hp,ibr,hyaline",
			"comma-separated schemes (valid: "+strings.Join(qsense.SchemeNames(), ", ")+", and "+harness.HPModelled+")")
		threads    = flag.String("threads", "1,2,4,8", "comma-separated worker counts (paper: 1..32)")
		duration   = flag.Duration("duration", time.Second, "measurement time per point")
		updates    = flag.Int("updates", 50, "update percentage (rest are searches)")
		keyRange   = flag.Int64("range", 0, "key range (0 = the figure's default)")
		paper      = flag.Bool("paper", false, "use the paper's full parameters (2M-key BST)")
		seed       = flag.Uint64("seed", 1, "workload seed")
		experiment = flag.String("experiment", "", `extra experiment: "leasechurn"`)
		leaseEvery = flag.Int("leaseevery", 1, "leasechurn: 64-op batches per lease (1 = re-lease every batch)")
	)
	flag.Parse()

	workers, err := parseInts(*threads)
	if err != nil {
		fatal(err)
	}

	schemeList, err := parseSchemes(*schemes)
	if err != nil {
		fatal(err)
	}

	switch *experiment {
	case "leasechurn":
		runLeaseChurn(*ds, schemeList, workers, *leaseEvery, *keyRange, *paper, *duration, *seed)
		return
	case "":
	default:
		fatal(fmt.Errorf("unknown experiment %q (want leasechurn)", *experiment))
	}

	var sc harness.ScalabilityConfig
	switch *figure {
	case "3":
		sc = harness.Fig3(workers, *duration)
	case "5top":
		sc = harness.Fig5Top(*ds, workers, *duration, *paper)
	case "":
		sc = harness.ScalabilityConfig{
			DS: *ds, KeyRange: defaultRange(*ds, *paper), UpdatePct: *updates,
			Schemes: schemeList, Workers: workers, Duration: *duration,
		}
	default:
		fatal(fmt.Errorf("unknown figure %q (want 3 or 5top)", *figure))
	}
	if *keyRange > 0 {
		sc.KeyRange = *keyRange
	}
	sc.Seed = *seed

	fmt.Printf("qsense-bench: %s, %d keys, %d%% updates, %v per point, GOMAXPROCS=%d\n",
		sc.DS, sc.KeyRange, sc.UpdatePct, sc.Duration, runtime.GOMAXPROCS(0))
	curves, err := harness.RunScalability(sc, os.Stdout)
	if err != nil {
		fatal(err)
	}

	title := fmt.Sprintf("Throughput (Mops/s): %s, %d%% updates, range %d", sc.DS, sc.UpdatePct, sc.KeyRange)
	harness.RenderCurvesTable(os.Stdout, title, curves)
	if s := harness.SpeedupOver(curves, "qsense", "hp"); s > 0 {
		fmt.Printf("qsense vs hp: %.2fx (this machine's fence)\n", s)
	}
	if s := harness.SpeedupOver(curves, "qsense", harness.HPModelled); s > 0 {
		fmt.Printf("qsense vs %s: %.2fx (the paper's fence; it reports 2-3x)\n", harness.HPModelled, s)
	}
}

// runLeaseChurn drives the held-vs-churned lease comparison at each worker
// count and prints a per-scheme summary table.
func runLeaseChurn(ds string, schemes []string, workers []int, leaseEvery int, keyRange int64, paper bool, duration time.Duration, seed uint64) {
	if keyRange <= 0 {
		keyRange = defaultRange(ds, paper)
	}
	fmt.Printf("qsense-bench leasechurn: %s, %d keys, 50%% updates, lease every %d batch(es) of 64 ops, %v per run, GOMAXPROCS=%d\n",
		ds, keyRange, leaseEvery, duration, runtime.GOMAXPROCS(0))
	for _, w := range workers {
		fmt.Printf("-- %d workers --\n", w)
		results, err := harness.RunLeaseChurn(ds, schemes, w, leaseEvery, keyRange, duration, seed, os.Stdout)
		if err != nil {
			fatal(err)
		}
		for _, r := range results {
			if r.Churned.Reclaim.AcquiredHandles != r.Churned.Reclaim.ReleasedHandles {
				fmt.Printf("WARNING: %s leaked %d leases\n", r.Scheme,
					r.Churned.Reclaim.AcquiredHandles-r.Churned.Reclaim.ReleasedHandles)
			}
		}
	}
}

func defaultRange(ds string, paper bool) int64 {
	switch ds {
	case "skiplist":
		return harness.PaperSkipRange
	case "bst":
		if paper {
			return harness.PaperBSTRange
		}
		return harness.DefaultBSTRange
	default:
		return harness.PaperListRange
	}
}

// parseSchemes validates a comma-separated list of curve names (a scheme,
// or hp@model<cost>) against the library's registry, so a typo fails up
// front with the valid names instead of mid-sweep.
func parseSchemes(s string) ([]string, error) {
	var out []string
	for _, p := range strings.Split(s, ",") {
		curve := strings.TrimSpace(p)
		if _, _, err := harness.ParseCurve(curve); err != nil {
			return nil, err
		}
		out = append(out, curve)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, p := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad thread count %q", p)
		}
		out = append(out, n)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qsense-bench:", err)
	os.Exit(1)
}
