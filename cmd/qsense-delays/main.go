// qsense-delays reproduces the bottom row of the paper's Figure 5: eight
// workers at 50% updates, with one worker stalled for 10 seconds out of
// every 20 (scaled by -scale). QSBR exhausts its memory budget and dies;
// QSense falls back to Cadence and recovers; HP plods along — on the paper's
// hardware, which is the curve hp@model50ns; plain hp runs at what this
// machine charges for a fence and keeps pace with Cadence.
//
// Per-interval throughput prints as ASCII charts ('f' marks QSense fallback
// windows, 'X' marks failure). Like qsense-bench it is an exploratory
// driver: it writes no file, and a number meant to be compared across
// commits comes from the repository benchmark (benchmark/).
//
// Examples:
//
//	qsense-delays -ds list                  # 20s compressed schedule
//	qsense-delays -ds skiplist -scale 1     # the paper's full 100s run
//	qsense-delays -ds bst -chart=false      # the summary lines only
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"qsense/internal/harness"
)

func main() {
	var (
		ds    = flag.String("ds", "list", "data structure: list, skiplist, bst")
		scale = flag.Float64("scale", 0.2, "time scale: 1.0 = the paper's 100s schedule")
		limit = flag.Int("limit", 0, "retired-node budget standing in for RAM (0 = automatic: above QSense's 2NC bound, below one stall's backlog)")
		chart = flag.Bool("chart", true, "print ASCII charts")
		seed  = flag.Uint64("seed", 1, "workload seed")
	)
	flag.Parse()

	dc := harness.Fig5Bottom(*ds, *scale, *limit)
	dc.Seed = *seed
	total := time.Duration(float64(100*time.Second) * *scale)
	fmt.Printf("qsense-delays: %s, %d keys, 8 workers, %v total, worker 0 stalled %v/%v, GOMAXPROCS=%d\n",
		*ds, dc.KeyRange,
		total.Round(time.Second),
		time.Duration(float64(10*time.Second)**scale).Round(100*time.Millisecond),
		time.Duration(float64(20*time.Second)**scale).Round(100*time.Millisecond),
		runtime.GOMAXPROCS(0))

	results, err := harness.RunDelays(dc, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qsense-delays:", err)
		os.Exit(1)
	}

	if *chart {
		for _, scheme := range dc.Schemes {
			harness.RenderSeriesChart(os.Stdout, scheme, results[scheme], 50)
		}
	}

	// §7.3's fallback-window comparison: Cadence vs HP during stalls.
	if q, ok := results["qsense"]; ok {
		fast, fb := harness.FallbackWindows(q)
		fmt.Printf("\nqsense fast-path mean %.3f Mops/s, fallback (Cadence) mean %.3f Mops/s\n", fast, fb)
		for _, hp := range []string{"hp", harness.HPModelled} {
			var hpMean float64
			for _, s := range results[hp].Samples {
				hpMean += s.Mops / float64(len(results[hp].Samples))
			}
			if fb > 0 && hpMean > 0 {
				fmt.Printf("cadence (fallback) vs %s: %.2fx\n", hp, fb/hpMean)
			}
		}
		fmt.Printf("(the paper reports ~3x, on the hardware %s models)\n", harness.HPModelled)
	}
}
