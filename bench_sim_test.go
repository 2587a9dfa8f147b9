package qsense_test

import (
	"fmt"
	"sync"
	"testing"

	"qsense"
	"qsense/internal/sim/simexp"
	"qsense/internal/sim/simsmr"
)

// --- simulated-figure benchmarks (cycle domain) ---
//
// These are the TSO-machine counterparts of BenchmarkFig3/Fig5Top/
// Fig5Bottom: the same experiments executed on internal/sim, where fences
// cost explicit cycles and results are deterministic. The interesting
// metric is ops/Mcycle (simulated throughput); wall-clock ns/op only
// measures the simulator itself.

func runSimPoint(b *testing.B, cfg simexp.Config) {
	b.Helper()
	res := simexp.Run(cfg)
	if len(res.Errs) != 0 {
		b.Fatalf("simulated run faulted: %v", res.Errs)
	}
	for i := 0; i < b.N; i++ { // result comes from the fixed-length run above
	}
	b.ReportMetric(res.OpsPerMcycle, "ops/Mcycle")
	b.ReportMetric(float64(res.Machine.Fences), "fences")
	if res.Failed {
		b.ReportMetric(0, "survived")
	} else {
		b.ReportMetric(1, "survived")
	}
}

// BenchmarkSimFig3 regenerates Figure 3 in the cycle domain: list with 10%
// updates, none vs qsense vs hp, sweeping procs.
func BenchmarkSimFig3(b *testing.B) {
	for _, scheme := range []string{"none", "qsense", "hp"} {
		for _, procs := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/procs=%d", scheme, procs), func(b *testing.B) {
				runSimPoint(b, simexp.Config{
					Scheme: scheme, Procs: procs, KeyRange: 256,
					UpdatePct: 10, Duration: 2_000_000, Seed: uint64(procs),
				})
			})
		}
	}
}

// BenchmarkSimFig5Top regenerates one Figure 5 (top) panel in the cycle
// domain: 50% updates, all four schemes.
func BenchmarkSimFig5Top(b *testing.B) {
	for _, scheme := range []string{"none", "qsbr", "qsense", "hp"} {
		for _, procs := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("%s/procs=%d", scheme, procs), func(b *testing.B) {
				runSimPoint(b, simexp.Config{
					Scheme: scheme, Procs: procs, KeyRange: 256,
					UpdatePct: 50, Duration: 2_000_000, Seed: uint64(procs),
				})
			})
		}
	}
}

// BenchmarkSimFig5Bottom regenerates the path-switching experiment in the
// cycle domain (cmd/qsense-sim -exp fig5bottom runs the full series):
// qsbr's survived metric is 0, qsense switches and survives.
func BenchmarkSimFig5Bottom(b *testing.B) {
	for _, scheme := range []string{"qsbr", "qsense", "hp"} {
		b.Run(scheme, func(b *testing.B) {
			base, _ := simexp.Fig5Bottom(64, 8_000_000)
			base.Scheme = scheme
			base.Seed = 19
			base.MemoryLimit = 320
			base.SMR = func(c *simsmr.Config) {
				c.Q = 8
				c.R = 24
				c.C = 32
				c.PresenceWindow = 50_000
			}
			res := simexp.Run(base)
			if len(res.Errs) != 0 {
				b.Fatal(res.Errs)
			}
			for i := 0; i < b.N; i++ {
			}
			b.ReportMetric(res.OpsPerMcycle, "ops/Mcycle")
			if res.Failed {
				b.ReportMetric(0, "survived")
			} else {
				b.ReportMetric(1, "survived")
			}
			b.ReportMetric(float64(res.Reclaim.SwitchesToFallback), "fallbacks")
		})
	}
}

// BenchmarkSimRoosterSweep is the T ablation in the cycle domain: larger
// rooster intervals cost less preemption overhead but stretch the
// deferred-reclamation memory floor (MaxPending rises with T) — the
// Property 2 trade-off measured.
func BenchmarkSimRoosterSweep(b *testing.B) {
	for _, t := range []uint64{25_000, 50_000, 100_000, 400_000} {
		b.Run(fmt.Sprintf("T=%dk", t/1000), func(b *testing.B) {
			res := simexp.Run(simexp.Config{
				Scheme: "cadence", Procs: 4, KeyRange: 64, UpdatePct: 50,
				Duration: 2_000_000, Seed: 3, RoosterInterval: t,
				SampleCycles: 100_000,
			})
			if len(res.Errs) != 0 {
				b.Fatal(res.Errs)
			}
			for i := 0; i < b.N; i++ {
			}
			peak := 0
			for _, bk := range res.Buckets {
				if bk.MaxPending > peak {
					peak = bk.MaxPending
				}
			}
			b.ReportMetric(res.OpsPerMcycle, "ops/Mcycle")
			b.ReportMetric(float64(peak), "peak-pending")
		})
	}
}

// --- public-API container benchmarks ---

// benchContainer drives W workers over a container op loop and reports
// wall-clock throughput.
func benchContainer(b *testing.B, workers int, run func(w, n int)) {
	b.Helper()
	var wg sync.WaitGroup
	per := b.N/workers + 1
	b.ResetTimer()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			run(w, per)
		}(w)
	}
	wg.Wait()
}

// BenchmarkQueueThroughput: enqueue+dequeue pairs per scheme (2 workers).
func BenchmarkQueueThroughput(b *testing.B) {
	for _, scheme := range []qsense.Scheme{qsense.SchemeQSense, qsense.SchemeQSBR, qsense.SchemeHP, qsense.SchemeEBR, qsense.SchemeRC} {
		b.Run(string(scheme), func(b *testing.B) {
			q, err := qsense.NewQueue(qsense.Options{MaxWorkers: 2, Scheme: scheme})
			if err != nil {
				b.Fatal(err)
			}
			defer q.Close()
			hs := [2]qsense.QueueHandle{lease(b, q.Acquire), lease(b, q.Acquire)}
			benchContainer(b, 2, func(w, n int) {
				h := hs[w]
				for i := 0; i < n; i++ {
					h.Enqueue(uint64(i))
					h.Dequeue()
				}
			})
		})
	}
}

// BenchmarkStackThroughput: push+pop pairs per scheme (2 workers).
func BenchmarkStackThroughput(b *testing.B) {
	for _, scheme := range []qsense.Scheme{qsense.SchemeQSense, qsense.SchemeQSBR, qsense.SchemeHP, qsense.SchemeEBR, qsense.SchemeRC} {
		b.Run(string(scheme), func(b *testing.B) {
			s, err := qsense.NewStack(qsense.Options{MaxWorkers: 2, Scheme: scheme})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			hs := [2]qsense.StackHandle{lease(b, s.Acquire), lease(b, s.Acquire)}
			benchContainer(b, 2, func(w, n int) {
				h := hs[w]
				for i := 0; i < n; i++ {
					h.Push(uint64(i))
					h.Pop()
				}
			})
		})
	}
}

// BenchmarkSetTraversalBySchemes: the related-work ladder on one list
// point (2 workers, paper key range, 10% updates): rc's two RMWs per node
// sit below hp's fence, which sits below the epoch schemes — §8's cost
// ranking, measured.
func BenchmarkSetTraversalBySchemes(b *testing.B) {
	for _, scheme := range []qsense.Scheme{qsense.SchemeNone, qsense.SchemeQSBR, qsense.SchemeEBR, qsense.SchemeQSense, qsense.SchemeHP, qsense.SchemeRC} {
		b.Run(string(scheme), func(b *testing.B) {
			set, err := qsense.NewSet(qsense.Options{MaxWorkers: 2, Scheme: scheme})
			if err != nil {
				b.Fatal(err)
			}
			defer set.Close()
			hs := [2]qsense.SetHandle{lease(b, set.Acquire), lease(b, set.Acquire)}
			for k := int64(0); k < 2000; k += 2 {
				hs[0].Insert(k)
			}
			benchContainer(b, 2, func(w, n int) {
				h := hs[w]
				rng := uint64(w)*0x9E3779B9 + 1
				for i := 0; i < n; i++ {
					rng = rng*6364136223846793005 + 1442695040888963407
					k := int64(rng>>33) % 2000
					switch {
					case rng%100 < 5:
						h.Insert(k)
					case rng%100 < 10:
						h.Delete(k)
					default:
						h.Contains(k)
					}
				}
			})
		})
	}
}
