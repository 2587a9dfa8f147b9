// Package qsense_test regenerates every figure of the paper's evaluation
// (§7) as Go benchmarks, plus the fence-cost and deferral ablations. The
// figure benchmarks report throughput via the "Mops/s" metric — the y-axis
// of Figures 3 and 5; ns/op is not the interesting number there.
//
// Shapes to look for:
//
//	Fig3, Fig5Top:  none ≈ qsbr > qsense ≈ hp >> hp@model50ns, qsense 2-3x over the latter
//	Fig5Bottom:     qsbr FAILS (OOM) under stalls; qsense switches & survives
//
// hp is hazard pointers at what this machine charges for the publication
// store; hp@model50ns (harness.HPModelled) adds the paper's 2016 mfence as a
// modelled stall and is the curve the paper drew. Every benchmark that runs
// the model carries it in its sub-benchmark name.
package qsense_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"qsense"
	"qsense/internal/bst"
	"qsense/internal/fence"
	"qsense/internal/harness"
	"qsense/internal/list"
	"qsense/internal/mem"
	"qsense/internal/reclaim"
	"qsense/internal/rooster"
	"qsense/internal/skiplist"
	"qsense/internal/workload"
)

// benchThreads are the worker counts exercised per scheme (the paper sweeps
// 1..32 on 48 cores; adjust with the harness CLI for bigger machines).
var benchThreads = []int{1, 2, 4}

// runFigurePoint executes one fixed-duration harness run and reports the
// figure's metric. The run length is fixed (benchmark wall time, not b.N,
// is the budget that matters for a throughput experiment); b.N iterations
// are consumed trivially so the framework converges after one escalation.
func runFigurePoint(b *testing.B, cfg harness.Config) {
	b.Helper()
	cfg.Duration = 250 * time.Millisecond
	res, err := harness.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
	}
	b.ReportMetric(res.Mops, "Mops/s")
	b.ReportMetric(float64(res.Reclaim.Pending), "pending-nodes")
}

func scalabilityReclaim() reclaim.Config {
	return reclaim.Config{
		Q:       32,
		C:       1 << 20, // common case: no delays, stay on the fast path
		Rooster: rooster.Config{Interval: 2 * time.Millisecond},
	}
}

// BenchmarkFig3 — Figure 3: linked list, 2000 keys, 10% updates,
// None vs QSense vs HP (real and modelled).
func BenchmarkFig3(b *testing.B) {
	for _, scheme := range harness.Fig3(nil, 0).Schemes {
		for _, p := range benchThreads {
			b.Run(fmt.Sprintf("%s/p%d", scheme, p), func(b *testing.B) {
				runFigurePoint(b, harness.Config{
					DS: "list", Scheme: scheme, Workers: p,
					KeyRange: harness.PaperListRange, UpdatePct: 10,
					Reclaim: scalabilityReclaim(), Seed: 3,
				})
			})
		}
	}
}

// BenchmarkFig5Top — Figure 5 top row: list (2000 keys), skip list
// (20000 keys), BST (200k keys scaled; the paper uses 2M — pass
// -benchtime with cmd/qsense-bench -paper for the full size), 50% updates,
// None vs QSBR vs QSense vs HP (real and modelled).
func BenchmarkFig5Top(b *testing.B) {
	ranges := map[string]int64{
		"list":     harness.PaperListRange,
		"skiplist": harness.PaperSkipRange,
		"bst":      harness.DefaultBSTRange,
	}
	for _, ds := range harness.DataStructures() {
		for _, scheme := range harness.Fig5Top(ds, nil, 0, false).Schemes {
			for _, p := range benchThreads {
				b.Run(fmt.Sprintf("%s/%s/p%d", ds, scheme, p), func(b *testing.B) {
					if testing.Short() && ds == "bst" {
						b.Skip("bst fill is slow; skipped in -short")
					}
					runFigurePoint(b, harness.Config{
						DS: ds, Scheme: scheme, Workers: p,
						KeyRange: ranges[ds], UpdatePct: 50,
						Reclaim: scalabilityReclaim(), Seed: 5,
					})
				})
			}
		}
	}
}

// BenchmarkFig5Bottom — Figure 5 bottom row: 8 workers, 50% updates, one
// worker stalled half the time (compressed schedule), retired-node budget
// standing in for RAM. QSBR runs out of memory; QSense switches paths and
// survives; HP is robust, and slow where the paper's fence is modelled. The
// reported metrics show it: qsbr's "survived" metric is 0 and its Mops/s
// collapses.
func BenchmarkFig5Bottom(b *testing.B) {
	for _, ds := range harness.DataStructures() {
		for _, scheme := range harness.Fig5Bottom(ds, 0, 0).Schemes {
			b.Run(ds+"/"+scheme, func(b *testing.B) {
				if testing.Short() {
					b.Skip("delay schedule takes seconds; skipped in -short")
				}
				// One compressed stall cycle: worker 0 sleeps from
				// 0.3s to 2.5s of a 3s run (cmd/qsense-delays runs
				// the paper's full five-cycle schedule).
				plan := workload.DelayPlan{Worker: 0, Start: 300 * time.Millisecond,
					Duration: 2200 * time.Millisecond, Period: 10 * time.Second}
				kr := map[string]int64{"list": 2000, "skiplist": 20000, "bst": 50000}[ds]
				rc, err := harness.DelayReclaim(ds, 8, 0)
				if err != nil {
					b.Fatal(err)
				}
				cfg := harness.Config{
					DS: ds, Scheme: scheme, Workers: 8,
					KeyRange: kr, UpdatePct: 50,
					Duration: 3 * time.Second,
					Reclaim:  rc,
					Delays:   &plan, SampleEvery: 50 * time.Millisecond, Seed: 7,
				}
				res, err := harness.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				for i := 0; i < b.N; i++ {
				}
				b.ReportMetric(res.Mops, "Mops/s")
				survived := 1.0
				if res.Failed {
					survived = 0
				}
				b.ReportMetric(survived, "survived")
				b.ReportMetric(float64(res.Reclaim.SwitchesToFallback), "fallbacks")
				b.ReportMetric(float64(res.Reclaim.SwitchesToFast), "recoveries")
			})
		}
	}
}

// --- micro and ablation benchmarks ---

type benchNode struct {
	v uint64
	_ [48]byte
}

// curveDomain builds the domain a curve name stands for (harness.ParseCurve):
// a scheme, or hp with the modelled fence the name carries.
func curveDomain(b *testing.B, curve string, cfg reclaim.Config) reclaim.Domain {
	b.Helper()
	scheme, fenceCost, err := harness.ParseCurve(curve)
	if err != nil {
		b.Fatal(err)
	}
	cfg.FenceCost = fenceCost
	d, err := reclaim.New(scheme, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkProtect measures assign_HP per scheme — the paper's central
// per-node cost (§3.2): a no-op for QSBR, one sequentially consistent store
// for Cadence/QSense and for HP (in Go the store is the fence, so the three
// cost the same), and that store plus the paper's modelled mfence for
// hp@model50ns — the row that keeps the paper's number tracked.
func BenchmarkProtect(b *testing.B) {
	pool := mem.NewPool[benchNode](mem.Config{Name: "bench"})
	for _, scheme := range append(reclaim.Schemes(), harness.HPModelled) {
		b.Run(scheme, func(b *testing.B) {
			d := curveDomain(b, scheme, reclaim.Config{
				Workers: 1, HPs: 2, Free: func(r mem.Ref) { pool.Free(r) },
				ManualRooster: true,
			})
			defer d.Close()
			g := lease(b, d.Acquire)
			r, _ := pool.Alloc()
			defer pool.Free(r)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Protect(i&1, r)
			}
		})
	}
}

// BenchmarkFenceCost sweeps the modeled fence latency — the knob that
// converts "HP is slow" from assumption into measurement.
func BenchmarkFenceCost(b *testing.B) {
	for _, cost := range []time.Duration{0, 20 * time.Nanosecond, 50 * time.Nanosecond, 100 * time.Nanosecond} {
		b.Run(cost.String(), func(b *testing.B) {
			m := fence.NewModel(cost)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Full()
			}
		})
	}
}

// BenchmarkHPFenceAblation runs the Figure 3 list point (2 workers) with
// HP's modelled fence swept: plain hp pays only the publication store and
// its gap to QSense is the scan machinery; at 50ns it is the paper's penalty.
func BenchmarkHPFenceAblation(b *testing.B) {
	for _, curve := range []string{"hp", "hp@model20ns", harness.HPModelled, "hp@model100ns"} {
		b.Run(curve, func(b *testing.B) {
			runFigurePoint(b, harness.Config{
				DS: "list", Scheme: curve, Workers: 2,
				KeyRange: harness.PaperListRange, UpdatePct: 10,
				Reclaim: scalabilityReclaim(), Seed: 11,
			})
		})
	}
}

// BenchmarkRetire measures free_node_later + amortized reclamation per
// scheme: alloc+retire in a loop, steady state.
func BenchmarkRetire(b *testing.B) {
	for _, scheme := range reclaim.Schemes() {
		b.Run(scheme, func(b *testing.B) {
			pool := mem.NewPool[benchNode](mem.Config{Name: "bench"})
			d, err := reclaim.New(scheme, reclaim.Config{
				Workers: 1, HPs: 2, Free: func(r mem.Ref) { pool.Free(r) },
				Q: 32, R: 64,
				Rooster: rooster.Config{Interval: time.Millisecond},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			g := lease(b, d.Acquire)
			cache := pool.NewCache(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Begin()
				r, _ := cache.Alloc()
				g.Retire(r)
			}
			b.StopTimer()
			if scheme == "none" && b.N > 10 {
				b.ReportMetric(float64(pool.Stats().Live)/float64(b.N), "leaked/op")
			}
		})
	}
}

// BenchmarkScanThresholdR sweeps Cadence's scan threshold: small R scans
// often (low memory, high CPU), large R amortizes (the paper's R term in
// the N(K+T+R) bound).
func BenchmarkScanThresholdR(b *testing.B) {
	for _, r := range []int{16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("R%d", r), func(b *testing.B) {
			rc := reclaim.Config{Q: 32, R: r, Rooster: rooster.Config{Interval: 2 * time.Millisecond}}
			runFigurePoint(b, harness.Config{
				DS: "list", Scheme: "cadence", Workers: 2,
				KeyRange: 512, UpdatePct: 50, Reclaim: rc, Seed: 13,
			})
		})
	}
}

// BenchmarkQuiescenceQ sweeps QSBR's quiescence threshold (§3.1: "batching
// operations in this way boosts performance").
func BenchmarkQuiescenceQ(b *testing.B) {
	for _, q := range []int{1, 8, 32, 128} {
		b.Run(fmt.Sprintf("Q%d", q), func(b *testing.B) {
			rc := reclaim.Config{Q: q}
			runFigurePoint(b, harness.Config{
				DS: "list", Scheme: "qsbr", Workers: 2,
				KeyRange: 512, UpdatePct: 50, Reclaim: rc, Seed: 17,
			})
		})
	}
}

// BenchmarkRoosterInterval sweeps Cadence's T: longer intervals defer
// reclamation further (more pending memory) but flush less often.
func BenchmarkRoosterInterval(b *testing.B) {
	for _, t := range []time.Duration{500 * time.Microsecond, 2 * time.Millisecond, 8 * time.Millisecond} {
		b.Run(t.String(), func(b *testing.B) {
			rc := reclaim.Config{Q: 32, Rooster: rooster.Config{Interval: t}}
			runFigurePoint(b, harness.Config{
				DS: "list", Scheme: "cadence", Workers: 2,
				KeyRange: 512, UpdatePct: 50, Reclaim: rc, Seed: 19,
			})
		})
	}
}

// BenchmarkArenaAlloc compares pool allocation paths: the shared free list
// vs per-worker magazines (the allocator ablation).
func BenchmarkArenaAlloc(b *testing.B) {
	b.Run("direct", func(b *testing.B) {
		pool := mem.NewPool[benchNode](mem.Config{Name: "bench"})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r, _ := pool.Alloc()
			pool.Free(r)
		}
	})
	b.Run("magazine", func(b *testing.B) {
		pool := mem.NewPool[benchNode](mem.Config{Name: "bench"})
		c := pool.NewCache(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r, _ := c.Alloc()
			c.Free(r)
		}
	})
}

// BenchmarkPoolDeref prices the mem layer's read side, beside
// BenchmarkProtect for the reclaim layer: one dereference of a random one of
// 2^16 live slots, by walking the directory (Pool.Get — what a traversal pays
// for the first touch of a node) and by re-checking a slot already resolved
// (Resolved.Get — what it pays for every later use). Both check the
// generation; the difference is the directory walk.
func BenchmarkPoolDeref(b *testing.B) {
	const n = 1 << 16
	pool := mem.NewPool[benchNode](mem.Config{Name: "bench"})
	refs := make([]mem.Ref, n)
	slots := make([]mem.Resolved[benchNode], n)
	for i := range refs {
		refs[i], _ = pool.Alloc()
	}
	rand.New(rand.NewSource(29)).Shuffle(n, func(i, j int) { refs[i], refs[j] = refs[j], refs[i] })
	for i, r := range refs {
		slots[i] = pool.Resolve(r)
	}
	var sum uint64
	b.Run("resolve", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sum += pool.Get(refs[i&(n-1)]).v
		}
	})
	b.Run("recheck", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sum += slots[i&(n-1)].Get(refs[i&(n-1)]).v
		}
	})
	if sum != 0 {
		b.Fatal("benchNode values are zero")
	}
}

// BenchmarkListOps measures raw structure operation latency under the two
// paths QSense alternates between, for one worker (no contention). The
// ebr/ibr/hyaline points are the CI perf-smoke guard for the new scheme
// families: both must stay within 2x of ebr, the cheapest epoch baseline.
func BenchmarkListOps(b *testing.B) {
	for _, scheme := range []string{"qsbr", "cadence", "ebr", "ibr", "hyaline"} {
		b.Run(scheme, func(b *testing.B) {
			l := list.New(list.Config{})
			d, err := reclaim.New(scheme, reclaim.Config{
				Workers: 1, HPs: list.HPs, Free: l.FreeNode, Era: l.Pool(),
				Rooster: rooster.Config{Interval: 2 * time.Millisecond},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			h := l.NewHandle(lease(b, d.Acquire))
			for k := int64(0); k < 1000; k += 2 {
				h.Insert(k)
			}
			rng := workload.NewRNG(23)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := rng.Key(1000)
				switch i % 4 {
				case 0:
					h.Insert(k)
				case 1:
					h.Delete(k)
				default:
					h.Contains(k)
				}
			}
		})
	}
}

// BenchmarkTreeOps is BenchmarkListOps on the external BST: the same schemes,
// mix and key range, for one worker (no contention).
func BenchmarkTreeOps(b *testing.B) {
	for _, scheme := range []string{"qsbr", "cadence", "ebr", "ibr", "hyaline"} {
		b.Run(scheme, func(b *testing.B) {
			t := bst.New(bst.Config{})
			d, err := reclaim.New(scheme, reclaim.Config{
				Workers: 1, HPs: bst.HPs, Free: t.FreeNode, Era: t.Pool(),
				Rooster: rooster.Config{Interval: 2 * time.Millisecond},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			h := t.NewHandle(lease(b, d.Acquire))
			for k := int64(0); k < 1000; k += 2 {
				h.Insert(k)
			}
			rng := workload.NewRNG(23)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := rng.Key(1000)
				switch i % 4 {
				case 0:
					h.Insert(k)
				case 1:
					h.Delete(k)
				default:
					h.Contains(k)
				}
			}
		})
	}
}

// BenchmarkSkipListOps measures raw skip list operation latency — the
// structure with the paper's widest hazard pointer budget (2*levels+3,
// §7.3) and therefore the most protect/validate work per operation. qsbr
// is the protection-free ceiling; cadence, qsense and hp pay one
// publication per node visited plus two stores per operation (skiplist's
// TestPublicationsPerOp pins the count), so their distance to qsbr is the
// CI perf-smoke guard for search's slot discipline and, on the hp row, for
// the claim-then-link protocol's per-level claim CAS. hp@model50ns is hp
// with the paper's fence modelled on every one of those publications.
func BenchmarkSkipListOps(b *testing.B) {
	for _, scheme := range []string{"qsbr", "cadence", "qsense", "hp", harness.HPModelled} {
		b.Run(scheme, func(b *testing.B) {
			s := skiplist.New(skiplist.Config{Levels: 16})
			d := curveDomain(b, scheme, reclaim.Config{
				Workers: 1, HPs: skiplist.HPsFor(s.Levels()), Free: s.FreeNode,
				Rooster: rooster.Config{Interval: 2 * time.Millisecond},
			})
			defer d.Close()
			h := s.NewHandle(lease(b, d.Acquire), 1)
			for k := int64(0); k < 2000; k += 2 {
				h.Insert(k)
			}
			rng := workload.NewRNG(29)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := rng.Key(2000)
				switch i % 4 {
				case 0:
					h.Insert(k)
				case 1:
					h.Delete(k)
				default:
					h.Contains(k)
				}
			}
		})
	}
}

// BenchmarkScanAfterBurst is the occupancy-proportionality benchmark: the
// arena is grown past 1024 slots by a burst of simultaneous leases, drained
// back to a handful of live workers (parking the grown segments), and then
// the per-op reclamation cost of the survivors is measured. Pre-PR — before
// the active-slot index and segment parking — every scan and epoch-advance
// walked the full high-water arena (>= 2048 records per pass at this
// geometry); with the occupancy walk a pass visits only the live workers,
// so the reported scanned-records/op metric stays near live*passes/ops
// instead of scaling with the burst. That is a >100x per-pass reduction at
// this geometry, far past the 10x the acceptance bar asks for, and it is
// what keeps BenchmarkProtect/BenchmarkListOps/BenchmarkLeaseChurn (which
// never grow their arenas) untouched: a never-grown domain walks exactly
// the slots it always did.
func BenchmarkScanAfterBurst(b *testing.B) {
	const burst, live = 1500, 4 // burst grows the 8-slot arena to 2048
	for _, scheme := range reclaim.Schemes() {
		b.Run(scheme, func(b *testing.B) {
			pool := mem.NewPool[benchNode](mem.Config{Name: "bench"})
			cfg := reclaim.Config{
				Workers: 8, HPs: 2, Free: func(r mem.Ref) { pool.Free(r) },
				Q: 8, Rooster: rooster.Config{Interval: time.Millisecond},
			}
			d, err := reclaim.New(scheme, cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			burstGuards := make([]reclaim.Guard, burst)
			for i := range burstGuards {
				if burstGuards[i], err = d.Acquire(); err != nil {
					b.Fatal(err)
				}
			}
			for _, g := range burstGuards {
				d.Release(g)
			}
			guards := make([]reclaim.Guard, live)
			for i := range guards {
				if guards[i], err = d.Acquire(); err != nil {
					b.Fatal(err)
				}
			}
			cache := pool.NewCache(0)
			before := d.Stats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g := guards[i%live]
				g.Begin()
				r, _ := cache.Alloc()
				g.Retire(r)
			}
			b.StopTimer()
			st := d.Stats()
			b.ReportMetric(float64(st.ScannedRecords-before.ScannedRecords)/float64(b.N), "scanned/op")
			b.ReportMetric(float64(st.ArenaSize), "arena-slots")
			b.ReportMetric(float64(st.ParkedSlots), "parked-slots")
			for _, g := range guards {
				d.Release(g)
			}
		})
	}
}

// BenchmarkLeaseChurn measures one Acquire/operate/Release cycle per
// scheme with a warm, never-growing arena — the hot path the elastic
// redesign must not tax: when no growth occurs the segment directory adds
// at most one extra indirection per lease, so this stays within noise of
// the fixed-arena baseline.
func BenchmarkLeaseChurn(b *testing.B) {
	for _, scheme := range reclaim.Schemes() {
		b.Run(scheme, func(b *testing.B) {
			pool := mem.NewPool[benchNode](mem.Config{Name: "bench"})
			d, err := reclaim.New(scheme, reclaim.Config{
				Workers: 4, HPs: 2, Free: func(r mem.Ref) { pool.Free(r) },
				Q: 32, R: 64,
				Rooster: rooster.Config{Interval: 2 * time.Millisecond},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			r, _ := pool.Alloc()
			defer pool.Free(r)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g, err := d.Acquire()
				if err != nil {
					b.Fatal(err)
				}
				g.Begin()
				g.Protect(0, r)
				g.ClearHPs()
				d.Release(g)
			}
		})
	}
}

// BenchmarkLeaseChurnParallel is BenchmarkLeaseChurn under PARALLEL churn:
// every goroutine hammers Acquire/Release on one freelist head — the path a
// server's connection churn takes. Run with -cpu=2 or more; on one core the
// goroutines time-slice and the benchmark reads like the serial one.
func BenchmarkLeaseChurnParallel(b *testing.B) {
	for _, scheme := range reclaim.Schemes() {
		b.Run(scheme, func(b *testing.B) {
			pool := mem.NewPool[benchNode](mem.Config{Name: "bench"})
			d, err := reclaim.New(scheme, reclaim.Config{
				Workers: 16, HPs: 2, Free: func(r mem.Ref) { pool.Free(r) },
				Q: 32, R: 64,
				Rooster: rooster.Config{Interval: 2 * time.Millisecond},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			r, _ := pool.Alloc()
			defer pool.Free(r)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					g, err := d.Acquire()
					if err != nil {
						panic(err) // elastic domain: Acquire cannot fail
					}
					g.Begin()
					g.Protect(0, r)
					g.ClearHPs()
					d.Release(g)
				}
			})
		})
	}
}

// BenchmarkSkipMapGet prices one GET of a leased MapHandle at the ruler's
// kv-read shape (2^18 keys, half of them stored, 64-byte values, qsense)
// under the two key streams that sit either side of the search fingers and
// the node index (skiplist package doc, "Fingers" and "Node index"). zipf is
// the mechanism: zipf(0.99) ranks scattered over the range, where a handle's
// 2^12 fingers answer 64 % of the stream (TestFingerHitRate: 672 551 of
// 1 Mi) with one node touch instead of a 24-node walk, and the list's 2^17
// index words answer most of the rest the same way (TestIndexHitRate, two
// handles in turn: fingers 670 838, index 154 324, walks 223 414). uniform
// is where the fingers miss: under 2 % of the stream finds its finger
// (16 216), the index answers 40 % (422 152: most present keys own their
// word) and the rest — every absent key among them — walks.
func BenchmarkSkipMapGet(b *testing.B) {
	const keys = 1 << 18
	for _, stream := range []struct {
		name  string
		theta float64
	}{{"zipf", 0.99}, {"uniform", 0}} {
		b.Run(stream.name, func(b *testing.B) {
			m, err := qsense.NewSkipMap(qsense.Options{Scheme: qsense.SchemeQSense})
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			h := lease(b, m.Acquire)
			defer h.Release()
			val := make([]byte, 64)
			for k := int64(0); k < keys; k += 2 {
				h.Put(k, val)
			}
			rng := workload.NewRNG(31)
			draws := make([]int64, 1<<20) // drawn outside the timer
			for i := range draws {
				draws[i] = rng.ZipfKey(keys, stream.theta) * 0x9E3779B1 % keys
			}
			var buf []byte
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf, _ = h.GetAppend(draws[i&(len(draws)-1)], buf[:0])
			}
		})
	}
}

// BenchmarkSkipMapMixed prices one operation of lib-mixed's mix — 50 % GET,
// 25 % SET, 25 % DEL — on a leased MapHandle over a half-filled 2^16-key map
// with 64-byte values, qsense, keys and operations drawn outside the timer.
// zipf exercises both of the writers' savings (skiplist package doc,
// "Fingers"; value.go's self shape): a DEL or SET of a hot key starts from
// the finger the last operation on it left, and a value too long to inline
// that was never overwritten is read from its own node. uniform mostly
// misses its fingers, so its delta is the self value's alone: one slot per
// insert, one retire per DEL, one publication less per GET of such a key.
func BenchmarkSkipMapMixed(b *testing.B) {
	const keys = 1 << 16
	for _, stream := range []struct {
		name  string
		theta float64
	}{{"zipf", 0.99}, {"uniform", 0}} {
		b.Run(stream.name, func(b *testing.B) {
			m, err := qsense.NewSkipMap(qsense.Options{Scheme: qsense.SchemeQSense})
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			h := lease(b, m.Acquire)
			defer h.Release()
			val := make([]byte, 64)
			for k := int64(0); k < keys; k += 2 {
				h.Put(k, val)
			}
			type op struct {
				key  int64
				kind uint64 // 0, 1: GET; 2: SET; 3: DEL
			}
			rng := workload.NewRNG(37)
			ops := make([]op, 1<<20) // drawn outside the timer
			for i := range ops {
				ops[i] = op{rng.ZipfKey(keys, stream.theta) * 0x9E3779B1 % keys, rng.Next() % 4}
			}
			var buf []byte
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				switch o := ops[i&(len(ops)-1)]; o.kind {
				case 2:
					h.Put(o.key, val)
				case 3:
					h.Delete(o.key)
				default:
					buf, _ = h.GetAppend(o.key, buf[:0])
				}
			}
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
