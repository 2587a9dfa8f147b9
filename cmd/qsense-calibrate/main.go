// qsense-calibrate reports this machine's characteristics for the fence
// cost model (internal/fence): the calibrated spin-loop rate, the measured
// cost of atomic publication (what hp, Cadence and QSense all pay per hazard
// pointer store in Go — the store is the fence), and what a publication
// costs with a modelled stall added, at several stall lengths. Use it to
// read an hp@model<cost> curve (cmd/qsense-bench) against the mfence penalty
// of hardware you care about.
package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"qsense/internal/fence"
)

func main() {
	fmt.Printf("GOMAXPROCS=%d NumCPU=%d GOARCH=%s\n", runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.GOARCH)
	fmt.Printf("spin calibration: %.3f ns/iteration\n", fence.NsPerIteration())

	var slot atomic.Uint64
	const n = 2_000_000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		slot.Store(uint64(i))
	}
	per := time.Since(t0) / n
	fmt.Printf("atomic store (a publication under hp, cadence and qsense alike): %v\n", per)

	for _, cost := range []time.Duration{10 * time.Nanosecond, fence.DefaultCost, 100 * time.Nanosecond} {
		m := fence.NewModel(cost)
		t0 = time.Now()
		for i := 0; i < n; i++ {
			slot.Store(uint64(i))
			m.Full()
		}
		fmt.Printf("publication + modelled stall %-6v (hp@model%v): %v\n", cost, cost, time.Since(t0)/n)
	}
	fmt.Printf("\nno scheme pays a modelled fence by default: hp costs the atomic store above. The paper's %v mfence is spun only by the curves named hp@model%v (qsense-bench -figure …, the hp@model… benchmark rows).\n", fence.DefaultCost, fence.DefaultCost)
}
