// qsense-calibrate reports this machine's characteristics for the fence
// cost model (internal/fence): the calibrated spin-loop rate, the measured
// cost of atomic publication (what every scheme pays per hazard pointer
// store in Go), and the effective cost of fenced publication at several
// modeled fence latencies. Use it to pick a -fence value comparable to the
// mfence penalty on hardware you care about.
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
	fmt.Printf("atomic store (unfenced publication, Cadence/QSense): %v\n", per)

	for _, cost := range []time.Duration{0, 10 * time.Nanosecond, fence.DefaultCost, 50 * time.Nanosecond, 100 * time.Nanosecond} {
		m := fence.NewModel(cost)
		t0 = time.Now()
		for i := 0; i < n; i++ {
			slot.Store(uint64(i))
			m.Full()
		}
		fmt.Printf("fenced publication, model %-6v (classic HP): %v\n", cost, time.Since(t0)/n)
	}
	fmt.Printf("\ndefault fence model: %v (the latency a hardware fence costs HP per Protect; Go's atomic store already orders, so internal/fence spins it)\n", fence.DefaultCost)
}
