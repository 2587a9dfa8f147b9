// cadence: the paper's fallback scheme used stand-alone (§5.1 notes
// "Cadence can be used either as part of QSense or as a stand-alone memory
// reclamation scheme"), here guarding the lock-free external BST.
//
// The demo shows the two mechanisms at work:
//
//  1. No fences: traversals publish hazard pointers with bare stores; the
//     rooster manager's periodic passes make them visible to scans.
//  2. Deferred reclamation keeps a sleeping reader safe: a reader parks on
//     a node mid-operation for a while; churn continues, the pending count
//     stays bounded, and the parked node is reclaimed only after release.
package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"qsense/internal/bst"
	"qsense/internal/reclaim"
	"qsense/internal/workload"
)

func main() {
	const workers = 4
	tree := bst.New(bst.Config{})
	dom, err := reclaim.NewCadence(reclaim.Config{
		Workers: workers,
		HPs:     bst.HPs,
		Free:    tree.FreeNode,
	})
	if err != nil {
		panic(err)
	}

	// The "slow reader" leases the first guard: it protects a node by
	// hand and sleeps, exactly the scenario of the paper's Figure 1.
	slowGuard, err := dom.Acquire()
	if err != nil {
		panic(err)
	}
	defer dom.Release(slowGuard)
	slowHandle := tree.NewHandle(slowGuard)
	slowHandle.Insert(42)

	var stop atomic.Bool
	var ops atomic.Uint64
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g, err := dom.Acquire()
			if err != nil {
				panic(err)
			}
			defer dom.Release(g)
			h := tree.NewHandle(g)
			rng := workload.NewRNG(uint64(w))
			for !stop.Load() {
				k := rng.Key(4096)
				h.Insert(k)
				h.Delete(k)
				ops.Add(2)
			}
		}(w)
	}

	for i := 0; i < 6; i++ {
		time.Sleep(250 * time.Millisecond)
		st := dom.Stats()
		fmt.Printf("t=%4dms  ops %8d  retired %8d  freed %8d  pending %5d  rooster passes %d\n",
			(i+1)*250, ops.Load(), st.Retired, st.Freed, st.Pending, st.RoosterPasses)
	}
	stop.Store(true)
	wg.Wait()

	st := dom.Stats()
	fmt.Printf("\nchurn complete: pending stayed bounded at %d while %d nodes were recycled —\n", st.Pending, st.Freed)
	fmt.Println("no traversal waited for a hazard pointer to become visible: in Go, Cadence and scheme \"hp\" issue")
	fmt.Println("the same XCHG per node; what Cadence removes is the wait, by flushing pending slots once per pass.")

	dom.Close()
	live := tree.Pool().Stats().Live
	fmt.Printf("after close: %d live nodes (tree members + 5 sentinels)\n", live)
}
