package reclaim

import (
	"context"
	"sync"
	"testing"

	"qsense/internal/mem"
)

// corePools reaches the sharded slot-pool façade behind any scheme — the
// white-box handle the shard tests use to assert per-shard occupancy and
// parking, which Stats only reports in aggregate.
func corePools(t *testing.T, d Domain) *shardedPool {
	t.Helper()
	switch dd := d.(type) {
	case *None:
		return dd.slots
	case *QSBR:
		return dd.slots
	case *EBR:
		return dd.slots
	case *HP:
		return dd.slots
	case *Cadence:
		return dd.slots
	case *QSense:
		return dd.slots
	case *RC:
		return dd.slots
	case *IBR:
		return dd.slots
	case *Hyaline:
		return dd.slots
	}
	t.Fatalf("corePools: unknown domain type %T", d)
	return nil
}

// coreOrphans reaches a scheme's per-shard orphan lists; nil for the leaky
// baseline, which has none.
func coreOrphans(d Domain) *shardedOrphans {
	switch dd := d.(type) {
	case *QSBR:
		return &dd.orphans
	case *EBR:
		return &dd.orphans
	case *HP:
		return &dd.orphans
	case *Cadence:
		return &dd.orphans
	case *QSense:
		return &dd.orphans
	case *RC:
		return &dd.orphans
	case *IBR:
		return &dd.orphans
	case *Hyaline:
		return &dd.orphans
	}
	return nil
}

// TestCrossShardStrandedBacklogIsAdopted is orphan_test.go's stranded-
// backlog scenario with the releasing and adopting guards pinned to
// DIFFERENT shards: Workers=2 over Shards=2 gives one slot per shard, so
// after the leaver Releases, its whole shard is vacant (live==0 — every
// walk and snapshot skips it outright) and stays vacant forever. The
// backlog sits on the vacant shard's orphan list; only the other shard's
// guard is ever driven, so Pending→0 proves the adoption sweeps cross
// shard boundaries even though the occupancy walks do not.
func TestCrossShardStrandedBacklogIsAdopted(t *testing.T) {
	const retires = 8
	for _, scheme := range Schemes() {
		t.Run(scheme, func(t *testing.T) {
			pool := newTestPool()
			cfg := Config{Workers: 2, HardMaxWorkers: 2, Shards: 2, HPs: 1, Free: freeInto(pool), Q: 1, R: 4, ManualRooster: true}
			if scheme == "qsense" {
				cfg.C = LegalC(cfg)
			}
			d, err := New(scheme, cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(d.Close)
			if st := d.Stats(); st.Shards != 2 {
				t.Fatalf("Shards = %d, want 2", st.Shards)
			}

			// Two slots, one per shard; the lease sweep hands out both.
			leaver, err := d.Acquire()
			if err != nil {
				t.Fatal(err)
			}
			helper, err := d.Acquire()
			if err != nil {
				t.Fatal(err)
			}
			ls, hs := SlotIndex(leaver)%2, SlotIndex(helper)%2
			if ls == hs {
				t.Fatalf("both guards on shard %d; want one per shard", ls)
			}

			// Same stranding setup as the single-shard test: epoch schemes
			// strand automatically, cadence/qsense via the old-enough rule
			// (manual rooster at tick 0), and HP/RC need the helper to hold
			// one node through the release scan.
			refs := make([]mem.Ref, retires)
			for i := range refs {
				refs[i] = allocNode(pool, uint64(i))
			}
			if scheme == "hp" || scheme == "rc" {
				helper.Protect(0, refs[0])
			}
			if scheme == "ibr" {
				// ibr strands via an open reservation: the helper's interval
				// [e,e] overlaps every node's lifetime (birth 0 <= e <= stamp),
				// so the leaver's release-time scans keep the whole backlog.
				helper.Begin()
			}
			for _, r := range refs {
				leaver.Retire(r)
			}
			d.Release(leaver)

			f := corePools(t, d)
			if live := f.pools[ls].live.Load(); live != 0 {
				t.Fatalf("leaver's shard %d still has live=%d after Release; want 0 (vacant)", ls, live)
			}
			if scheme == "none" {
				// The leaky baseline has nothing to orphan or adopt.
				if st := d.Stats(); st.OrphanedNodes != 0 || st.AdoptedNodes != 0 {
					t.Fatalf("none orphaned/adopted %d/%d nodes", st.OrphanedNodes, st.AdoptedNodes)
				}
				return
			}
			if st := d.Stats(); st.OrphanedNodes == 0 {
				t.Fatalf("Release freed nothing yet orphaned nothing: %+v", st)
			}
			// The batched handoff targets the releasing guard's OWN shard:
			// the backlog must sit on the vacant shard's list, not have been
			// shuffled to the shard that will do the adopting.
			o := coreOrphans(d)
			if o.lists[ls].empty() {
				t.Fatalf("vacant shard %d's orphan list is empty after Release", ls)
			}
			if !o.lists[hs].empty() {
				t.Fatalf("backlog leaked onto the helper's shard %d", hs)
			}
			helper.Protect(0, mem.Ref(0)) // drop the hold; adoption may proceed

			// Drive the surviving shard's guard (and the rooster) only. No
			// Acquire calls: shard ls stays at live==0 throughout.
			rooster := func() {}
			switch dd := d.(type) {
			case *Cadence:
				rooster = dd.Rooster().Step
			case *QSense:
				rooster = dd.Rooster().Step
			}
			for i := 0; i < 200 && d.Stats().Pending > 0; i++ {
				rooster()
				helper.Begin()
				if scheme == "hp" || scheme == "rc" {
					// Pointer schemes adopt on scan/sweep passes, triggered
					// every R retires; feed them disposable nodes.
					helper.Retire(allocNode(pool, ^uint64(i)))
				}
			}

			st := d.Stats()
			if st.Pending != 0 {
				t.Fatalf("%s: %d nodes still pending with shard %d vacant: %+v", scheme, st.Pending, ls, st)
			}
			if st.AdoptedNodes == 0 {
				t.Fatalf("%s: backlog drained without adoption?! %+v", scheme, st)
			}
			if live := f.pools[ls].live.Load(); live != 0 {
				t.Fatalf("shard %d was re-leased mid-test (live=%d); the cross-shard claim is void", ls, live)
			}
			for _, r := range refs {
				if pool.Valid(r) {
					t.Fatalf("%s: stranded node %v still live", scheme, r)
				}
			}
		})
	}
}

// TestShardStealChurnWithParkedShard is the -race stress for the sharded
// lease paths: a burst grows both shards, then drains, leaving one shard
// fully vacant with its grown segments parked. Churning goroutines then
// hammer AcquireWait/Release — the picked shard's freelist runs dry
// constantly, so every lease exercises the steal sweep, and demand beyond
// the unparked capacity drives the unpark-before-grow path on the resting
// shard — all interleaved with retires, adoption and waiter wakeups.
func TestShardStealChurnWithParkedShard(t *testing.T) {
	for _, scheme := range Schemes() {
		t.Run(scheme, func(t *testing.T) {
			workers, rounds, opsPer := 12, 4, 60
			if testing.Short() {
				workers, rounds = 8, 2
			}
			pool := newTestPool()
			cfg := Config{Workers: 4, HardMaxWorkers: 32, Shards: 2, HPs: 1, Free: freeInto(pool), Q: 2, R: 4}
			if scheme == "qsense" {
				cfg.C = LegalC(cfg)
			}
			d, err := New(scheme, cfg)
			if err != nil {
				t.Fatal(err)
			}

			// Phase 1: 24 leases overflow both shards' caps-halves (16 each),
			// so both grow. Keep the last lease; drain the rest. The keeper's
			// sibling shard ends fully vacant and parks every grown segment.
			burst := make([]Guard, 24)
			for i := range burst {
				if burst[i], err = d.Acquire(); err != nil {
					t.Fatal(err)
				}
			}
			keeper := burst[len(burst)-1]
			for _, g := range burst[:len(burst)-1] {
				d.Release(g)
			}
			parked := 1 - SlotIndex(keeper)%2
			f := corePools(t, d)
			if live := f.pools[parked].live.Load(); live != 0 {
				t.Fatalf("shard %d live = %d after the burst drained, want 0", parked, live)
			}
			if f.pools[parked].parkedSlots.Load() == 0 {
				t.Fatalf("shard %d parked nothing after growing and draining: %+v", parked, d.Stats())
			}
			if st := d.Stats(); st.ShardImbalance != 1 {
				t.Fatalf("ShardImbalance = %d with live 1 vs 0, want 1", st.ShardImbalance)
			}

			// Phase 2: churn against a shared mailbox under -race.
			mb := newMailbox(pool, 16)
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					defer func() {
						if r := recover(); r != nil {
							if v, ok := r.(*mem.Violation); ok {
								errs <- v
								return
							}
							panic(r)
						}
					}()
					rng := uint64(id)*0x9e3779b9 + 1
					for round := 0; round < rounds; round++ {
						g, err := d.AcquireWait(context.Background())
						if err != nil {
							errs <- err
							return
						}
						for i := 0; i < opsPer; i++ {
							g.Begin()
							rng = rng*6364136223846793005 + 1442695040888963407
							slot := int(rng>>33) % len(mb.slots)
							if rng&1 == 0 {
								mb.put(g, slot, rng)
							} else {
								mb.take(g, slot)
							}
						}
						g.ClearHPs()
						d.Release(g)
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatalf("%s: %v", scheme, err)
			}
			d.Release(keeper)
			st := d.Stats()
			if st.AcquiredHandles != st.ReleasedHandles {
				t.Fatalf("%s: %d leases vs %d releases", scheme, st.AcquiredHandles, st.ReleasedHandles)
			}
			g, err := d.Acquire()
			if err != nil {
				t.Fatalf("%s: arena not recycled after churn: %v", scheme, err)
			}
			mb.drain(g)
			d.Release(g)
			d.Close()
			if scheme != "none" {
				if st := d.Stats(); st.Pending != 0 {
					t.Fatalf("%s: %d pending after Close", scheme, st.Pending)
				}
				if live := pool.Stats().Live; live != 0 {
					t.Fatalf("%s: %d nodes leaked", scheme, live)
				}
			}
		})
	}
}

// atDepth runs f under n extra stack frames: pickShard hashes the address
// of a stack local, so each depth is a different seed.
//
//go:noinline
func atDepth(n int, f func()) byte {
	var pad [96]byte
	pad[n%len(pad)] = byte(n)
	if n == 0 {
		f()
	} else {
		pad[0] += atDepth(n-1, f)
	}
	return pad[n%len(pad)]
}

// TestTwoLeasesTakeTwoShards: pickShard's two choices are two shards, so the
// second lease of a 2-shard domain always sees the first one's occupancy and
// goes to the other shard, whatever stack address seeded either hash. While
// the two slices of the hash could coincide, half of all seeds put both
// leases on one shard — and which half moved with Acquire's frame sizes.
func TestTwoLeasesTakeTwoShards(t *testing.T) {
	pool := newTestPool()
	for depth := 0; depth < 64; depth++ {
		for _, goroutines := range []int{1, 2} {
			// Two slots per shard: either shard could take both leases.
			d, err := NewHP(Config{Workers: 4, Shards: 2, HPs: 1, Free: freeInto(pool)})
			if err != nil {
				t.Fatal(err)
			}
			lease := func() {
				atDepth(depth, func() {
					if _, err := d.Acquire(); err != nil {
						t.Error(err)
					}
				})
			}
			for g := 0; g < 2; g++ {
				if goroutines == 1 {
					lease()
					continue
				}
				done := make(chan struct{}) // one after the other, a stack each
				go func() {
					defer close(done)
					lease()
				}()
				<-done
			}
			if st := d.Stats(); st.ShardImbalance != 0 {
				t.Fatalf("depth %d, %d goroutine(s): ShardImbalance = %d with two leases on two shards", depth, goroutines, st.ShardImbalance)
			}
			d.Close()
		}
	}
}
