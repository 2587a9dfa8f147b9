package reclaim

import (
	"sync"
	"testing"

	"qsense/internal/mem"
)

// occupancyCount walks the pool's active-slot index and returns how many
// slots it visits (test helper over the shared walk primitive).
func occupancyCount(t *testing.T, d Domain) int {
	t.Helper()
	return corePools(t, d).walkOccupied(func(int) bool { return true })
}

// burstDomain builds a scheme domain with a small initial arena, drives a
// burst of `burst` simultaneous leases through it (growing the arena), and
// drains them all again (parking the grown segments). Returns the domain.
func burstDomain(t *testing.T, scheme string, pool *mem.Pool[tnode], burst int) Domain {
	t.Helper()
	cfg := Config{Workers: 8, HPs: 2, Free: freeInto(pool), Q: 1, R: 8, ManualRooster: true}
	if scheme == "qsense" {
		cfg.C = 1 << 20 // stay on the fast path; fallback is exercised below
	}
	d, err := New(scheme, cfg)
	if err != nil {
		t.Fatal(err)
	}
	guards := make([]Guard, burst)
	for i := range guards {
		g, err := d.Acquire()
		if err != nil {
			t.Fatalf("%s: burst acquire %d: %v", scheme, i, err)
		}
		guards[i] = g
	}
	if st := d.Stats(); st.ArenaSize < burst {
		t.Fatalf("%s: arena %d after %d simultaneous leases", scheme, st.ArenaSize, burst)
	}
	for _, g := range guards {
		d.Release(g)
	}
	return d
}

// TestScanWorkTracksOccupancy is the burst-then-idle contract for all seven
// schemes: after a 10k-lease burst drains, per-pass reclamation work (the
// records a scan/advance/sweep actually visits, Stats.ScannedRecords) must
// track the handful of LIVE workers, not the 16k-slot high-water arena —
// and the drained capacity must be parked.
func TestScanWorkTracksOccupancy(t *testing.T) {
	for _, scheme := range Schemes() {
		t.Run(scheme, func(t *testing.T) {
			burst := 10000
			if scheme == "ebr" {
				// Every EBR Acquire helps the epoch along, which walks
				// all live peers — a simultaneous burst of joins is
				// inherently quadratic in the burst size (pre-PR it
				// walked the full arena instead, no better). 2048 keeps
				// the race-instrumented run fast while still 512x the
				// live count below.
				burst = 2048
			}
			if testing.Short() {
				burst = min(burst, 2000)
			}
			pool := newTestPool()
			d := burstDomain(t, scheme, pool, burst)
			defer d.Close()

			st := d.Stats()
			if st.HighWaterWorkers < burst {
				t.Fatalf("high water %d after a %d burst", st.HighWaterWorkers, burst)
			}
			if st.ParkedSlots == 0 || st.SegmentParks == 0 {
				t.Fatalf("nothing parked after the burst drained: %+v", st)
			}
			if kept := st.ArenaSize - st.ParkedSlots; kept > 64 {
				t.Fatalf("%d of %d slots still walked after drain", kept, st.ArenaSize)
			}

			// Re-occupy a few slots and drive every scheme's reclamation
			// machinery: retires past the scan threshold, quiescent
			// states, epoch advances, rooster steps.
			const live = 4
			guards := make([]Guard, live)
			for i := range guards {
				g, err := d.Acquire()
				if err != nil {
					t.Fatal(err)
				}
				guards[i] = g
			}
			if occ := occupancyCount(t, d); occ != live {
				t.Fatalf("occupancy walk visits %d slots, want %d", occ, live)
			}
			before := d.Stats()
			const opsPer = 64
			for i := 0; i < opsPer; i++ {
				for _, g := range guards {
					g.Begin()
					g.Retire(allocNode(pool, uint64(i)))
				}
				switch dom := d.(type) {
				case *Cadence:
					dom.Rooster().Step()
				case *QSense:
					dom.Rooster().Step()
				}
			}
			after := d.Stats()
			visited := after.ScannedRecords - before.ScannedRecords
			// Upper bound: every op may trigger at most a couple of
			// walks (scan + advance + rooster flush + adoption pass),
			// each visiting the live workers only. Give a generous
			// constant slack; the point is the bound does NOT scale
			// with the 16k high-water arena — pre-PR a single scan
			// visited >= burst records and this bound was unreachable.
			bound := uint64(opsPer*live*4*(live+2)) + 256
			if visited > bound {
				t.Fatalf("%s: %d records visited for %d ops over %d live workers (bound %d) — scan work is tracking high-water, not occupancy",
					scheme, visited, opsPer*live, live, bound)
			}
			for _, g := range guards {
				d.Release(g)
			}
		})
	}
}

// TestParkedCapacityIsReused: growth after a park must unpark the resting
// segments (republishing their slots) before appending new ones — the
// arena never grows while parked capacity exists.
func TestParkedCapacityIsReused(t *testing.T) {
	pool := newTestPool()
	d := burstDomain(t, "qsbr", pool, 256)
	defer d.Close()
	st := d.Stats()
	if st.ParkedSlots == 0 {
		t.Fatalf("nothing parked: %+v", st)
	}
	size, grows := st.ArenaSize, st.ArenaGrowths
	// Re-lease past segment 0: must be served by unparking, not growth.
	guards := make([]Guard, 64)
	for i := range guards {
		g, err := d.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		guards[i] = g
	}
	st = d.Stats()
	if st.ArenaSize != size || st.ArenaGrowths != grows {
		t.Fatalf("arena grew (%d->%d slots, %d->%d growths) with parked capacity available",
			size, st.ArenaSize, grows, st.ArenaGrowths)
	}
	if st.SegmentUnparks == 0 {
		t.Fatal("no unparks recorded serving 64 leases from parked capacity")
	}
	for _, g := range guards {
		d.Release(g)
	}
}

// TestParkedSegmentOrphanAdoption: a backlog orphaned from a grown slot
// must still be adopted after its segment parks — the orphan list is
// domain-global, so parking the birth segment cannot strand the nodes.
func TestParkedSegmentOrphanAdoption(t *testing.T) {
	pool := newTestPool()
	d, err := NewQSBR(Config{Workers: 2, HPs: 1, Free: freeInto(pool), Q: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	g0, err := d.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	g1, err := d.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	grown, err := d.Acquire() // third lease: publishes segment 1
	if err != nil {
		t.Fatal(err)
	}
	if SlotIndex(grown) < 2 {
		t.Fatalf("third lease landed in segment 0 (slot %d)", SlotIndex(grown))
	}
	r := allocNode(pool, 7)
	grown.Retire(r)
	d.Release(grown) // orphans the unaged node
	d.Release(g1)    // occupancy 1 <= lo/2: segment 1 parks
	st := d.Stats()
	if st.ParkedSlots == 0 {
		t.Fatalf("segment 1 did not park: %+v", st)
	}
	if st.OrphanedNodes != 1 {
		t.Fatalf("OrphanedNodes = %d, want 1", st.OrphanedNodes)
	}
	for i := 0; i < 8 && pool.Valid(r); i++ {
		g0.Begin() // sole active worker: epoch turns, adoption matures
	}
	if pool.Valid(r) {
		t.Fatal("orphan from the parked segment was never adopted")
	}
	if st := d.Stats(); st.Pending != 0 || st.AdoptedNodes != 1 {
		t.Fatalf("pending/adopted = %d/%d after adoption, want 0/1", st.Pending, st.AdoptedNodes)
	}
	d.Release(g0)
}

// TestParkUnparkChurnRace is the -race stress for the parking machinery:
// bursts of concurrent leases grow and unpark the arena while full drains
// park it again, with one lease held for the whole run retiring through
// every transition (its segment-0 slot must stay visible to every walk) and
// releases mid-backlog exercising orphan adoption against parked segments.
func TestParkUnparkChurnRace(t *testing.T) {
	for _, scheme := range Schemes() {
		t.Run(scheme, func(t *testing.T) {
			workers, rounds, opsPer := 16, 4, 30
			if testing.Short() {
				workers, rounds = 8, 2
			}
			pool := newTestPool()
			cfg := Config{Workers: 2, HPs: 1, Free: freeInto(pool), Q: 2, R: 4}
			if scheme == "qsense" {
				cfg.C = LegalC(cfg)
			}
			d, err := New(scheme, cfg)
			if err != nil {
				t.Fatal(err)
			}
			mb := newMailbox(pool, 16)
			errs := make(chan error, workers+1)
			catch := func(f func()) func() {
				return func() {
					defer func() {
						if r := recover(); r != nil {
							if v, ok := r.(*mem.Violation); ok {
								errs <- v
								return
							}
							panic(r)
						}
					}()
					f()
				}
			}

			held := acquire(t, d, 1)[0]
			done := make(chan struct{})
			var stop sync.WaitGroup
			stop.Add(1)
			go catch(func() {
				defer stop.Done()
				rng := uint64(0xfeed)
				for {
					select {
					case <-done:
						held.ClearHPs()
						return
					default:
					}
					held.Begin()
					rng = rng*6364136223846793005 + 1442695040888963407
					if rng&1 == 0 {
						mb.put(held, int(rng>>33)%len(mb.slots), rng)
					} else {
						mb.take(held, int(rng>>33)%len(mb.slots))
					}
				}
			})()

			var wg sync.WaitGroup
			var barrier sync.WaitGroup
			for round := 0; round < rounds; round++ {
				// Burst: all workers lease simultaneously (growth or
				// unpark), operate, then drain together (park).
				barrier.Add(workers)
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go catch(func() {
						defer wg.Done()
						g, err := d.Acquire()
						if err != nil {
							errs <- err
							barrier.Done()
							return
						}
						barrier.Done()
						barrier.Wait() // hold the lease until all peers leased
						rng := uint64(SlotIndex(g))*0x9e3779b9 + 1
						for i := 0; i < opsPer; i++ {
							g.Begin()
							rng = rng*6364136223846793005 + 1442695040888963407
							if rng&1 == 0 {
								mb.put(g, int(rng>>33)%len(mb.slots), rng)
							} else {
								mb.take(g, int(rng>>33)%len(mb.slots))
							}
						}
						g.ClearHPs()
						d.Release(g)
					})()
				}
				wg.Wait()
			}
			close(done)
			stop.Wait()
			close(errs)
			for err := range errs {
				t.Fatalf("%s: %v", scheme, err)
			}
			st := d.Stats()
			if st.ArenaGrowths == 0 {
				t.Fatalf("%s: churn never grew the arena: %+v", scheme, st)
			}
			if st.SegmentParks == 0 {
				t.Fatalf("%s: full drains never parked a segment: %+v", scheme, st)
			}
			g, err := d.Acquire()
			if err != nil {
				t.Fatal(err)
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

// TestThresholdsRetuneWithOccupancy: a defaulted R follows the live worker
// count through growth and parking; a defaulted C tracks LegalC; an
// explicitly configured R is never touched.
func TestThresholdsRetuneWithOccupancy(t *testing.T) {
	pool := newTestPool()
	d, err := NewHP(Config{Workers: 2, HPs: 2, Free: freeInto(pool)})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	r0 := d.Stats().EffectiveR
	if r0 != 2*2*2+64 {
		t.Fatalf("initial EffectiveR = %d, want %d", r0, 2*2*2+64)
	}
	guards := make([]Guard, 128)
	for i := range guards {
		if guards[i], err = d.Acquire(); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stats()
	if st.RRetunes == 0 || st.EffectiveR <= r0 {
		t.Fatalf("R did not retune upward on growth: %+v", st)
	}
	grownR := st.EffectiveR
	for _, g := range guards {
		d.Release(g)
	}
	st = d.Stats()
	if st.EffectiveR >= grownR {
		t.Fatalf("R did not retune back down after the drain parked: %d -> %d", grownR, st.EffectiveR)
	}

	// An explicit R is a caller decision: growth must not touch it.
	fixed, err := NewHP(Config{Workers: 2, HPs: 2, R: 128, Free: freeInto(pool)})
	if err != nil {
		t.Fatal(err)
	}
	defer fixed.Close()
	for i := range guards {
		if guards[i], err = fixed.Acquire(); err != nil {
			t.Fatal(err)
		}
	}
	if st := fixed.Stats(); st.RRetunes != 0 || st.EffectiveR != 128 {
		t.Fatalf("explicit R was retuned: %+v", st)
	}
	for _, g := range guards {
		fixed.Release(g)
	}
}

// TestLegalCReValidatedOnGrowth: a C that is legal for the initial N but
// illegal for the grown N must be raised to the current LegalC bound —
// §6.2 binds against the live worker count, not the construction-time one.
func TestLegalCReValidatedOnGrowth(t *testing.T) {
	pool := newTestPool()
	cfg := Config{Workers: 2, HPs: 2, Free: freeInto(pool)}
	cfg.C = LegalC(cfg) // minimal legal value at N=2
	d, err := NewQSense(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if got := d.Stats().EffectiveC; got != cfg.C {
		t.Fatalf("EffectiveC = %d at construction, want the configured %d", got, cfg.C)
	}
	guards := make([]Guard, 256)
	for i := range guards {
		if guards[i], err = d.Acquire(); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stats()
	want := Config{Workers: 256, HPs: 2, R: st.EffectiveR}
	if legal := LegalC(want); st.EffectiveC < legal {
		t.Fatalf("EffectiveC = %d below LegalC = %d at N=256 — §6.2 violated after growth", st.EffectiveC, legal)
	}
	if st.CRetunes == 0 {
		t.Fatalf("no CRetunes recorded raising an illegal C: %+v", st)
	}
	raised := st.EffectiveC
	for _, g := range guards {
		d.Release(g)
	}
	if st := d.Stats(); st.EffectiveC >= raised {
		t.Fatalf("EffectiveC did not fall back toward the configured floor after the drain: %d -> %d", raised, st.EffectiveC)
	}
}

// TestRetireTallyExactStats: Stats.Retired must stay exact BETWEEN tally
// flushes — the per-guard residue is summed into every snapshot — and the
// shared counters must catch up at pass boundaries.
func TestRetireTallyExactStats(t *testing.T) {
	pool := newTestPool()
	d, err := NewQSBR(Config{Workers: 1, HPs: 1, Free: freeInto(pool), Q: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	g := acquire(t, d, 1)[0]
	for i := 1; i <= tallyFlushEvery+5; i++ {
		g.Retire(allocNode(pool, uint64(i)))
		if got := d.Stats().Retired; got != uint64(i) {
			t.Fatalf("Stats.Retired = %d after %d retires", got, i)
		}
	}
	// A quiescent state is a pass boundary: the residue must be flushed.
	d.guards.at(0).quiescent()
	if res := d.guards.at(0).tally.res.Load(); res != 0 {
		t.Fatalf("residue %d after a quiescent state", res)
	}
	if got := d.Stats().Retired; got != uint64(tallyFlushEvery+5) {
		t.Fatalf("Stats.Retired = %d after flush", got)
	}
}
