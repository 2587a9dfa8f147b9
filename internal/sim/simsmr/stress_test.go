package simsmr_test

import (
	"testing"

	"qsense/internal/sim"
	"qsense/internal/sim/simlist"
	"qsense/internal/sim/simsmr"
)

// stressCfg parameterizes one simulated list stress run.
type stressCfg struct {
	scheme   string
	procs    int
	capacity int
	keyRange uint64
	duration uint64
	seed     uint64
	rooster  uint64
	smr      func(*simsmr.Config) // optional tuning
	stall    [2]uint64            // proc 0 sleeps [start,end) when nonzero
	check    func(p *sim.Proc, d simsmr.Domain)
}

// runListStress executes a mixed read/update workload (50% searches, 25%
// inserts, 25% deletes) on the simulated Harris-Michael list.
func runListStress(t *testing.T, sc stressCfg) ([]error, simsmr.Domain, *simlist.List) {
	t.Helper()
	m := sim.New(sim.Config{Procs: sc.procs, Seed: sc.seed, RoosterInterval: sc.rooster})
	l := simlist.New(m, sc.capacity)
	var fill []uint64
	for k := uint64(2); k <= sc.keyRange; k += 2 {
		fill = append(fill, k)
	}
	l.FillHost(fill)
	cfg := simsmr.Config{Machine: m, Pool: l.Pool(), HPs: simlist.HPs, Q: 4, R: 16}
	if sc.smr != nil {
		sc.smr(&cfg)
	}
	d, err := simsmr.New(sc.scheme, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sc.procs; i++ {
		m.Spawn(i, func(p *sim.Proc) {
			h := l.NewHandle(p, d.Guard(p.ID()))
			n := 0
			for p.Now() < sc.duration {
				if p.ID() == 0 && sc.stall[1] > 0 && p.Now() >= sc.stall[0] && p.Now() < sc.stall[1] {
					p.SleepUntil(sc.stall[1])
					continue
				}
				if d.Failed() {
					return
				}
				k := 1 + p.Rand()%sc.keyRange
				switch p.Rand() % 100 {
				case 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24:
					h.Insert(k)
				case 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49:
					h.Delete(k)
				default:
					h.Contains(k)
				}
				p.OpDone()
				n++
				if sc.check != nil && n%32 == 0 {
					sc.check(p, d)
				}
			}
		})
	}
	errs := m.Run()
	return errs, d, l
}

// TestSchemeConformanceOnList: every scheme must run the concurrent list
// without memory violations and leave a structurally valid list; the
// reclaiming schemes must actually free during the run, and after
// CollectAll the pool's live count must equal the reachable node count
// (zero leaks, zero lost nodes).
func TestSchemeConformanceOnList(t *testing.T) {
	for _, scheme := range simsmr.Schemes() {
		for _, seed := range []uint64{1, 2, 3} {
			t.Run(scheme, func(t *testing.T) {
				// T must dwarf the context-switch cost (paper: T is
				// milliseconds, i.e. millions of cycles); 50k cycles
				// keeps preemption overhead ~6% while still giving
				// several deferral windows per run.
				errs, d, l := runListStress(t, stressCfg{
					scheme: scheme, procs: 4, capacity: 4096,
					keyRange: 32, duration: 400_000, seed: seed, rooster: 50_000,
				})
				if errs != nil {
					t.Fatalf("memory violations under %s: %v", scheme, errs)
				}
				if _, bad := l.Validate(); bad != "" {
					t.Fatalf("invalid list under %s: %s", scheme, bad)
				}
				st := d.Stats()
				if scheme == "none" {
					// The leak is the reason reclamation exists: every
					// retired node is still allocated, none reachable.
					if st.Retired == 0 {
						t.Fatal("workload retired nothing; the leak is unobservable")
					}
					if st.Freed != 0 {
						t.Fatalf("leaky scheme freed %d nodes", st.Freed)
					}
					if live, reach := l.Pool().Stats().Live, l.CountReachable(); live != reach+int(st.Retired) {
						t.Fatalf("none: %d live, want %d reachable + %d retired", live, reach, st.Retired)
					}
					return
				}
				if st.Retired > 50 && st.Freed == 0 {
					t.Fatalf("%s retired %d nodes but freed none during the run", scheme, st.Retired)
				}
				d.CollectAll()
				if live, reach := l.Pool().Stats().Live, l.CountReachable(); live != reach {
					t.Fatalf("%s: %d live vs %d reachable after CollectAll", scheme, live, reach)
				}
			})
		}
	}
}

// TestQSBRStallFails: a stalled proc freezes QSBR's grace periods; with a
// memory budget the domain fails — the orange line of Figure 5 (bottom).
func TestQSBRStallFails(t *testing.T) {
	errs, d, _ := runListStress(t, stressCfg{
		scheme: "qsbr", procs: 3, capacity: 4096,
		keyRange: 32, duration: 900_000, seed: 5,
		smr:   func(c *simsmr.Config) { c.MemoryLimit = 120 },
		stall: [2]uint64{60_000, 850_000},
	})
	if errs != nil {
		t.Fatal(errs)
	}
	if !d.Failed() {
		t.Fatalf("QSBR survived a long stall within a memory budget (pending=%d)", d.Pending())
	}
}

// TestQSBRNoStallSurvives is the control: without the stall the same
// budget is never approached.
func TestQSBRNoStallSurvives(t *testing.T) {
	errs, d, _ := runListStress(t, stressCfg{
		scheme: "qsbr", procs: 3, capacity: 4096,
		keyRange: 32, duration: 900_000, seed: 5,
		smr: func(c *simsmr.Config) { c.MemoryLimit = 120 },
	})
	if errs != nil {
		t.Fatal(errs)
	}
	if d.Failed() {
		t.Fatalf("QSBR failed without any stall (pending=%d)", d.Pending())
	}
}

// TestQSenseStallSwitchesAndSurvives: under the same stall QSense switches
// to the fallback path, keeps reclaiming (bounded memory), and switches
// back once the stalled proc returns — Figure 5 (bottom), green line.
func TestQSenseStallSwitchesAndSurvives(t *testing.T) {
	errs, d, l := runListStress(t, stressCfg{
		scheme: "qsense", procs: 4, capacity: 8192,
		keyRange: 32, duration: 1_400_000, seed: 5, rooster: 50_000,
		smr: func(c *simsmr.Config) {
			c.C = 16
			c.MemoryLimit = 4000
			// The presence window must be shorter than the stall or
			// the stalled proc still looks active and the paths flap.
			c.PresenceWindow = 100_000
		},
		stall: [2]uint64{100_000, 900_000},
	})
	if errs != nil {
		t.Fatal(errs)
	}
	st := d.Stats()
	if st.SwitchesToFallback == 0 {
		t.Fatalf("qsense never engaged the fallback path under an 800k-cycle stall: %+v", st)
	}
	if st.SwitchesToFast == 0 {
		t.Fatalf("qsense never returned to the fast path after the stall: %+v", st)
	}
	if st.Failed {
		t.Fatalf("qsense breached the memory budget: %+v", st)
	}
	if _, bad := l.Validate(); bad != "" {
		t.Fatalf("invalid list: %s", bad)
	}
}

// TestHPPendingBounded checks the liveness bound behind Property 2 for the
// hazard pointer scheme: a guard's backlog after a scan is at most the N*K
// protected nodes plus the R retires accumulated since, so system-wide
// pending never exceeds N*(N*K + R) (checked live, during the run).
func TestHPPendingBounded(t *testing.T) {
	const procs, hps, r = 4, simlist.HPs, 16
	bound := procs * (procs*hps + r)
	errs, _, _ := runListStress(t, stressCfg{
		scheme: "hp", procs: procs, capacity: 4096,
		keyRange: 32, duration: 500_000, seed: 9,
		smr: func(c *simsmr.Config) { c.R = r },
		check: func(p *sim.Proc, d simsmr.Domain) {
			if pend := d.Pending(); pend > bound {
				t.Errorf("hp pending %d exceeds N(NK+R)=%d", pend, bound)
			}
		},
	})
	if errs != nil {
		t.Fatal(errs)
	}
}

// TestCadencePendingBounded checks Property 2's shape for Cadence: pending
// stays within N*(N*K + R + T') where T' is the retire capacity of one
// deferral window (T+ε cycles at the observed worst retire rate, bounded
// here by one retire per ~500 cycles per proc — far above reality).
func TestCadencePendingBounded(t *testing.T) {
	const procs, r = 4, 16
	const rooster = 50_000
	tPrime := procs * (rooster + 3000 + 2048) / 500
	bound := procs*(procs*simlist.HPs+r) + tPrime
	errs, _, _ := runListStress(t, stressCfg{
		scheme: "cadence", procs: procs, capacity: 8192,
		keyRange: 32, duration: 800_000, seed: 9, rooster: rooster,
		smr: func(c *simsmr.Config) { c.R = r },
		check: func(p *sim.Proc, d simsmr.Domain) {
			if pend := d.Pending(); pend > bound {
				t.Errorf("cadence pending %d exceeds N(NK+R)+T'=%d", pend, bound)
			}
		},
	})
	if errs != nil {
		t.Fatal(errs)
	}
}
