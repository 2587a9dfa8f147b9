package reclaim

import (
	"testing"
	"time"

	"qsense/internal/rooster"
)

// TestConformance runs the same concurrent mailbox stress against every
// scheme: correct schemes must produce zero use-after-free violations, zero
// leaks after Close, and must actually reclaim memory while running.
func TestConformance(t *testing.T) {
	const workers = 6
	iters := 30000
	if testing.Short() {
		iters = 5000
	}
	for _, name := range Schemes() {
		name := name
		t.Run(name, func(t *testing.T) {
			pool := newTestPool()
			cfg := Config{
				Workers: workers,
				HPs:     2,
				Free:    freeInto(pool),
				Q:       8,
				R:       64,
				Rooster: rooster.Config{Interval: 500 * time.Microsecond},
			}
			d, err := New(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			runMailboxStress(t, pool, d, workers, iters)
		})
	}
}

// TestConformanceSingleWorker: every scheme must reclaim (or leak, for
// none) correctly with one worker and no concurrency.
func TestConformanceSingleWorker(t *testing.T) {
	for _, name := range Schemes() {
		name := name
		t.Run(name, func(t *testing.T) {
			pool := newTestPool()
			cfg := Config{
				Workers: 1, HPs: 2, Free: freeInto(pool), Q: 4, R: 8,
				Rooster: rooster.Config{Interval: 200 * time.Microsecond},
			}
			d, err := New(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			g := acquire(t, d, 1)[0]
			for i := 0; i < 5000; i++ {
				g.Begin()
				r := allocNode(pool, uint64(i))
				g.Retire(r)
			}
			d.Close()
			if name != "none" {
				if live := pool.Stats().Live; live != 0 {
					t.Fatalf("leaked %d nodes", live)
				}
			} else if pool.Stats().Live == 0 {
				t.Fatal("the leaky scheme unexpectedly freed nodes")
			}
		})
	}
}

// TestConformanceRetireNilPanics: retiring nil is a programming error in
// every scheme.
func TestConformanceRetireNilPanics(t *testing.T) {
	for _, name := range Schemes() {
		pool := newTestPool()
		d, err := New(name, Config{Workers: 1, HPs: 1, Free: freeInto(pool), ManualRooster: true})
		if err != nil {
			t.Fatal(err)
		}
		g := acquire(t, d, 1)[0]
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: Retire(nil) must panic", name)
				}
			}()
			g.Retire(0)
		}()
		d.Close()
	}
}

// TestConformanceReclaimsDuringRun asserts the non-leaky schemes free nodes
// while workers are still running (not only at Close), which is the entire
// point of online reclamation.
func TestConformanceReclaimsDuringRun(t *testing.T) {
	for _, name := range []string{"qsbr", "hp", "cadence", "qsense", "ibr", "hyaline"} {
		name := name
		t.Run(name, func(t *testing.T) {
			pool := newTestPool()
			d, err := New(name, Config{
				Workers: 1, HPs: 2, Free: freeInto(pool), Q: 2, R: 8,
				ManualRooster: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			g := acquire(t, d, 1)[0]
			step := func() {
				switch dom := d.(type) {
				case *Cadence:
					dom.Rooster().Step()
				case *QSense:
					dom.Rooster().Step()
				}
			}
			for i := 0; i < 1000; i++ {
				g.Begin()
				g.Retire(allocNode(pool, uint64(i)))
				if i%10 == 0 {
					step()
				}
			}
			if d.Stats().Freed == 0 {
				t.Fatalf("%s freed nothing across 1000 retires", name)
			}
			d.Close()
		})
	}
}

// TestFactory checks New's name handling.
func TestFactory(t *testing.T) {
	pool := newTestPool()
	cfg := Config{Workers: 1, HPs: 1, Free: freeInto(pool), ManualRooster: true}
	for _, name := range Schemes() {
		d, err := New(name, cfg)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if d.Name() != name {
			t.Fatalf("New(%q).Name() = %q", name, d.Name())
		}
		if d.Failed() {
			t.Fatalf("%s: fresh domain reports Failed", name)
		}
		if s := d.Stats(); s.Scheme != name {
			t.Fatalf("%s: stats scheme = %q", name, s.Scheme)
		}
		d.Close()
	}
	if _, err := New("nope", cfg); err == nil {
		t.Fatal("unknown scheme must error")
	}
}

// TestConfigValidation covers the shared validation paths.
func TestConfigValidation(t *testing.T) {
	pool := newTestPool()
	free := freeInto(pool)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"zero workers", Config{HPs: 1, Free: free}},
		{"zero hps", Config{Workers: 1, Free: free}},
		{"nil free", Config{Workers: 1, HPs: 1}},
	}
	for _, c := range cases {
		for _, scheme := range []string{"qsbr", "hp", "cadence", "qsense", "ibr", "hyaline"} {
			if _, err := New(scheme, c.cfg); err == nil {
				t.Errorf("%s/%s: expected validation error", scheme, c.name)
			}
		}
	}
	// none does not require Free.
	if _, err := New("none", Config{Workers: 1, HPs: 1}); err != nil {
		t.Errorf("none without Free: %v", err)
	}
	// 0 already means "no modelled fence": a negative cost is refused by
	// every constructor, not only the one scheme that reads the field.
	for _, scheme := range Schemes() {
		if _, err := New(scheme, Config{Workers: 1, HPs: 1, Free: free, FenceCost: -1}); err == nil {
			t.Errorf("%s: negative FenceCost accepted", scheme)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{Workers: 4, HPs: 3}.withDefaults()
	if c.Q != 32 {
		t.Errorf("Q default = %d", c.Q)
	}
	if want := 2*4*3 + 64; c.R != want {
		t.Errorf("R default = %d, want %d", c.R, want)
	}
	if c.C < LegalC(c) {
		t.Errorf("C default %d below legal %d", c.C, LegalC(c))
	}
}

func TestLegalC(t *testing.T) {
	c := Config{Workers: 8, HPs: 2, Q: 32, R: 64}
	legal := LegalC(c)
	// C must exceed mQ = 64, NK+T = 16+64 = 80, (K+T+R)/2 = 65.
	if legal <= 80 {
		t.Fatalf("LegalC = %d, must exceed NK+T = 80", legal)
	}
	// Pinned values, m = 2 throughout: the BST's m, which also bounds the
	// list's and skip list's m = 1 (the last row is the harness's list).
	for _, tc := range []struct {
		c    Config
		want int
	}{
		{Config{Workers: 4, HPs: 2, Q: 2, R: 8}, 17},   // NK+T = 8+8
		{Config{Workers: 8, HPs: 2, Q: 32, R: 64}, 81}, // NK+T = 16+64
		{Config{Workers: 4, HPs: 35}, 485},             // R = 344: NK+T = 140+344
		{Config{Workers: 8, HPs: 6, Q: 32}, 209},       // R = 160: NK+T = 48+160
		{Config{Workers: 1, HPs: 1, Q: 64, R: 1}, 129}, // mQ = 2·64
	} {
		if got := LegalC(tc.c); got != tc.want {
			t.Errorf("LegalC(W%d K%d Q%d R%d) = %d, want %d", tc.c.Workers, tc.c.HPs, tc.c.Q, tc.c.R, got, tc.want)
		}
	}
	// QSense must reject an illegal explicit C.
	pool := newTestPool()
	_, err := NewQSense(Config{Workers: 8, HPs: 2, Q: 32, R: 64, C: 10,
		Free: freeInto(pool), ManualRooster: true})
	if err == nil {
		t.Fatal("NewQSense must reject C below LegalC")
	}
}
