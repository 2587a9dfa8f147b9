package workload

import (
	"math"
	"testing"
	"time"
)

func TestZipfKeyRangeAndSkew(t *testing.T) {
	const (
		keyRange = 10000
		draws    = 200000
		theta    = 0.99
	)
	rng := NewRNG(42)
	counts := make([]int, keyRange)
	for i := 0; i < draws; i++ {
		k := rng.ZipfKey(keyRange, theta)
		if k < 0 || k >= keyRange {
			t.Fatalf("key %d out of [0,%d)", k, keyRange)
		}
		counts[k]++
	}
	// Top-1% key mass: at theta=0.99 the 100 hottest ranks carry roughly
	// half the draws (a uniform draw would give them 1%).
	top := 0
	for k := 0; k < keyRange/100; k++ {
		top += counts[k]
	}
	mass := float64(top) / draws
	if mass < 0.35 {
		t.Fatalf("top-1%% key mass %.3f, want >= 0.35 for theta=%.2f", mass, theta)
	}
	// Rank ordering: key 0 is the hottest by a wide margin.
	if counts[0] < draws/100 {
		t.Fatalf("key 0 drew %d of %d, implausibly cold for the hottest rank", counts[0], draws)
	}
	if counts[0] <= counts[keyRange/2] {
		t.Fatalf("key 0 (%d) not hotter than the median rank (%d)", counts[0], counts[keyRange/2])
	}
}

func TestZipfKeyUniformFallback(t *testing.T) {
	const (
		keyRange = 10000
		draws    = 200000
	)
	rng := NewRNG(7)
	top := 0
	for i := 0; i < draws; i++ {
		if k := rng.ZipfKey(keyRange, 0); k < keyRange/100 {
			top++
		}
	}
	// theta <= 0 degrades to uniform: top 1% of keys get about 1%.
	if mass := float64(top) / draws; mass > 0.03 {
		t.Fatalf("top-1%% mass %.3f under theta=0, want ~0.01", mass)
	}
}

func TestZipfKeyReshapes(t *testing.T) {
	rng := NewRNG(1)
	// Changing shape parameters mid-stream must rebuild the cached state,
	// not silently keep the old distribution's range.
	for i := 0; i < 1000; i++ {
		if k := rng.ZipfKey(100, 0.99); k < 0 || k >= 100 {
			t.Fatalf("key %d out of [0,100)", k)
		}
	}
	for i := 0; i < 1000; i++ {
		if k := rng.ZipfKey(8, 0.5); k < 0 || k >= 8 {
			t.Fatalf("key %d out of [0,8)", k)
		}
	}
	// theta >= 1 is clamped, not NaN/panic.
	if k := rng.ZipfKey(100, 1.0); k < 0 || k >= 100 {
		t.Fatalf("key %d out of range under clamped theta", k)
	}
}

func TestPhasePlanTiming(t *testing.T) {
	p := BurstIdle(2*time.Second, time.Second, 2, 0.1)
	if got, want := p.Total(), 6*time.Second; got != want {
		t.Fatalf("Total = %v want %v", got, want)
	}
	cases := []struct {
		t         time.Duration
		name      string
		remaining time.Duration
		ok        bool
	}{
		{0, "burst", 2 * time.Second, true},
		{1999 * time.Millisecond, "burst", time.Millisecond, true},
		{2 * time.Second, "idle", time.Second, true}, // boundary -> later phase
		{2500 * time.Millisecond, "idle", 500 * time.Millisecond, true},
		{3 * time.Second, "burst", 2 * time.Second, true}, // second cycle
		{5999 * time.Millisecond, "idle", time.Millisecond, true},
		{6 * time.Second, "", 0, false}, // plan over
		{-time.Second, "burst", 2 * time.Second, true},
	}
	for _, c := range cases {
		ph, rem, ok := p.At(c.t)
		if ok != c.ok || ph.Name != c.name || rem != c.remaining {
			t.Fatalf("At(%v) = (%q, %v, %v), want (%q, %v, %v)", c.t, ph.Name, rem, ok, c.name, c.remaining, c.ok)
		}
	}
}

func TestPhaseActiveWorkers(t *testing.T) {
	cases := []struct {
		load float64
		n    int
		want int
	}{
		{1, 64, 64},
		{0.5, 64, 32},
		{0.05, 64, 3},
		{0.001, 64, 1}, // positive load keeps one prober
		{0, 64, 0},
		{2, 64, 64}, // clamped
	}
	for _, c := range cases {
		if got := (Phase{Load: c.load}).ActiveWorkers(c.n); got != c.want {
			t.Fatalf("ActiveWorkers(load=%v, n=%d) = %d want %d", c.load, c.n, got, c.want)
		}
	}
}

// TestZipfExpMatchesPow holds next's exp(alpha·ln x) to the math.Pow form it
// replaced: over 4 Mi draws for each skew and key range the ruler and the
// layer benchmarks use, not one key differs, so every stream recorded before
// the change — and every count pinned on one — is the same stream.
func TestZipfExpMatchesPow(t *testing.T) {
	const draws = 4 << 20
	for _, theta := range []float64{0.99, 0.5} {
		for _, n := range []int64{1 << 16, 1 << 18} {
			z := newZipfGen(n, theta)
			pow := func(u float64) int64 { // next as it was, with math.Pow
				uz := u * z.zetan
				if uz < 1 {
					return 0
				}
				if uz < 1+z.half {
					return 1
				}
				return min(max(int64(float64(z.n)*math.Pow(z.eta*u-z.eta+1, z.alpha)), 0), z.n-1)
			}
			rng := NewRNG(uint64(n) ^ math.Float64bits(theta))
			for i := 0; i < draws; i++ {
				u := float64(rng.Next()>>11) / (1 << 53)
				if got, want := z.next(u), pow(u); got != want {
					t.Fatalf("theta %v, range %d, draw %d (u=%v): key %d, math.Pow gives %d", theta, n, i, u, got, want)
				}
			}
		}
	}
}

// TestPayloadMatchesBytewise holds the word-at-a-time payload codec to the
// byte-at-a-time stream it replaced, at every length around the salt and the
// word boundaries, and checks that one flipped byte fails verification
// (but in an 8-byte payload, which is its salt alone).
func TestPayloadMatchesBytewise(t *testing.T) {
	bytewise := func(key int64, salt uint64, n int) []byte {
		if n < 8 {
			salt = 0
		}
		rng := RNG{state: payloadSeed(key, salt, n)}
		var out []byte
		for i := 0; i < 8 && n >= 8; i++ {
			out = append(out, byte(salt>>(8*i)))
		}
		for len(out) < n {
			w := rng.Next()
			for b := 0; b < 8 && len(out) < n; b++ {
				out = append(out, byte(w>>(8*b)))
			}
		}
		return out
	}
	for n := 0; n <= 40; n++ {
		for _, key := range []int64{0, 7, -3, 1 << 40} {
			salt := uint64(key)*31 + uint64(n)
			got := AppendPayload([]byte("x"), key, salt, n)
			if want := bytewise(key, salt, n); string(got[1:]) != string(want) || got[0] != 'x' {
				t.Fatalf("key %d, n %d: %x, byte-wise %x", key, n, got[1:], want)
			}
			if !VerifyPayload(got[1:], key) {
				t.Fatalf("key %d, n %d: its own payload fails verification", key, n)
			}
			for i := 1; i < len(got); i++ {
				got[i] ^= 0x40
				if VerifyPayload(got[1:], key) && n != 8 { // 8 bytes are all salt
					t.Fatalf("key %d, n %d: byte %d flipped still verifies", key, n, i-1)
				}
				got[i] ^= 0x40
			}
		}
	}
}
