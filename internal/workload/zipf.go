package workload

import "math"

// zipfGen is a bounded zipfian key generator after Gray et al. ("Quickly
// generating billion-record synthetic databases", SIGMOD '94) — the YCSB
// zipfian generator. Setup is O(keyRange) once (the zeta sum); every draw
// after that is O(1). Rank r is drawn with probability proportional to
// 1/(r+1)^theta, so key 0 is the hottest.
type zipfGen struct {
	n     int64
	theta float64

	alpha, zetan, eta, half float64
}

func newZipfGen(n int64, theta float64) *zipfGen {
	z := &zipfGen{n: n, theta: theta}
	z.zetan = zetaSum(n, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zetaSum(2, theta)/z.zetan)
	z.half = math.Pow(0.5, theta)
	return z
}

// zetaSum is the generalized harmonic number H_{n,theta}.
func zetaSum(n int64, theta float64) float64 {
	s := 0.0
	for i := int64(1); i <= n; i++ {
		s += 1 / math.Pow(float64(i), theta)
	}
	return s
}

// next maps a uniform u in [0,1) to a zipf-distributed rank in [0, n).
func (z *zipfGen) next(u float64) int64 {
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+z.half {
		return 1
	}
	// x^alpha as exp(alpha·ln x): the same key as math.Pow on every draw
	// TestZipfExpMatchesPow makes, at a third of its price.
	k := int64(float64(z.n) * math.Exp(z.alpha*math.Log(z.eta*u-z.eta+1)))
	if k < 0 {
		k = 0
	}
	if k >= z.n {
		k = z.n - 1
	}
	return k
}

// ZipfKey draws a zipf-skewed key in [0, keyRange): key 0 is the hottest,
// and theta in (0, 1) sets the skew (YCSB's default hot-key skew is 0.99;
// theta <= 0 degrades to the uniform Key). The generator state is cached
// in the RNG and rebuilt only when keyRange or theta change, so steady-
// state draws are O(1); the first call for a given shape pays an
// O(keyRange) zeta sum. Callers that want hot keys scattered across the
// key space rather than clustered at 0 can hash the returned rank.
func (r *RNG) ZipfKey(keyRange int64, theta float64) int64 {
	if theta <= 0 || keyRange <= 1 {
		return r.Key(keyRange)
	}
	if theta >= 1 {
		// The Gray formula needs theta != 1; clamp just below, which is
		// indistinguishable at benchmark sample sizes.
		theta = 1 - 1e-9
	}
	if r.zipf == nil || r.zipf.n != keyRange || r.zipf.theta != theta {
		r.zipf = newZipfGen(keyRange, theta)
	}
	// 53-bit mantissa uniform in [0,1).
	u := float64(r.Next()>>11) / (1 << 53)
	return r.zipf.next(u)
}
