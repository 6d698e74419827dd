// Package rng provides the deterministic random number generation used by
// every simulator in neutronsim.
//
// All stochastic components draw from a *Stream, a PCG-XSL-RR-128/64
// generator. Streams are cheap to create and splittable: Split derives an
// independent child stream from a parent, so concurrent simulation shards
// (multiple boards on the ChipIR beam, detector tubes, DRAM banks) get
// reproducible, non-overlapping randomness from a single experiment seed.
package rng

import (
	"math"
	"math/bits"
)

// Stream is a deterministic pseudo-random stream (PCG-XSL-RR 128/64).
// The zero value is not usable; construct streams with New or Split.
type Stream struct {
	stateHi, stateLo uint64
	incHi, incLo     uint64

	// cached spare normal variate for Normal().
	hasSpare bool
	spare    float64
}

// PCG 128-bit multiplier (Melissa O'Neill's reference constant).
const (
	mulHi = 2549297995355413924
	mulLo = 4865540595714422341
)

// New returns a stream seeded from seed with the default sequence selector.
func New(seed uint64) *Stream {
	return NewSequence(seed, 0xda3e39cb94b95bdb)
}

// NewSequence returns a stream seeded from seed on an explicit sequence.
// Distinct sequence values yield statistically independent streams even for
// identical seeds.
func NewSequence(seed, seq uint64) *Stream {
	s := &Stream{}
	// The increment must be odd; fold the sequence id into both halves.
	s.incHi = splitmix(seq)
	s.incLo = splitmix(seq+0x9e3779b97f4a7c15) | 1
	s.stateHi = 0
	s.stateLo = 0
	s.step()
	s.addState(splitmix(seed), splitmix(seed+0x632be59bd9b4e019))
	s.step()
	return s
}

// splitmix is the SplitMix64 finalizer, used to decorrelate raw seeds.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (s *Stream) addState(hi, lo uint64) {
	var carry uint64
	s.stateLo, carry = bits.Add64(s.stateLo, lo, 0)
	s.stateHi, _ = bits.Add64(s.stateHi, hi, carry)
}

// step advances the 128-bit LCG state.
func (s *Stream) step() {
	// state = state*mul + inc (mod 2^128)
	hi, lo := bits.Mul64(s.stateLo, mulLo)
	hi += s.stateHi*mulLo + s.stateLo*mulHi
	var carry uint64
	lo, carry = bits.Add64(lo, s.incLo, 0)
	hi, _ = bits.Add64(hi, s.incHi, carry)
	s.stateHi, s.stateLo = hi, lo
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Stream) Uint64() uint64 {
	s.step()
	// XSL-RR output function: xor-fold the state, then rotate by the top bits.
	xored := s.stateHi ^ s.stateLo
	rot := uint(s.stateHi >> 58)
	return bits.RotateLeft64(xored, -int(rot))
}

// Split derives an independent child stream. The parent advances by one
// draw, so successive Splits produce distinct children.
func (s *Stream) Split() *Stream {
	seed := s.Uint64()
	seq := s.Uint64()
	return NewSequence(seed, seq|1)
}

// Float64 returns a uniform value in [0, 1).
func (s *Stream) Float64() float64 { return float64(s.Uint64()>>11) / (1 << 53) }

// Float64Open returns a uniform value in (0, 1), safe for log transforms.
func (s *Stream) Float64Open() float64 {
	for {
		v := s.Float64()
		if v > 0 {
			return v
		}
	}
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's unbiased method.
func (s *Stream) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	hi, lo := bits.Mul64(s.Uint64(), n)
	if lo < n {
		threshold := -n % n
		for lo < threshold {
			hi, lo = bits.Mul64(s.Uint64(), n)
		}
	}
	return hi
}

// Bool returns a fair coin flip.
func (s *Stream) Bool() bool { return s.Uint64()&1 == 1 }

// Bernoulli returns true with probability p (clamped to [0,1]).
func (s *Stream) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Exponential returns a draw from Exp(rate); the mean is 1/rate.
// It panics if rate <= 0.
func (s *Stream) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exponential with non-positive rate")
	}
	return -math.Log(s.Float64Open()) / rate
}

// Normal returns a standard normal draw (Marsaglia polar method).
func (s *Stream) Normal() float64 {
	if s.hasSpare {
		s.hasSpare = false
		return s.spare
	}
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		r2 := u*u + v*v
		if r2 >= 1 || r2 == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(r2) / r2)
		s.spare = v * f
		s.hasSpare = true
		return u * f
	}
}

// NormalMeanStd returns a normal draw with the given mean and standard
// deviation.
func (s *Stream) NormalMeanStd(mean, std float64) float64 {
	return mean + std*s.Normal()
}

// LogNormal returns a draw whose logarithm is Normal(mu, sigma).
func (s *Stream) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*s.Normal())
}

// Poisson returns a draw from Poisson(mean). Small means use Knuth's
// product method; large means use a normal approximation with continuity
// correction, which is accurate to well under the statistical noise for the
// count magnitudes simulated here (detector hourly counts, error tallies).
func (s *Stream) Poisson(mean float64) int64 {
	switch {
	case mean <= 0:
		return 0
	case mean < 30:
		return s.knuthPoisson(1, 0, math.Exp(-mean))
	default:
		v := math.Round(s.NormalMeanStd(mean, math.Sqrt(mean)))
		if v < 0 {
			return 0
		}
		return int64(v)
	}
}

// PoissonRun draws successive Poisson(mean) run counts up to limit runs
// and stops at the first nonzero one. It returns the number of leading
// empty runs and the nonzero count, which is 0 when all limit runs are
// empty. Below mean 30 it costs O(1) per call whatever the number of empty
// runs: the empty runs before an interacting one are geometric,
// P(zeros ≥ g) = e^(−mean·g), so zeros = ⌊−ln U / mean⌋, cut at limit
// exactly because the geometric distribution is memoryless; the count of
// the interacting run is zero-truncated Poisson, Knuth's product method
// started from a first uniform conditioned to lie above e^-mean. Every
// count is still an independent Poisson(mean). From mean 30 up it makes
// one Poisson draw per run.
func (s *Stream) PoissonRun(mean float64, limit int) (zeros int, n int64) {
	switch {
	case mean <= 0 || limit <= 0:
		return max(limit, 0), 0
	case mean < 30:
		g := -math.Log(s.Float64Open()) / mean
		if g >= float64(limit) {
			return limit, 0
		}
		expNeg := math.Exp(-mean)
		return int(g), s.knuthPoisson(expNeg-math.Expm1(-mean)*s.Float64(), 1, expNeg)
	}
	for ; zeros < limit; zeros++ {
		if n = s.Poisson(mean); n != 0 {
			return zeros, n
		}
	}
	return zeros, 0
}

// knuthPoisson is Knuth's product method, resumed from the running
// product p after k factors: multiply uniforms until the product drops
// to exp(-mean) or below; the number of factors minus one is the draw.
// Poisson and PoissonRun share it.
func (s *Stream) knuthPoisson(p float64, k int64, expNegMean float64) int64 {
	for {
		p *= s.Float64()
		if p <= expNegMean {
			return k
		}
		k++
	}
}

// MaxwellEnergy returns a kinetic energy drawn from a Maxwell-Boltzmann
// distribution with temperature kT (in the same unit as the return value).
// The energy of a particle with Maxwellian velocity components is
// E = kT/2 * (z1²+z2²+z3²) with zi standard normal.
func (s *Stream) MaxwellEnergy(kT float64) float64 {
	z1, z2, z3 := s.Normal(), s.Normal(), s.Normal()
	return 0.5 * kT * (z1*z1 + z2*z2 + z3*z3)
}

// WattEnergy returns an energy (MeV) drawn from a Watt fission-like
// spectrum p(E) ∝ exp(-E/a)·sinh(sqrt(b·E)), the classic analytic shape
// used for fast-neutron sources. a is in MeV, b in 1/MeV.
func (s *Stream) WattEnergy(a, b float64) float64 {
	// Standard sampling scheme (e.g. MCNP manual): sample from a Maxwellian
	// and shift.
	k := 1 + a*b/8
	l := a * (k + math.Sqrt(k*k-1))
	m := l/a - 1
	for {
		x := -math.Log(s.Float64Open())
		y := -math.Log(s.Float64Open())
		d := y - m*(x+1)
		if d*d <= b*l*x {
			return l * x
		}
	}
}

// LogUniform samples a value in [lo, hi] uniform in log-space.
func (s *Stream) LogUniform(lo, hi float64) float64 {
	if lo <= 0 || hi < lo {
		panic("rng: LogUniform requires 0 < lo <= hi")
	}
	return lo * math.Exp(s.Float64()*math.Log(hi/lo))
}
