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

	// Read-ahead buffer (see ReadAhead): outputs pre-generated in batch,
	// served in generation order. ahead is the refill size; zero means the
	// buffer is drained and never refilled (unbuffered operation).
	buf   []uint64
	pos   int
	ahead int
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
	if s.pos < len(s.buf) {
		// Buffered read-ahead mode: serve the pre-generated outputs in
		// order. This is the single branch buffering adds to the direct
		// path, and it is perfectly predicted for unbuffered streams
		// (len(buf) == 0 forever).
		v := s.buf[s.pos]
		s.pos++
		return v
	}
	if s.ahead > 0 {
		s.refill()
		s.pos = 1
		return s.buf[0]
	}
	s.step()
	// XSL-RR output function: xor-fold the state, then rotate by the top bits.
	xored := s.stateHi ^ s.stateLo
	rot := uint(s.stateHi >> 58)
	return bits.RotateLeft64(xored, -int(rot))
}

// ReadAhead switches the stream into buffered mode: outputs are
// pre-generated n at a time into a fixed buffer by a tight batch loop
// (state kept in registers across the whole refill instead of loaded and
// stored per draw) and every draw method serves from that buffer in
// generation order. The served sequence is bit-identical to the
// unbuffered stream's — buffering moves only WHEN the generator advances,
// never what it produces — so data-dependent consumers (Poisson loops,
// rejection sampling, device physics) observe exactly the draws they
// would have observed unbuffered, across any number of refill
// boundaries. This is the sequence-preserving buffered uniform source the
// batched beam run loop fills once per batch (DESIGN.md §16).
//
// n <= 0 returns the stream to unbuffered operation: draws already
// generated into the buffer are still served first (dropping them would
// skip sequence values), then the stream steps directly again.
//
// The buffer is (re)allocated here, never during refills, so a run loop
// that enables read-ahead at setup stays allocation-free in steady state.
// The one draw-time cost is a single extra predictable branch in Uint64.
func (s *Stream) ReadAhead(n int) {
	if n <= 0 {
		s.ahead = 0
		return
	}
	s.ahead = n
	if cap(s.buf) < n {
		pending := s.buf[s.pos:]
		grown := make([]uint64, len(pending), n)
		copy(grown, pending)
		s.buf, s.pos = grown, 0
	}
}

// refill regenerates the read-ahead buffer. Only called with every
// buffered value served, so it never overwrites pending outputs.
func (s *Stream) refill() {
	s.buf = s.buf[:s.ahead]
	s.fillRaw(s.buf)
	s.pos = 0
}

// Fill overwrites buf with the stream's next len(buf) Uint64 outputs —
// the batch equivalent of len(buf) successive Uint64 calls, bit for bit.
// Any outputs already pre-generated by ReadAhead are served first; the
// rest come from the tight batch generator.
func (s *Stream) Fill(buf []uint64) {
	n := copy(buf, s.buf[s.pos:])
	s.pos += n
	s.fillRaw(buf[n:])
}

// fillRaw batch-generates len(buf) outputs directly from the generator,
// bypassing the read-ahead buffer. The 128-bit state and increment live
// in locals for the whole loop, which is where batch filling beats
// per-call stepping: one state load/store pair per batch instead of per
// draw.
func (s *Stream) fillRaw(buf []uint64) {
	hi, lo := s.stateHi, s.stateLo
	incHi, incLo := s.incHi, s.incLo
	for i := range buf {
		h, l := bits.Mul64(lo, mulLo)
		h += hi*mulLo + lo*mulHi
		var carry uint64
		l, carry = bits.Add64(l, incLo, 0)
		h, _ = bits.Add64(h, incHi, carry)
		hi, lo = h, l
		buf[i] = bits.RotateLeft64(h^l, -int(h>>58))
	}
	s.stateHi, s.stateLo = hi, lo
}

// Split derives an independent child stream. The parent advances by one
// draw, so successive Splits produce distinct children.
func (s *Stream) Split() *Stream {
	seed := s.Uint64()
	seq := s.Uint64()
	return NewSequence(seed, seq|1)
}

// Float64 returns a uniform value in [0, 1).
func (s *Stream) Float64() float64 { return Float64From(s.Uint64()) }

// Float64From maps one raw Uint64 output to the uniform Float64 derives
// from it, for samplers that batch-generate their outputs with Fill.
func Float64From(x uint64) float64 { return float64(x>>11) / (1 << 53) }

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
		return s.knuthPoisson(math.Exp(-mean))
	default:
		v := math.Round(s.NormalMeanStd(mean, math.Sqrt(mean)))
		if v < 0 {
			return 0
		}
		return int64(v)
	}
}

// PoissonExp is Poisson with a caller-cached exp(-mean). Run loops that
// draw from a fixed-rate Poisson on every iteration (the beam campaign's
// per-run interaction count) pay math.Exp once at setup instead of per
// draw. It consumes the stream draw-for-draw exactly like Poisson(mean)
// whenever expNegMean == math.Exp(-mean), which the beam run-loop test
// pins.
func (s *Stream) PoissonExp(mean, expNegMean float64) int64 {
	switch {
	case mean <= 0:
		return 0
	case mean < 30:
		return s.knuthPoisson(expNegMean)
	default:
		return s.Poisson(mean)
	}
}

// knuthPoisson is Knuth's product method: multiply uniforms until the
// product drops below exp(-mean); the number of factors minus one is the
// draw. Shared by Poisson and PoissonExp so the two are draw-for-draw
// identical by construction.
func (s *Stream) knuthPoisson(expNegMean float64) int64 {
	var k int64
	p := 1.0
	for {
		p *= s.Float64()
		if p <= expNegMean {
			return k
		}
		k++
	}
}

// Binomial returns a draw from Binomial(n, p). It uses direct simulation
// for small n and a Poisson/normal approximation for large n, matching the
// accuracy needs of error tallies.
func (s *Stream) Binomial(n int64, p float64) int64 {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	mean := float64(n) * p
	switch {
	case n <= 64:
		var k int64
		for i := int64(0); i < n; i++ {
			if s.Float64() < p {
				k++
			}
		}
		return k
	case mean < 20:
		// Rare-event regime: Poisson approximation, truncated to n.
		k := s.Poisson(mean)
		if k > n {
			k = n
		}
		return k
	default:
		v := math.Round(s.NormalMeanStd(mean, math.Sqrt(mean*(1-p))))
		if v < 0 {
			return 0
		}
		if v > float64(n) {
			return n
		}
		return int64(v)
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

// PowerLawEnergy samples E in [lo, hi] from p(E) ∝ E^(-gamma).
func (s *Stream) PowerLawEnergy(lo, hi, gamma float64) float64 {
	if lo <= 0 || hi <= lo {
		panic("rng: PowerLawEnergy requires 0 < lo < hi")
	}
	u := s.Float64()
	if math.Abs(gamma-1) < 1e-12 {
		return lo * math.Pow(hi/lo, u)
	}
	g := 1 - gamma
	return math.Pow(math.Pow(lo, g)+u*(math.Pow(hi, g)-math.Pow(lo, g)), 1/g)
}

// LogUniform samples a value in [lo, hi] uniform in log-space.
func (s *Stream) LogUniform(lo, hi float64) float64 {
	if lo <= 0 || hi < lo {
		panic("rng: LogUniform requires 0 < lo <= hi")
	}
	return lo * math.Exp(s.Float64()*math.Log(hi/lo))
}

// Shuffle randomizes the order of n elements via the provided swap function.
func (s *Stream) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Perm returns a random permutation of [0, n).
func (s *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}
