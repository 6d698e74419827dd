// Package plan compiles beam-campaign setup — the calibration that turns
// (device, spectrum, calibration budget, calibration points) into an
// interaction-alias sampler — into an immutable CampaignPlan, and memoizes
// compiled plans in a process-wide deterministic cache.
//
// With O(1) draws (DESIGN.md §11), setup is a campaign's dominant fixed
// cost: a 20k-point calibration, which sweeps and fresh-seed traffic
// would repeat for the same device×spectrum pair hundreds of times. A
// cached plan calibrates on the spectrum's deterministic stratified point
// set, so it is a function of the campaign's physics alone: a hit is the
// one plan for its device physics, spectrum, budget and bias, whatever
// the campaign seed (DESIGN.md §12).
package plan

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"

	"neutronsim/internal/device"
	"neutronsim/internal/physics"
	"neutronsim/internal/rng"
	"neutronsim/internal/spectrum"
	"neutronsim/internal/units"
)

// CampaignPlan is one compiled campaign setup: the fused interaction-alias
// slots and the calibration's mean interaction probability. Plans are
// immutable after Compile and safe to share across any number of
// concurrent campaigns — every sampling call takes the caller's stream.
type CampaignPlan struct {
	key   string
	meanP float64
	// slots is the plan's one alias table: over the interaction
	// probabilities for an exact plan, over the band-biased ones for a
	// biased plan (CompileBiased).
	slots []slot

	// Importance-sampling extension (CompileBiased). biased marks a plan
	// whose table is the band-biased one, and bandW[b] is the likelihood
	// weight every draw landing in band b carries: S'/(S·factor(b)), where
	// S and S' are the exact and biased calibration mass (1 in every band
	// for an exact plan). The weight depends only on the band, so the
	// weighted draw needs no per-slot storage beyond the 32-byte layout.
	biased bool
	bandW  [physics.NumBands + 1]float64
}

// slot is one fused alias slot: accept keeps self, reject takes the
// pre-resolved alias energy. Padded to 32 bytes so a draw touches exactly
// one cache line (the layout the beam run loop's zero-alloc benchmarks
// were measured with).
type slot struct {
	prob  float64
	self  units.Energy
	alias units.Energy
	_     float64
}

// CalibrationStream derives the calibration substream for a campaign seed,
// rng.New(seed).Split(), for a stream-calibrated Compile or CompileBiased
// outside the cache.
func CalibrationStream(seed uint64) *rng.Stream {
	return rng.New(seed).Split()
}

// keyVersion invalidates every cache key when the compile algorithm or the
// set of inputs it reads changes.
const keyVersion = "plan/v2\x00"

// KeyFor returns the canonical cache key for a campaign compilation. The
// key hashes every input a cached compile reads and nothing else: the
// spectrum's sampling identity (which fixes its point set), the exact
// device fields device.InteractionProbability consults (Boron10PerCm2,
// SensitiveDepthUm, SensitiveFraction) and the calibration budget. Fields
// that only shape the run — die area, Qcrit, workload, duration, derating,
// and the campaign seed — are deliberately absent, so campaigns with the
// same physics share one plan.
func KeyFor(d *device.Device, sp spectrum.Spectrum, calSamples int) string {
	return hex.EncodeToString(keyHash(d, sp, calSamples).Sum(nil))
}

// keyHash hashes the shared (device physics, spectrum, cal budget) key
// material. KeyFor finalizes it directly; KeyForBiased appends the bias
// factors first, so an exact plan and any biased plan can never collide.
func keyHash(d *device.Device, sp spectrum.Spectrum, calSamples int) hash.Hash {
	h := sha256.New()
	h.Write([]byte(keyVersion))
	h.Write([]byte(sp.Fingerprint()))
	var buf [8]byte
	writeU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	writeU64(math.Float64bits(d.Boron10PerCm2))
	writeU64(math.Float64bits(d.SensitiveDepthUm))
	writeU64(math.Float64bits(d.SensitiveFraction))
	writeU64(uint64(calSamples))
	return h
}

// Compile runs the Monte Carlo calibration and builds the plan: n energies
// drawn from the spectrum, weighted by the device's interaction
// probability, fused with a Walker alias table so a conditioned draw costs
// one uniform variate and one 32-byte slot read. The accumulation is
// Kahan-compensated — with large budgets and long runs of zero (or tiny)
// interaction probabilities a naive sum loses the small weights and skews
// both meanP and the table. The caller owns cal only during the call; the
// returned plan holds no reference to it.
func Compile(d *device.Device, sp spectrum.Spectrum, n int, cal *rng.Stream) *CampaignPlan {
	p, _ := compile(d, sp, n, cal, nil, nil) // only a bias can fail
	return p
}

// compile is the one calibration pass behind every plan. Its n points are
// pts when that is non-nil (a cached plan's stratified set), and otherwise
// n energies sp draws from cal, each with mass 1. Each point writes its
// energy and its table weight straight into its slot: the interaction
// probability times the point's mass for an exact plan (bias nil), times
// its band's factor as well for a biased one, whose bias must pass
// Validate. The exact mass Σ p·mass (n·meanP) and the table's mass are
// Kahan-summed in point order, and the alias table is built in place over
// the slots. Exact and biased compiles read the same points, which is
// what makes an identity-bias table bit-identical to the exact one.
func compile(d *device.Device, sp spectrum.Spectrum, n int, cal *rng.Stream, pts []spectrum.Point, bias *Bias) (*CampaignPlan, error) {
	var factors *[physics.NumBands + 1]float64
	if bias != nil {
		if err := bias.Validate(); err != nil {
			return nil, err
		}
		f := bias.factors()
		factors = &f
	}
	p := &CampaignPlan{slots: make([]slot, n), biased: factors != nil}
	var sum, comp, mass, mcomp float64
	for i := range p.slots {
		pt := spectrum.Point{Mass: 1}
		if pts != nil {
			pt = pts[i]
		} else {
			pt.Energy = sp.Sample(cal)
		}
		e := pt.Energy
		pr := d.InteractionProbability(e) * pt.Mass
		w := pr
		if factors != nil {
			w *= factors[physics.Classify(e)]
		}
		if !(w >= 0) || math.IsInf(w, 1) {
			panic(fmt.Sprintf("plan: calibration weight %v at %v eV is not finite and non-negative", w, e))
		}
		sum, comp = kahanAdd(sum, comp, pr)
		mass, mcomp = kahanAdd(mass, mcomp, w)
		p.slots[i] = slot{prob: w, self: e}
	}
	p.meanP = sum / float64(n)
	fuse(p.slots, mass)
	for b := range p.bandW {
		p.bandW[b] = 1
		if factors != nil && sum > 0 && mass > 0 {
			p.bandW[b] = (mass / sum) / factors[b] // exactly 1.0 for identity factors
		}
	}
	return p, nil
}

// kahanAdd adds x to the compensated sum (sum, comp).
func kahanAdd(sum, comp, x float64) (float64, float64) {
	y := x - comp
	t := sum + y
	return t, (t - sum) - y
}

// fuse turns the weights held in the slots' prob fields, whose Kahan
// total is mass, into the plan's alias table in place: rng.Vose, with each
// alias resolved to its energy, or uniform selection over the calibration
// energies (prob 1 ⇒ always self) when nothing interacts.
func fuse(slots []slot, mass float64) {
	if mass <= 0 {
		for i := range slots {
			slots[i].prob, slots[i].alias = 1, slots[i].self
		}
		return
	}
	n := len(slots)
	prob, alias := make([]float64, n), make([]int32, n)
	for i := range prob {
		prob[i] = slots[i].prob
	}
	rng.Vose(prob, alias, make([]int32, n), mass)
	for i, a := range alias {
		slots[i].prob, slots[i].alias = prob[i], slots[a].self
	}
}

// MeanP returns the calibration's mean interaction probability — the
// quantity that converts beam flux × die area into an interaction rate.
func (p *CampaignPlan) MeanP() float64 { return p.meanP }

// draw is the one alias draw behind every sampler: the integer part of one
// uniform picks a slot, the fractional part decides between the slot's
// energy and its alias. It performs no allocations — it is the innermost
// call of the beam run loop, which TestRunLoopZeroAllocs holds to zero
// allocs/op.
func draw(slots []slot, s *rng.Stream) units.Energy {
	n := len(slots)
	u := s.Float64() * float64(n)
	i := int(u)
	if i >= n {
		i = n - 1
	}
	sl := &slots[i]
	if u-float64(i) < sl.prob {
		return sl.self
	}
	return sl.alias
}

// Sampler is the batch-friendly view of an exact plan's alias table: the
// fused 32-byte slot slice hoisted into a value the run loop keeps on its
// own stack, so a batched classify pass does not reload the plan pointer
// and re-derive the slice header on every draw.
type Sampler struct {
	slots []slot
}

// Sampler returns an exact plan's sampling view. A biased plan's one
// table is the biased one, whose draws mean nothing without their
// likelihood weights, so asking a biased plan for it panics: take its
// WeightedSampler instead.
func (p *CampaignPlan) Sampler() Sampler {
	if p.biased {
		panic("plan: unweighted draw from a biased plan")
	}
	return Sampler{slots: p.slots}
}

// Sample draws one interacting energy.
func (v Sampler) Sample(s *rng.Stream) units.Energy { return draw(v.slots, s) }

// WeightedSampler is Sampler for the weighted (importance-sampled) draw:
// the plan's table and its per-band likelihood weights, hoisted by value.
// On an exact plan every weight is 1 and the draw consumes the stream
// exactly like the exact sampler.
type WeightedSampler struct {
	slots []slot
	bandW [physics.NumBands + 1]float64
}

// WeightedSampler returns the plan's weighted sampling view.
func (p *CampaignPlan) WeightedSampler() WeightedSampler {
	return WeightedSampler{slots: p.slots, bandW: p.bandW}
}

// Sample draws one interacting energy with its likelihood weight: one
// uniform, one 32-byte slot read, plus a band classification (two
// comparisons) to look the weight up.
func (v WeightedSampler) Sample(s *rng.Stream) (units.Energy, float64) {
	e := draw(v.slots, s)
	return e, v.bandW[physics.Classify(e)]
}

// Checksum content-hashes the compiled plan (meanP and every slot, then
// the band weights of a biased plan). Two plans with equal checksums are
// bit-identical samplers; the conformance suite uses this to prove a
// cache hit returns exactly the plan a fresh Compile would build.
func (p *CampaignPlan) Checksum() string {
	h := sha256.New()
	h.Write([]byte("plan.checksum/v1\x00"))
	var buf [8]byte
	writeF64 := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	writeF64(p.meanP)
	for i := range p.slots {
		writeF64(p.slots[i].prob)
		writeF64(float64(p.slots[i].self))
		writeF64(float64(p.slots[i].alias))
	}
	if p.biased {
		// Appended after the table, so exact plans checksum exactly as
		// before and a biased plan can never checksum-collide with its
		// exact counterpart, even under identity factors.
		h.Write([]byte("bias\x00"))
		for _, w := range p.bandW {
			writeF64(w)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
