// Package plan compiles beam-campaign setup — the Monte Carlo calibration
// that turns (device, spectrum, calibration budget, calibration stream)
// into an interaction-alias sampler — into an immutable CampaignPlan, and
// memoizes compiled plans in a process-wide deterministic cache.
//
// PR 4 made the per-neutron draw O(1); after that, the dominant fixed cost
// of a campaign is setup: every beam.Run used to re-run a 20k-sample
// calibration even when sweeping the same device×spectrum pair hundreds of
// times. Because the calibration is a pure function of its inputs, a plan
// compiled once can serve every campaign with the same inputs, and a cache
// hit is provably bit-identical to an uncached run (DESIGN.md §12).
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
	slots []slot

	// Importance-sampling extension (CompileBiased). biased is the alias
	// table over the band-biased calibration weights — nil for exact
	// plans — and bandW[b] is the likelihood weight every draw landing in
	// band b carries: S'/(S·factor(b)), where S and S' are the exact and
	// biased calibration mass. The weight depends only on the band, so
	// the weighted draw needs no per-slot storage beyond the exact
	// 32-byte layout.
	biased []slot
	bandW  [physics.NumBands + 1]float64
	bias   Bias
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

// Fingerprinted is implemented by spectra whose sampling behavior can be
// content-hashed (the catalog Mixture and Mono types). Spectra without a
// fingerprint cannot be cache-keyed and bypass the plan cache.
type Fingerprinted interface {
	Fingerprint() string
}

// CalibrationStream derives the calibration substream for a campaign seed.
// It reproduces exactly the stream beam.RunContext historically fed the
// inline calibration — rng.New(seed).Split() — which is why a plan cached
// under (…, seed) is bit-identical to the sampler an uncached run builds.
func CalibrationStream(seed uint64) *rng.Stream {
	return rng.New(seed).Split()
}

// keyVersion invalidates every cache key when the compile algorithm or the
// set of inputs it reads changes.
const keyVersion = "plan/v1\x00"

// KeyFor returns the canonical cache key for a campaign compilation, or
// ok=false when the spectrum carries no fingerprint. The key hashes every
// input Compile reads and nothing else: the spectrum's sampling identity,
// the exact device fields device.InteractionProbability consults
// (Boron10PerCm2, SensitiveDepthUm, SensitiveFraction), the calibration
// budget, and the campaign seed (the calibration stream is derived from
// it; see CalibrationStream). Fields that only shape the run — die area,
// Qcrit, workload, duration, derating — are deliberately absent, so
// near-duplicate campaigns share one plan.
func KeyFor(d *device.Device, sp spectrum.Spectrum, calSamples int, seed uint64) (string, bool) {
	h, ok := keyHash(d, sp, calSamples, seed)
	if !ok {
		return "", false
	}
	return hex.EncodeToString(h.Sum(nil)), true
}

// keyHash hashes the shared (device physics, spectrum, cal budget, seed)
// key material. KeyFor finalizes it directly; KeyForBiased appends the
// bias factors first, so an exact plan and any biased plan can never
// collide and pre-bias cache keys are unchanged.
func keyHash(d *device.Device, sp spectrum.Spectrum, calSamples int, seed uint64) (hash.Hash, bool) {
	fp, ok := sp.(Fingerprinted)
	if !ok {
		return nil, false
	}
	h := sha256.New()
	h.Write([]byte(keyVersion))
	h.Write([]byte(fp.Fingerprint()))
	var buf [8]byte
	writeU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	writeU64(math.Float64bits(d.Boron10PerCm2))
	writeU64(math.Float64bits(d.SensitiveDepthUm))
	writeU64(math.Float64bits(d.SensitiveFraction))
	writeU64(uint64(calSamples))
	writeU64(seed)
	return h, true
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
	energies, weights, sum := calibrate(d, sp, n, cal)
	return &CampaignPlan{
		slots: buildSlots(energies, weights, sum),
		meanP: sum / float64(n),
	}
}

// calibrate draws the n calibration energies and their interaction
// probabilities, Kahan-summing the probability mass. It is the shared
// front half of Compile and CompileBiased — both consume the stream
// identically, which is what makes a zero-bias plan's exact table
// bit-identical to an unbiased plan's.
func calibrate(d *device.Device, sp spectrum.Spectrum, n int, cal *rng.Stream) ([]units.Energy, []float64, float64) {
	energies := make([]units.Energy, n)
	weights := make([]float64, n)
	var sum, comp float64
	for i := 0; i < n; i++ {
		e := sp.Sample(cal)
		p := d.InteractionProbability(e)
		energies[i] = e
		weights[i] = p
		y := p - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return energies, weights, sum
}

// buildSlots fuses an alias table over weights into 32-byte slots. A
// non-positive total falls back to uniform selection over the calibration
// energies (prob 1 ⇒ always self), the degenerate nothing-interacts case.
func buildSlots(energies []units.Energy, weights []float64, sum float64) []slot {
	slots := make([]slot, len(energies))
	if sum <= 0 {
		for i := range slots {
			slots[i] = slot{prob: 1, self: energies[i], alias: energies[i]}
		}
		return slots
	}
	at, err := rng.NewAliasTable(weights)
	if err != nil {
		// Unreachable: interaction probabilities are finite, non-negative,
		// and sum > 0 was checked above.
		panic(fmt.Sprintf("plan: alias table over interaction probabilities: %v", err))
	}
	for i := range slots {
		pr, a := at.Slot(i)
		slots[i] = slot{prob: pr, self: energies[i], alias: energies[a]}
	}
	return slots
}

// Key returns the plan's cache key, or "" for plans compiled outside the
// cache (direct Compile calls and fingerprint-less spectra).
func (p *CampaignPlan) Key() string { return p.key }

// MeanP returns the calibration's mean interaction probability — the
// quantity that converts beam flux × die area into an interaction rate.
func (p *CampaignPlan) MeanP() float64 { return p.meanP }

// Len returns the calibration-table size.
func (p *CampaignPlan) Len() int { return len(p.slots) }

// SampleInteraction draws an interacting energy (weighted by interaction
// probability) in constant time through the plan's exact Sampler view. It
// performs no allocations.
func (p *CampaignPlan) SampleInteraction(s *rng.Stream) units.Energy {
	return p.Sampler().Sample(s)
}

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

// Sampler is the batch-friendly view of the plan's exact alias table: the
// fused 32-byte slot slice hoisted into a value the run loop keeps on its
// own stack, so a batched classify pass does not reload the plan pointer
// and re-derive the slice header on every draw.
type Sampler struct {
	slots []slot
}

// Sampler returns the plan's exact-table sampling view.
func (p *CampaignPlan) Sampler() Sampler { return Sampler{slots: p.slots} }

// Sample draws one interacting energy.
func (v Sampler) Sample(s *rng.Stream) units.Energy { return draw(v.slots, s) }

// WeightedSampler is Sampler for the weighted (importance-sampled) draw:
// the active alias table — biased when the plan carries one, exact
// otherwise — and the per-band likelihood weights, hoisted by value. On
// an exact plan every weight is 1 and the draw consumes the stream
// exactly like the exact sampler.
type WeightedSampler struct {
	slots []slot
	bandW [physics.NumBands + 1]float64
}

// WeightedSampler returns the plan's weighted sampling view.
func (p *CampaignPlan) WeightedSampler() WeightedSampler {
	v := WeightedSampler{slots: p.biased, bandW: p.bandW}
	if p.biased == nil {
		v.slots = p.slots
		for b := range v.bandW {
			v.bandW[b] = 1
		}
	}
	return v
}

// Sample draws one interacting energy with its likelihood weight: one
// uniform, one 32-byte slot read, plus a band classification (two
// comparisons) to look the weight up.
func (v WeightedSampler) Sample(s *rng.Stream) (units.Energy, float64) {
	e := draw(v.slots, s)
	return e, v.bandW[physics.Classify(e)]
}

// Checksum content-hashes the compiled plan (meanP and every slot). Two
// plans with equal checksums are bit-identical samplers; the conformance
// suite uses this to prove a cache hit returns exactly the plan a fresh
// Compile would build.
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
	if p.biased != nil {
		// Biased extension appended after the exact stream, so exact
		// plans checksum exactly as before and a biased plan can never
		// checksum-collide with its exact counterpart.
		h.Write([]byte("bias\x00"))
		for _, w := range p.bandW {
			writeF64(w)
		}
		for i := range p.biased {
			writeF64(p.biased[i].prob)
			writeF64(float64(p.biased[i].self))
			writeF64(float64(p.biased[i].alias))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
