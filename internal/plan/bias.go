package plan

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"

	"neutronsim/internal/device"
	"neutronsim/internal/physics"
	"neutronsim/internal/rng"
	"neutronsim/internal/spectrum"
	"neutronsim/internal/stats"
	"neutronsim/internal/units"
)

// Bias is the importance-sampling knob for a campaign: per-band factors
// multiplying the calibration probability mass of each energy band when
// the biased alias table is built. A factor above 1 oversamples the band
// (each of its draws then carries a likelihood weight below 1), a factor
// below 1 undersamples it. A zero field means "unset" and is treated as
// 1.0, so the zero value Bias{} is the identity: it routes the campaign
// through the weighted code path but reproduces the exact results
// bit-for-bit, with every weight exactly 1 (the zero-bias identity the
// equivalence suite pins).
//
// Biasing changes only the conditional energy distribution of interaction
// draws — the interaction rate λ, the run count, and the fluence are
// untouched — so a weighted campaign is a drop-in, unbiased estimator of
// the exact campaign with (ideally much) smaller variance on the
// oversampled band's tallies.
type Bias struct {
	Thermal    float64 `json:"thermal,omitempty"`
	Epithermal float64 `json:"epithermal,omitempty"`
	Fast       float64 `json:"fast,omitempty"`
}

// Validate rejects factors that cannot define a sampling distribution:
// negative, NaN or infinite. Zero is valid (unset ⇒ 1.0).
func (b Bias) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"thermal", b.Thermal}, {"epithermal", b.Epithermal}, {"fast", b.Fast}} {
		if f.v < 0 || math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("plan: bias %s factor %v must be a finite non-negative number (0 means unset)", f.name, f.v)
		}
	}
	return nil
}

// factors resolves the per-band multipliers, mapping unset (zero) fields
// to 1. Index 0 is the out-of-band slot and is always 1.
func (b Bias) factors() [physics.NumBands + 1]float64 {
	eff := func(v float64) float64 {
		if v == 0 {
			return 1
		}
		return v
	}
	var f [physics.NumBands + 1]float64
	f[0] = 1
	f[physics.BandThermal] = eff(b.Thermal)
	f[physics.BandEpithermal] = eff(b.Epithermal)
	f[physics.BandFast] = eff(b.Fast)
	return f
}

// IsIdentity reports whether every effective factor is exactly 1.
func (b Bias) IsIdentity() bool {
	for _, f := range b.factors() {
		if f != 1 {
			return false
		}
	}
	return true
}

// KeyForBiased is KeyFor for importance-sampled plans: the shared key
// material plus a bias tag and the three effective factors. An exact plan
// and a biased plan — or two plans with different factors — always hash
// to distinct keys, so they can never collide in the cache; a factor
// spelled 0 and the same factor spelled 1.0 hash identically because both
// resolve to the same sampler.
func KeyForBiased(d *device.Device, sp spectrum.Spectrum, calSamples int, seed uint64, bias Bias) (string, bool) {
	h, ok := keyHash(d, sp, calSamples, seed)
	if !ok {
		return "", false
	}
	h.Write([]byte("bias/v1\x00"))
	var buf [8]byte
	for _, f := range bias.factors() {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil)), true
}

// CompileBiased compiles a plan carrying both the exact alias table and a
// band-biased one. The calibration pass is shared with Compile — same
// stream consumption, same Kahan accumulation — so the exact table of a
// biased plan is bit-identical to the plan Compile builds, and with
// identity factors the biased table is bit-identical too (every per-band
// weight then computes to exactly 1.0).
//
// The biased table reweights each calibration energy by its band's
// factor; a draw from it carries the likelihood weight
//
//	w(band) = (S'/S) / factor(band)
//
// where S and S' are the exact and biased calibration mass. E[w] = 1
// under the biased distribution, which is exactly the unbiasedness of the
// importance-sampling estimator.
func CompileBiased(d *device.Device, sp spectrum.Spectrum, n int, cal *rng.Stream, bias Bias) (*CampaignPlan, error) {
	if err := bias.Validate(); err != nil {
		return nil, err
	}
	energies, weights, sum := calibrate(d, sp, n, cal)
	p := &CampaignPlan{
		slots: buildSlots(energies, weights, sum),
		meanP: sum / float64(n),
		bias:  bias,
	}
	factors := bias.factors()
	biasedWeights := make([]float64, n)
	var bsum, comp float64
	for i, w := range weights {
		bw := w * factors[physics.Classify(energies[i])]
		biasedWeights[i] = bw
		y := bw - comp
		t := bsum + y
		comp = (t - bsum) - y
		bsum = t
	}
	p.biased = buildSlots(energies, biasedWeights, bsum)
	if sum <= 0 || bsum <= 0 {
		// Degenerate calibration (nothing interacts, before or after
		// biasing — the weights are non-negative, so the two degenerate
		// together). Both tables fell back to uniform selection; unit
		// weights keep the weighted path exactly the exact path.
		for b := range p.bandW {
			p.bandW[b] = 1
		}
		return p, nil
	}
	ratio := bsum / sum // exactly 1.0 for identity factors
	for b := range p.bandW {
		p.bandW[b] = ratio / factors[b]
	}
	return p, nil
}

// IsBiased reports whether the plan carries a biased table (it was built
// by CompileBiased — including with identity factors).
func (p *CampaignPlan) IsBiased() bool { return p.biased != nil }

// Bias returns the bias knob the plan was compiled with, and whether the
// plan is biased at all.
func (p *CampaignPlan) Bias() (Bias, bool) { return p.bias, p.biased != nil }

// BandWeight returns the likelihood weight a draw in the given band
// carries (1 for exact plans and out-of-range bands).
func (p *CampaignPlan) BandWeight(b physics.EnergyBand) float64 {
	if p.biased == nil || int(b) < 0 || int(b) >= len(p.bandW) {
		return 1
	}
	return p.bandW[b]
}

// SampleInteractionWeighted draws an interacting energy from the biased
// table through the plan's WeightedSampler view and returns it with its
// likelihood weight. On an exact plan it degrades to SampleInteraction
// with weight 1, consuming the same stream state.
func (p *CampaignPlan) SampleInteractionWeighted(s *rng.Stream) (units.Energy, float64) {
	return p.WeightedSampler().Sample(s)
}

// UpsetCrossSectionWeighted estimates the device's upset cross section
// from n (biased) interaction draws: σ = MeanP · (Σ wᵢ·1{upsetᵢ})/n ·
// DieArea. On an exact plan it is the interaction-conditioned form of
// device.UpsetCrossSection over the plan's calibration set; on a biased
// plan the likelihood weights keep the estimate unbiased while the
// oversampled band collects far more upset draws. The returned tally
// carries the weighted upset sum and ΣW², so callers can gate the
// estimate on its effective sample size.
func (p *CampaignPlan) UpsetCrossSectionWeighted(d *device.Device, n int, s *rng.Stream) (units.CrossSection, stats.Weighted, error) {
	if d == nil {
		return 0, stats.Weighted{}, errors.New("plan: nil device")
	}
	if n <= 0 {
		return 0, stats.Weighted{}, errors.New("plan: sample count must be positive")
	}
	var upsets stats.Weighted
	sample := p.WeightedSampler()
	for i := 0; i < n; i++ {
		e, w := sample.Sample(s)
		if _, ok := d.InteractionUpset(e, s); ok {
			upsets.Add(w)
		}
	}
	upsets.Finalize()
	return units.CrossSection(p.meanP * upsets.Sum() / float64(n) * d.DieAreaCm2), upsets, nil
}
