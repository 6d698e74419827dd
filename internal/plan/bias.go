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

// CompileBiased compiles a plan whose one alias table is band-biased. The
// calibration pass is Compile's — same stream consumption, same Kahan
// accumulation of the exact mass, which sets meanP — so with identity
// factors the table is bit-identical to the exact plan's (every per-band
// weight then computes to exactly 1.0). The plan carries no exact table:
// every reader of a biased plan draws through its weights.
//
// The biased table reweights each calibration energy by its band's
// factor; a draw from it carries the likelihood weight
//
//	w(band) = (S'/S) / factor(band)
//
// where S and S' are the exact and biased calibration mass. E[w] = 1
// under the biased distribution, which is exactly the unbiasedness of the
// importance-sampling estimator. A degenerate calibration (nothing
// interacts, before or after biasing) falls back to the uniform table
// with unit weights, so the weighted path stays exactly the exact path.
func CompileBiased(d *device.Device, sp spectrum.Spectrum, n int, cal *rng.Stream, bias Bias) (*CampaignPlan, error) {
	if err := bias.Validate(); err != nil {
		return nil, err
	}
	factors := bias.factors()
	return compile(d, sp, n, cal, &factors), nil
}

// IsBiased reports whether the plan's table is the biased one (it was
// built by CompileBiased — including with identity factors).
func (p *CampaignPlan) IsBiased() bool { return p.biased }

// SampleInteractionWeighted draws an interacting energy through the plan's
// WeightedSampler view and returns it with its likelihood weight. On an
// exact plan it degrades to SampleInteraction with weight 1, consuming
// the same stream state.
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
