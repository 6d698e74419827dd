package plan

import (
	"context"
	"math"
	"testing"

	"neutronsim/internal/device"
	"neutronsim/internal/physics"
	"neutronsim/internal/rng"
	"neutronsim/internal/spectrum"
	"neutronsim/internal/telemetry"
	"neutronsim/internal/units"
)

// TestStratifiedPlanMatchesReference checks the plans the cache builds
// against a high-statistics Monte Carlo reference: 2²¹ energies drawn once
// per beamline. For every catalog device on both beamlines, exact and
// Bias{Thermal: 10}, the plan's meanP and its per-band shares of
// interaction mass must lie within 3 standard errors of the reference's.
// A plan calibrated on 20,000 stream draws carries a 0.3–0.6% error in
// meanP, about ten reference standard errors, so it fails this check;
// the stratified point set leaves only its quadrature error.
func TestStratifiedPlanMatchesReference(t *testing.T) {
	const (
		refSamples = 1 << 21
		calSamples = 20000
		tolSE      = 3
	)
	c := NewCache(64, telemetry.NewRegistry())
	energies := make([]units.Energy, refSamples)
	for si, sp := range []*spectrum.Mixture{spectrum.ChipIR(), spectrum.ROTAX()} {
		s := rng.NewSequence(0x5EFE7E11CE, uint64(si))
		for i := range energies {
			energies[i] = sp.Sample(s)
		}
		for _, d := range device.All() {
			ref := referenceOf(d, energies)
			for _, bias := range []*Bias{nil, {Thermal: 10}} {
				pl := c.ForBiasedContext(context.Background(), d, sp, calSamples, bias)
				name := d.Name + "/" + sp.Name()
				if bias != nil {
					name += "/biased"
				}
				if dev := math.Abs(pl.MeanP() - ref.meanP); dev > tolSE*ref.meanSE {
					t.Errorf("%s: meanP %.6g is %.1f SE from the reference %.6g", name, pl.MeanP(), dev/ref.meanSE, ref.meanP)
				}
				share := interactionShares(pl)
				for b := range share {
					if dev := math.Abs(share[b] - ref.share[b]); dev > tolSE*ref.shareSE[b] {
						t.Errorf("%s: band %d holds %.6g of the interaction mass, %.3g from the reference %.6g (SE %.3g)",
							name, b, share[b], dev, ref.share[b], ref.shareSE[b])
					}
				}
			}
		}
	}
}

// reference is a Monte Carlo estimate of a device's mean interaction
// probability and of each band's share of it, with standard errors.
type reference struct {
	meanP, meanSE  float64
	share, shareSE [physics.NumBands + 1]float64
}

// referenceOf estimates the reference from sampled energies. A band's
// share s = S_b/S is a ratio estimate; its standard error is
// sqrt(Σ p²(1{b} − s)²)/S, summed here from the per-band Σp and Σp².
func referenceOf(d *device.Device, energies []units.Energy) reference {
	var sum, sq [physics.NumBands + 1]float64
	var total, totalSq float64
	for _, e := range energies {
		p := d.InteractionProbability(e)
		b := physics.Classify(e)
		sum[b] += p
		sq[b] += p * p
		total += p
		totalSq += p * p
	}
	n := float64(len(energies))
	r := reference{meanP: total / n}
	r.meanSE = math.Sqrt((totalSq/n - r.meanP*r.meanP) / (n - 1))
	if total == 0 {
		return r
	}
	for b := range sum {
		s := sum[b] / total
		r.share[b] = s
		r.shareSE[b] = math.Sqrt((1-s)*(1-s)*sq[b]+s*s*(totalSq-sq[b])) / total
	}
	return r
}

// interactionShares reads each band's share of a plan's interaction mass
// off its alias table: the band's probability under the table's draw,
// times the band's likelihood weight (1 on an exact plan), which undoes a
// biased table's factors.
func interactionShares(p *CampaignPlan) [physics.NumBands + 1]float64 {
	var share [physics.NumBands + 1]float64
	for _, sl := range p.slots {
		share[physics.Classify(sl.self)] += sl.prob
		share[physics.Classify(sl.alias)] += 1 - sl.prob
	}
	for b := range share {
		share[b] *= p.bandW[b] / float64(len(p.slots))
	}
	return share
}
