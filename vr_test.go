package neutronsim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"neutronsim/internal/beam"
	"neutronsim/internal/device"
	"neutronsim/internal/physics"
	"neutronsim/internal/plan"
	"neutronsim/internal/spectrum"
	"neutronsim/internal/stats"
)

// The E3 variance-reduction comparison (EXPERIMENTS.md E3): thermal-band
// DUEs of the boron-loaded Zynq FPGA under the ChipIR fast spectrum, where
// the thermal-capture channel holds about 1% of the interaction mass. The
// same campaign runs three ways — exact, zero-bias (the identity check)
// and thermally biased — and the comparison reports how many times fewer
// neutrons the biased campaign needs to match the exact campaign's 95% CI
// width on that channel. The vr row of BenchmarkGates holds the floor.
const (
	// vrRunSeconds keeps runs short. A run's likelihood weight is the
	// product of its draws' weights, so the campaign must stay in the
	// rare-event regime of O(1) draws per run or the weight products, and
	// with them the effective sample size, degenerate exponentially
	// (DESIGN.md §14).
	vrRunSeconds = 0.03
	// vrSensitiveFraction boosts the device so the comparison gathers real
	// statistics in seconds of wall time; both campaigns scale
	// identically, so the reduction factor is unaffected.
	vrSensitiveFraction = 0.2
	vrThermalFactor     = 60 // oversampling factor of the biased campaign
	vrSeed              = 4242
	vrCalSamples        = 2000
	vrShardGrain        = 1024
)

// vrConfig is the exact E3 campaign over the given beam time. The beam
// time must be long enough that the exact campaign records a handful of
// thermal-band DUEs, otherwise the exact CI width is meaningless.
func vrConfig(durationSeconds float64) beam.Config {
	dut := *device.FPGA()
	dut.SensitiveFraction = vrSensitiveFraction
	return beam.Config{
		Device:          &dut,
		WorkloadName:    "MxM",
		Beam:            spectrum.ChipIR(),
		DurationSeconds: durationSeconds,
		RunSeconds:      vrRunSeconds,
		Seed:            vrSeed,
		CalSamples:      vrCalSamples,
		ShardGrain:      vrShardGrain,
	}
}

// vrReport is the outcome of one E3 comparison.
type vrReport struct {
	// IdentityBitExact records whether the zero-bias campaign reproduced
	// the exact campaign bit for bit (Weighted section stripped).
	IdentityBitExact bool
	// ExactThermalDUE is the exact campaign's thermal-band DUE count;
	// BiasedThermalDUEHits and BiasedChannelESS are the biased campaign's
	// history count and effective sample size on the same channel.
	ExactThermalDUE      int64
	BiasedThermalDUEHits int64
	BiasedChannelESS     float64
	// NeutronBudgetReduction is the headline number: how many times fewer
	// neutrons the biased campaign needs to match the exact campaign's CI
	// width on the thermal-DUE channel. CI widths shrink with the square
	// root of the budget, so the factor is (exact width / biased width)².
	NeutronBudgetReduction float64
	// ESSPerSecond is the effective neutron budget behind the whole biased
	// campaign divided by its wall time.
	ESSPerSecond float64
}

// compareVR runs the three campaigns over the given beam time and
// assembles the report. It fails rather than report a vacuous comparison:
// the exact campaign must record at least one thermal-band DUE and the
// biased campaign must put weight on the channel.
func compareVR(durationSeconds float64) (*vrReport, error) {
	ctx := context.Background()
	cfg := vrConfig(durationSeconds)
	exact, err := beam.RunContext(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("exact campaign: %w", err)
	}

	unitCfg := cfg
	unitCfg.Bias = &plan.Bias{}
	unit, err := beam.RunContext(ctx, unitCfg)
	if err != nil {
		return nil, fmt.Errorf("zero-bias campaign: %w", err)
	}
	if unit.Weighted == nil {
		return nil, errors.New("zero-bias campaign carries no Weighted section")
	}
	stripped := *unit
	stripped.Weighted = nil
	identity := reflect.DeepEqual(&stripped, exact)

	// The exact campaign does not attribute DUEs to bands (that tally only
	// exists on the weighted path); the zero-bias run is bit-identical to
	// it, so its raw per-band history counts are the exact counts.
	exactThermal := unit.Weighted.DUEByBand[physics.BandThermal].N
	if exactThermal == 0 {
		return nil, fmt.Errorf("exact campaign recorded no thermal-band DUEs in %v beam seconds", durationSeconds)
	}
	exactEst, err := stats.EstimateRate(exactThermal, float64(exact.Fluence))
	if err != nil {
		return nil, fmt.Errorf("exact estimate: %w", err)
	}
	relExact := (exactEst.Upper - exactEst.Lower) / exactEst.Rate

	biasedCfg := cfg
	biasedCfg.Bias = &plan.Bias{Thermal: vrThermalFactor}
	start := time.Now()
	biased, err := beam.RunContext(ctx, biasedCfg)
	if err != nil {
		return nil, fmt.Errorf("biased campaign: %w", err)
	}
	wall := time.Since(start).Seconds()
	wt := biased.Weighted.DUEByBand[physics.BandThermal]
	if wt.Sum() <= 0 {
		return nil, errors.New("biased campaign put no weight on the thermal-DUE channel")
	}
	biasedEst, err := stats.EstimateWeightedRate(wt, float64(biased.Fluence))
	if err != nil {
		return nil, fmt.Errorf("biased estimate: %w", err)
	}
	ratio := relExact / ((biasedEst.Upper - biasedEst.Lower) / biasedEst.Rate)
	return &vrReport{
		IdentityBitExact:       identity,
		ExactThermalDUE:        exactThermal,
		BiasedThermalDUEHits:   wt.N,
		BiasedChannelESS:       wt.ESS(),
		NeutronBudgetReduction: ratio * ratio,
		ESSPerSecond:           biased.Weighted.Draws.ESS() / wall,
	}, nil
}

// TestVRCompareQuick runs a shortened E3 comparison as a tier-1 smoke
// test: the identity check must hold and the report must be coherent. The
// 20× reduction floor is only enforced at full statistics, by the vr row
// of BenchmarkGates — a 6000-second campaign records too few exact
// thermal DUEs to pin a factor.
func TestVRCompareQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping E3 comparison in -short mode")
	}
	rep, err := compareVR(6000)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.IdentityBitExact {
		t.Error("zero-bias campaign diverged from the exact campaign")
	}
	if rep.ExactThermalDUE <= 0 || rep.BiasedThermalDUEHits <= rep.ExactThermalDUE {
		t.Errorf("biased campaign should oversample the thermal-DUE channel: exact %d, biased hits %d",
			rep.ExactThermalDUE, rep.BiasedThermalDUEHits)
	}
	if rep.BiasedChannelESS <= 0 || rep.BiasedChannelESS > float64(rep.BiasedThermalDUEHits) {
		t.Errorf("channel ESS %v outside (0, hits=%d]", rep.BiasedChannelESS, rep.BiasedThermalDUEHits)
	}
	if rep.NeutronBudgetReduction <= 1 {
		t.Errorf("biased campaign is no better than exact: reduction %v", rep.NeutronBudgetReduction)
	}
	if rep.ESSPerSecond <= 0 {
		t.Errorf("ESS per second %v", rep.ESSPerSecond)
	}
}

// BenchmarkVRBiasedCampaign measures the throughput of the biased run
// loop on a small E3 slice (the compiled biased plan is cached after the
// first iteration, so steady state times the weighted runner itself).
func BenchmarkVRBiasedCampaign(b *testing.B) {
	cfg := vrConfig(250)
	cfg.Bias = &plan.Bias{Thermal: vrThermalFactor}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := beam.RunContext(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}
