// Package vr measures the variance reduction the importance-sampled
// transport path delivers on the paper's rare-event campaign (EXPERIMENTS.md
// E3): thermal-band DUEs of the boron-loaded Zynq FPGA under the ChipIR
// fast spectrum, where the thermal-capture channel holds about 1% of the
// interaction mass. It runs the same campaign three ways — exact, zero-bias
// (the identity gate), and thermally biased — and reports how many times
// fewer neutrons the biased campaign needs to match the exact campaign's
// 95% CI width on that channel. The vr row of the root BenchmarkGates
// table fails when the reduction falls below its floor or the zero-bias
// run stops being bit-exact.
package vr

import (
	"errors"
	"fmt"
	"reflect"
	"time"

	"neutronsim/internal/beam"
	"neutronsim/internal/device"
	"neutronsim/internal/physics"
	"neutronsim/internal/plan"
	"neutronsim/internal/spectrum"
	"neutronsim/internal/stats"
)

// Options shapes the E3 comparison campaign. The zero value of any field
// falls back to DefaultOptions.
type Options struct {
	// DurationSeconds is the simulated beam time of each campaign. It must
	// be long enough that the *exact* campaign records a handful of
	// thermal-band DUEs, otherwise the exact CI width is meaningless.
	DurationSeconds float64
	// RunSeconds keeps runs short. A run's likelihood weight is the
	// product of its draws' weights, so the campaign must stay in the
	// rare-event regime of O(1) draws per run or the weight products —
	// and with them the effective sample size — degenerate exponentially
	// (DESIGN.md §14).
	RunSeconds float64
	// SensitiveFraction boosts the device so the comparison gathers real
	// statistics in seconds of wall time; both campaigns scale
	// identically, so the reduction factor is unaffected.
	SensitiveFraction float64
	// ThermalFactor is the oversampling factor of the biased campaign.
	ThermalFactor float64
	Seed          uint64
	CalSamples    int
	ShardGrain    int
}

// DefaultOptions is the full-statistics E3 configuration.
func DefaultOptions() Options {
	return Options{
		DurationSeconds:   24000,
		RunSeconds:        0.03,
		SensitiveFraction: 0.2,
		ThermalFactor:     60,
		Seed:              4242,
		CalSamples:        2000,
		ShardGrain:        1024,
	}
}

func (o Options) withDefaults() Options {
	def := DefaultOptions()
	if o.DurationSeconds <= 0 {
		o.DurationSeconds = def.DurationSeconds
	}
	if o.RunSeconds <= 0 {
		o.RunSeconds = def.RunSeconds
	}
	if o.SensitiveFraction <= 0 {
		o.SensitiveFraction = def.SensitiveFraction
	}
	if o.ThermalFactor <= 0 {
		o.ThermalFactor = def.ThermalFactor
	}
	if o.CalSamples <= 0 {
		o.CalSamples = def.CalSamples
	}
	if o.ShardGrain <= 0 {
		o.ShardGrain = def.ShardGrain
	}
	return o
}

func (o Options) config() beam.Config {
	dut := *device.FPGA()
	dut.SensitiveFraction = o.SensitiveFraction
	return beam.Config{
		Device:          &dut,
		WorkloadName:    "MxM",
		Beam:            spectrum.ChipIR(),
		DurationSeconds: o.DurationSeconds,
		RunSeconds:      o.RunSeconds,
		Seed:            o.Seed,
		CalSamples:      o.CalSamples,
		ShardGrain:      o.ShardGrain,
	}
}

// Report is the outcome of one E3 comparison.
type Report struct {
	// IdentityBitExact records whether the zero-bias campaign reproduced
	// the exact campaign bit-for-bit (Weighted section stripped).
	IdentityBitExact bool

	// Exact side of the comparison: raw thermal-band DUE count and the
	// relative width of its Garwood 95% CI.
	ExactThermalDUE int64
	ExactRelWidth   float64

	// Biased side: history count and weighted sum on the same channel,
	// its effective sample size, and the relative width of the ESS-gated
	// 95% CI at the same neutron budget.
	BiasedThermalDUEHits int64
	BiasedThermalDUESum  float64
	BiasedChannelESS     float64
	BiasedRelWidth       float64

	// NeutronBudgetReduction is the headline number: how many times fewer
	// neutrons the biased campaign needs to match the exact campaign's CI
	// width on the thermal-DUE channel. CI widths shrink with the square
	// root of the budget, so the factor is (exact width / biased width)².
	NeutronBudgetReduction float64

	// DrawsESS is the effective neutron budget behind the whole biased
	// campaign; ESSPerSecond divides it by the campaign's wall time.
	DrawsESS          float64
	BiasedWallSeconds float64
	ESSPerSecond      float64
}

// Compare runs the three campaigns and assembles the report. It fails
// rather than report a vacuous comparison: the exact campaign must record
// at least one thermal-band DUE and the biased campaign must put weight on
// the channel.
func Compare(o Options) (*Report, error) {
	o = o.withDefaults()
	cfg := o.config()
	exact, err := beam.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("vr: exact campaign: %w", err)
	}

	unitCfg := cfg
	unitCfg.Bias = &plan.Bias{}
	unit, err := beam.Run(unitCfg)
	if err != nil {
		return nil, fmt.Errorf("vr: zero-bias campaign: %w", err)
	}
	if unit.Weighted == nil {
		return nil, errors.New("vr: zero-bias campaign carries no Weighted section")
	}
	stripped := *unit
	stripped.Weighted = nil
	identity := reflect.DeepEqual(&stripped, exact)

	// The exact campaign does not attribute DUEs to bands (that tally only
	// exists on the weighted path); the zero-bias run is bit-identical to
	// it, so its raw per-band history counts are the exact counts.
	exactThermal := unit.Weighted.DUEByBand[physics.BandThermal].N
	if exactThermal == 0 {
		return nil, fmt.Errorf("vr: exact campaign recorded no thermal-band DUEs in %v beam seconds; raise DurationSeconds", o.DurationSeconds)
	}
	exactEst, err := stats.EstimateRate(exactThermal, float64(exact.Fluence))
	if err != nil {
		return nil, fmt.Errorf("vr: exact estimate: %w", err)
	}
	relExact := (exactEst.Upper - exactEst.Lower) / exactEst.Rate

	biasedCfg := cfg
	biasedCfg.Bias = &plan.Bias{Thermal: o.ThermalFactor}
	start := time.Now()
	biased, err := beam.Run(biasedCfg)
	if err != nil {
		return nil, fmt.Errorf("vr: biased campaign: %w", err)
	}
	wall := time.Since(start).Seconds()
	wt := biased.Weighted.DUEByBand[physics.BandThermal]
	if wt.Sum() <= 0 {
		return nil, errors.New("vr: biased campaign put no weight on the thermal-DUE channel")
	}
	biasedEst, err := stats.EstimateWeightedRate(wt, float64(biased.Fluence))
	if err != nil {
		return nil, fmt.Errorf("vr: biased estimate: %w", err)
	}
	relBiased := (biasedEst.Upper - biasedEst.Lower) / biasedEst.Rate

	ratio := relExact / relBiased
	return &Report{
		IdentityBitExact: identity,

		ExactThermalDUE: exactThermal,
		ExactRelWidth:   relExact,

		BiasedThermalDUEHits: wt.N,
		BiasedThermalDUESum:  wt.Sum(),
		BiasedChannelESS:     wt.ESS(),
		BiasedRelWidth:       relBiased,

		NeutronBudgetReduction: ratio * ratio,

		DrawsESS:          biased.Weighted.Draws.ESS(),
		BiasedWallSeconds: wall,
		ESSPerSecond:      biased.Weighted.Draws.ESS() / wall,
	}, nil
}
