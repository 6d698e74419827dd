// Package detector simulates Tin-II, the thermal-neutron detector the
// paper built and deployed (§III-D, §VI): two identical ³He proportional
// tubes, one wrapped in cadmium. Cadmium blocks thermal neutrons but
// passes everything else, so the count-rate difference between the bare
// and shielded tubes, scaled by the detection efficiency, measures the
// ambient thermal-neutron flux. The headline experiment places two inches
// of water over the detector and watches the hourly counts jump ~24%
// (Fig. "turkeypan").
package detector

import (
	"context"
	"errors"
	"fmt"
	"math"

	"neutronsim/internal/materials"
	"neutronsim/internal/rng"
	"neutronsim/internal/stats"
	"neutronsim/internal/transport"
	"neutronsim/internal/units"
)

// Config describes the detector hardware.
type Config struct {
	// TubePressureAtm is the ³He fill pressure (default 4 atm).
	TubePressureAtm float64
	// TubeDiameterCm and TubeLengthCm set the sensitive cylinder
	// (defaults 2.54 cm × 30 cm).
	TubeDiameterCm float64
	TubeLengthCm   float64
	// CadmiumThicknessCm is the shield thickness on the second tube
	// (default 0.1 cm — 1 mm).
	CadmiumThicknessCm float64
	// NonThermalRatePerHour is the per-tube rate from everything cadmium
	// does not stop: gammas, betas, fast neutrons (default 120/h).
	NonThermalRatePerHour float64
	// DeadTimeMicros is the non-paralyzable dead time per pulse of the
	// counting chain in microseconds (0 = ideal counter). At Tin-II's
	// natural-background rates the correction is negligible, but it
	// matters when the same instrument is parked in a beam.
	DeadTimeMicros float64
	// EfficiencySamples sets the Monte Carlo budget for the capture
	// efficiency estimate (default 20000).
	EfficiencySamples int
}

func (c Config) withDefaults() Config {
	if c.TubePressureAtm <= 0 {
		c.TubePressureAtm = 4
	}
	if c.TubeDiameterCm <= 0 {
		c.TubeDiameterCm = 2.54
	}
	if c.TubeLengthCm <= 0 {
		c.TubeLengthCm = 30
	}
	if c.CadmiumThicknessCm <= 0 {
		c.CadmiumThicknessCm = 0.1
	}
	if c.NonThermalRatePerHour <= 0 {
		c.NonThermalRatePerHour = 120
	}
	if c.EfficiencySamples <= 0 {
		c.EfficiencySamples = 20000
	}
	return c
}

// FaceAreaCm2 returns the tube's projected sensitive area.
func (c Config) FaceAreaCm2() float64 {
	return c.TubeDiameterCm * c.TubeLengthCm
}

// Detector is a ready-to-count Tin-II instance with a calibrated thermal
// capture efficiency.
type Detector struct {
	cfg Config
	// Efficiency is the probability that a thermal neutron crossing the
	// bare tube is captured on ³He (Monte Carlo, from the transport
	// engine).
	Efficiency float64
	// ShieldLeak is the fraction of thermal neutrons that survive the
	// cadmium shield and get counted by the shielded tube.
	ShieldLeak float64
}

// New builds the detector, running the transport engine to establish the
// tube capture efficiency and the Cd shield leakage.
func New(cfg Config, s *rng.Stream) (*Detector, error) {
	cfg = cfg.withDefaults()
	if s == nil {
		return nil, errors.New("detector: nil rng stream")
	}
	thermal := func(st *rng.Stream) units.Energy { return units.Energy(st.MaxwellEnergy(0.0253)) }
	gas := materials.Helium3Gas(cfg.TubePressureAtm)
	tally, err := transport.SimulateContext(context.Background(), []transport.Slab{
		{Material: gas, Thickness: cfg.TubeDiameterCm},
	}, cfg.EfficiencySamples, thermal, s, transport.Options{})
	if err != nil {
		return nil, fmt.Errorf("detector: efficiency estimate: %w", err)
	}
	eff := float64(tally.AbsorbedByElement["He3"]) / float64(tally.Incident)
	shielded, err := transport.SimulateContext(context.Background(), []transport.Slab{
		{Material: materials.CadmiumSheet(), Thickness: cfg.CadmiumThicknessCm},
		{Material: gas, Thickness: cfg.TubeDiameterCm},
	}, cfg.EfficiencySamples, thermal, s, transport.Options{})
	if err != nil {
		return nil, fmt.Errorf("detector: shield estimate: %w", err)
	}
	leak := float64(shielded.AbsorbedByElement["He3"]) / float64(shielded.Incident)
	return &Detector{cfg: cfg, Efficiency: eff, ShieldLeak: leak}, nil
}

// Config returns the (defaulted) configuration.
func (d *Detector) Config() Config { return d.cfg }

// Gap is the flux-schedule sentinel for an hour with no data (detector
// offline, DAQ restart). Gapped hours record NaN in the series.
const Gap = -1

// Series is an hourly counting record.
type Series struct {
	// Bare and Shielded are per-hour counts for the two tubes.
	Bare     []float64
	Shielded []float64
	// ThermalEstimate is Bare-Shielded, the thermal-neutron signal.
	// Gapped hours are NaN.
	ThermalEstimate []float64
}

// Hours returns the series length.
func (s Series) Hours() int { return len(s.Bare) }

// Interpolated returns a copy of the thermal-estimate series with gaps
// filled by linear interpolation between the nearest valid neighbors
// (edges are held), making the series safe for change-point analysis.
func (s Series) Interpolated() []float64 {
	out := append([]float64(nil), s.ThermalEstimate...)
	n := len(out)
	for i := 0; i < n; i++ {
		if !math.IsNaN(out[i]) {
			continue
		}
		// Find the surrounding valid samples.
		lo := i - 1
		for lo >= 0 && math.IsNaN(out[lo]) {
			lo--
		}
		hi := i
		for hi < n && math.IsNaN(out[hi]) {
			hi++
		}
		switch {
		case lo < 0 && hi >= n:
			out[i] = 0 // fully gapped series
		case lo < 0:
			out[i] = out[hi]
		case hi >= n:
			out[i] = out[lo]
		default:
			f := float64(i-lo) / float64(hi-lo)
			out[i] = out[lo]*(1-f) + out[hi]*f
		}
	}
	return out
}

// Count simulates hourly counting for the given thermal-flux schedule
// (n/cm²/h as a function of hour index).
func (d *Detector) Count(hours int, thermalFluxPerHour func(hour int) float64, s *rng.Stream) (Series, error) {
	if hours <= 0 {
		return Series{}, errors.New("detector: non-positive duration")
	}
	if thermalFluxPerHour == nil {
		return Series{}, errors.New("detector: nil flux schedule")
	}
	out := Series{
		Bare:            make([]float64, hours),
		Shielded:        make([]float64, hours),
		ThermalEstimate: make([]float64, hours),
	}
	area := d.cfg.FaceAreaCm2()
	for h := 0; h < hours; h++ {
		flux := thermalFluxPerHour(h)
		if flux == Gap {
			out.Bare[h] = math.NaN()
			out.Shielded[h] = math.NaN()
			out.ThermalEstimate[h] = math.NaN()
			continue
		}
		if flux < 0 {
			return Series{}, fmt.Errorf("detector: negative flux at hour %d", h)
		}
		thermalMean := flux * area * d.Efficiency
		bareMean := d.observedMeanPerHour(thermalMean + d.cfg.NonThermalRatePerHour)
		bare := float64(s.Poisson(bareMean))
		shieldedMean := d.observedMeanPerHour(flux*area*d.ShieldLeak + d.cfg.NonThermalRatePerHour)
		shielded := float64(s.Poisson(shieldedMean))
		out.Bare[h] = bare
		out.Shielded[h] = shielded
		out.ThermalEstimate[h] = bare - shielded
	}
	return out, nil
}

// observedMeanPerHour applies the non-paralyzable dead-time distortion to
// an hourly true count rate: r_obs = r_true / (1 + r_true·τ).
func (d *Detector) observedMeanPerHour(truePerHour float64) float64 {
	tau := d.cfg.DeadTimeMicros * 1e-6
	if tau <= 0 {
		return truePerHour
	}
	perSecond := truePerHour / 3600
	return 3600 * perSecond / (1 + perSecond*tau)
}

// StepSchedule returns a flux schedule that jumps from base to
// base*(1+enhancement) at changeHour — the water-placement experiment.
func StepSchedule(base, enhancement float64, changeHour int) func(int) float64 {
	return func(h int) float64 {
		if h >= changeHour {
			return base * (1 + enhancement)
		}
		return base
	}
}

// WaterExperiment reproduces the paper's Fig. "turkeypan": several days of
// background counting, then two inches of water placed over the detector.
// The thermal-flux enhancement is computed by the transport engine from
// the water slab's albedo (calibrated coupling; see fit package), and the
// resulting count series is scanned for the step.
type WaterExperimentResult struct {
	Series      Series
	Enhancement float64 // transport-computed flux enhancement (~0.24)
	Change      stats.ChangePoint
	// WaterHour is the hour index at which water was placed.
	WaterHour int
}

// WaterExperimentConfig parameterizes the experiment.
type WaterExperimentConfig struct {
	Detector *Detector
	// BaseThermalFluxPerHour is the building's ambient thermal flux
	// (default 5 n/cm²/h, a LANL-building-like value).
	BaseThermalFluxPerHour float64
	// FastToThermalRatio and Coupling feed the transport enhancement
	// estimate (defaults 3.2 and 0.5 — see fit package calibration).
	FastToThermalRatio float64
	Coupling           float64
	// DaysBefore and DaysAfter set the observation window (defaults 9, 5:
	// water went on 2019-04-20 after several days of background).
	DaysBefore, DaysAfter int
	// WaterThicknessCm is the slab thickness (default 5.08 — two inches).
	WaterThicknessCm float64
	TransportSamples int
}

func (c WaterExperimentConfig) withDefaults() WaterExperimentConfig {
	if c.BaseThermalFluxPerHour <= 0 {
		c.BaseThermalFluxPerHour = 5
	}
	if c.FastToThermalRatio <= 0 {
		c.FastToThermalRatio = 3.2
	}
	if c.Coupling <= 0 {
		c.Coupling = 0.5
	}
	if c.DaysBefore <= 0 {
		c.DaysBefore = 9
	}
	if c.DaysAfter <= 0 {
		c.DaysAfter = 5
	}
	if c.WaterThicknessCm <= 0 {
		c.WaterThicknessCm = 5.08
	}
	if c.TransportSamples <= 0 {
		c.TransportSamples = 20000
	}
	return c
}

// RunWaterExperiment executes the full pipeline: transport → schedule →
// counting → change detection.
func RunWaterExperiment(cfg WaterExperimentConfig, s *rng.Stream) (*WaterExperimentResult, error) {
	return RunWaterExperimentContext(context.Background(), cfg, s)
}

// RunWaterExperimentContext is RunWaterExperiment with a caller context;
// cancellation aborts the transport stage at the next shard boundary and
// skips the pipeline stages that have not started yet.
func RunWaterExperimentContext(ctx context.Context, cfg WaterExperimentConfig, s *rng.Stream) (*WaterExperimentResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Detector == nil {
		return nil, errors.New("detector: nil detector")
	}
	if s == nil {
		return nil, errors.New("detector: nil rng stream")
	}
	fastSource := func(st *rng.Stream) units.Energy {
		return units.Energy(st.WattEnergy(0.988, 2.249) * 1e6)
	}
	enh, err := transport.ThermalEnhancementContext(ctx, transport.EnhancementConfig{
		Moderator:              materials.Water(),
		Thickness:              cfg.WaterThicknessCm,
		FastToThermalFluxRatio: cfg.FastToThermalRatio,
		Coupling:               cfg.Coupling,
		Neutrons:               cfg.TransportSamples,
	}, fastSource, s)
	if err != nil {
		return nil, fmt.Errorf("detector: enhancement: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	waterHour := cfg.DaysBefore * 24
	hours := (cfg.DaysBefore + cfg.DaysAfter) * 24
	series, err := cfg.Detector.Count(hours,
		StepSchedule(cfg.BaseThermalFluxPerHour, enh, waterHour), s)
	if err != nil {
		return nil, err
	}
	change, err := stats.DetectStep(series.Interpolated(), 24, 5)
	if err != nil {
		return nil, err
	}
	return &WaterExperimentResult{
		Series:      series,
		Enhancement: enh,
		Change:      change,
		WaterHour:   waterHour,
	}, nil
}
