// Package surrogate owns the design-space cross section: σ_upset as a
// function of ¹⁰B areal density, critical charge, and the beamline's
// band composition. Sigma is its one estimator and EvaluateGrid its one
// grid evaluator; cmd/sweep prints and exports EvaluateGrid's dataset,
// and neutrond's exact xsection path calls Sigma. The paper's headline
// quantities vary smoothly over this space, so a polynomial ridge fit on
// that dataset answers interactive queries in O(µs) where the exact
// Monte Carlo estimator takes milliseconds — the top of neutrond's
// cache → surrogate → exact serving pyramid (DESIGN.md §17).
//
// A fitted Model is versioned by a plan-cache-style content hash
// (SHA-256 over the model tag, the training-grid fingerprint, the
// hyperparameters and the coefficients) and carries the axis-aligned
// hull of its training features plus a certified held-out relative
// error bound. Serving is strictly gated: only queries inside the hull,
// against a spectrum the model was trained on, and with a client
// tolerance at or above the certified bound are answered approximately;
// everything else falls through to the exact estimator unchanged.
package surrogate

import (
	"context"
	"math"

	"neutronsim/internal/device"
	"neutronsim/internal/physics"
	"neutronsim/internal/plan"
	"neutronsim/internal/rng"
	"neutronsim/internal/spectrum"
)

// Feature indices of the model input vector. The first two are the
// sweep design knobs in log space; the band fractions make the model
// spectrum-aware (one model covers both beamlines); the bias factors
// pin the estimator family — training runs the exact estimator, so all
// three are 1 across the training set and any importance-sampled query
// lands outside the hull and falls back to exact MC.
const (
	FeatLogBoron = iota
	FeatLogQcrit
	FeatFracThermal
	FeatFracEpithermal
	FeatFracFast
	FeatBiasThermal
	FeatBiasEpithermal
	FeatBiasFast
	NumFeatures
)

// FeatureNames labels the feature vector, index-aligned with the Feat*
// constants. Models record it so a served model and a query built by a
// different binary can be checked for layout agreement.
var FeatureNames = []string{
	"log10_boron_per_cm2",
	"log10_qcrit_fc",
	"frac_thermal",
	"frac_epithermal",
	"frac_fast",
	"bias_thermal",
	"bias_epithermal",
	"bias_fast",
}

// FeatureVector builds the model input for one design-space query.
// Out-of-domain inputs degrade to non-finite features (log10 of a
// non-positive boron density or Qcrit is -Inf/NaN, a fluxless spectrum
// yields NaN fractions) rather than erroring: the hull check rejects
// non-finite vectors, so such queries fall back to exact MC by
// construction.
func FeatureVector(boronPerCm2, qcritFC float64, sp spectrum.Spectrum, bias plan.Bias) []float64 {
	f := make([]float64, NumFeatures)
	f[FeatLogBoron] = math.Log10(boronPerCm2)
	f[FeatLogQcrit] = math.Log10(qcritFC)
	total := float64(sp.TotalFlux())
	f[FeatFracThermal] = float64(sp.FluxInBand(physics.BandThermal)) / total
	f[FeatFracEpithermal] = float64(sp.FluxInBand(physics.BandEpithermal)) / total
	f[FeatFracFast] = float64(sp.FluxInBand(physics.BandFast)) / total
	f[FeatBiasThermal] = effectiveFactor(bias.Thermal)
	f[FeatBiasEpithermal] = effectiveFactor(bias.Epithermal)
	f[FeatBiasFast] = effectiveFactor(bias.Fast)
	return f
}

// effectiveFactor resolves a bias field the way plan.Bias does: zero
// means unset and acts as 1.
func effectiveFactor(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
}

// DesignDevice returns the sweep design-space device for one
// (boron, Qcrit) point: the K20 planar template with the two design
// knobs applied and the catalog's QcritSigma = Qcrit/4 spread.
func DesignDevice(boronPerCm2, qcritFC float64) *device.Device {
	d := device.K20()
	d.Name = "sweep"
	d.Boron10PerCm2 = boronPerCm2
	d.QcritFC = qcritFC
	d.QcritSigmaFC = qcritFC / 4
	return d
}

// Sigma estimates the upset cross section (cm²) of DesignDevice(boron,
// Qcrit) under sp from samples energies drawn on s. A nil bias runs the
// analog estimator, which stops with ctx's error once ctx is done: its
// budget has no ceiling. Otherwise Sigma compiles a biased campaign plan,
// whose calibration set doubles as the estimator's energy sample, and
// returns the likelihood-weighted estimate. EvaluateGrid and neutrond's
// exact xsection path both call it, so a surrogate trained on the grid
// predicts exactly the quantity the exact path computes.
func Sigma(ctx context.Context, boronPerCm2, qcritFC float64, sp spectrum.Spectrum, samples int, s *rng.Stream, bias *plan.Bias) (float64, error) {
	d := DesignDevice(boronPerCm2, qcritFC)
	if bias == nil {
		sigma, err := d.UpsetCrossSection(ctx, sp.Sample, samples, s)
		return float64(sigma), err
	}
	cp, err := plan.CompileBiased(d, sp, samples, s, *bias)
	if err != nil {
		return 0, err
	}
	sigma, _, err := cp.UpsetCrossSectionWeighted(d, samples, s)
	return float64(sigma), err
}
