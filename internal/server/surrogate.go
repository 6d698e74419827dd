package server

import (
	"math"

	"neutronsim/internal/plan"
	"neutronsim/internal/surrogate"
	"neutronsim/internal/telemetry"
)

// surrogateTier is the optional serving layer between the result cache
// and the exact Monte Carlo path: a fitted design-space model plus the
// counters that account for every gating decision. Only xsection
// campaigns with a positive client tolerance ever consult it, and a
// surrogate answer is never written into the exact result cache — the
// cache's byte-identical guarantee stays intact.
type surrogateTier struct {
	model *surrogate.Model

	served            *telemetry.Counter
	fallbackHull      *telemetry.Counter
	fallbackTolerance *telemetry.Counter
	rejected          *telemetry.Counter
}

func newSurrogateTier(m *surrogate.Model, reg *telemetry.Registry) *surrogateTier {
	if m == nil {
		return nil
	}
	return &surrogateTier{
		model:             m,
		served:            reg.Counter("server.surrogate_served"),
		fallbackHull:      reg.Counter("server.surrogate_fallback_hull"),
		fallbackTolerance: reg.Counter("server.surrogate_fallback_tolerance"),
		rejected:          reg.Counter("server.surrogate_rejected"),
	}
}

// answer gates one request against the model and, when every gate
// passes, produces the approximate result envelope. A nil envelope
// means fall through to the exact path. tolerance is the raw request's
// serving hint (the normalized request has it zeroed); req must be
// normalized.
//
// Gate order, each bumping its own counter on the way out:
//
//  1. kind/tolerance: only xsection queries that opted in (tolerance>0)
//     consult the tier at all (no counter — the tier is not involved).
//  2. rejected: the feature vector is non-finite. Normalize already
//     refuses non-finite JSON numbers, so this guards the computed
//     features (log10 of boron=0 is -Inf) rather than raw input.
//  3. fallback_hull: finite features outside the trained hull, a bias
//     differing from the training estimator's, or a spectrum the model
//     never saw.
//  4. fallback_tolerance: the client wants tighter error than the
//     model's certified bound.
func (t *surrogateTier) answer(req *CampaignRequest, tolerance float64) *ResultEnvelope {
	if t == nil || req.Kind != KindXsection || !(tolerance > 0) {
		return nil
	}
	p := req.Xsection
	sp, err := SpectrumByName(p.Spectrum)
	if err != nil {
		return nil
	}
	var bias plan.Bias
	if p.Bias != nil {
		bias = *p.Bias
	}
	f := surrogate.FeatureVector(p.BoronPerCm2, p.QcritFC, sp, bias)
	for _, v := range f {
		// Non-finite features can never be in a hull; count them as
		// rejected input rather than an honest out-of-domain fallback.
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.rejected.Add(1)
			return nil
		}
	}
	if !t.model.Hull.Contains(f) || !t.model.SpectrumTrained(sp.Fingerprint()) {
		t.fallbackHull.Add(1)
		return nil
	}
	if t.model.CertifiedRelErr > tolerance {
		t.fallbackTolerance.Add(1)
		return nil
	}
	t.served.Add(1)
	return &ResultEnvelope{Kind: KindXsection, Xsection: &XsectionResult{
		BoronPerCm2: p.BoronPerCm2,
		QcritFC:     p.QcritFC,
		Spectrum:    p.Spectrum,
		SigmaCm2:    t.model.PredictSigma(f),
		Approx:      true,
		Confidence:  t.model.Confidence(),
		RelErrBound: t.model.CertifiedRelErr,
		ModelHash:   t.model.Hash,
	}}
}

// SurrogateStats is the surrogate section of GET /v1/stats.
type SurrogateStats struct {
	Loaded bool `json:"loaded"`
	// Model identity and guarantee; only set when loaded.
	ModelHash       string    `json:"model_hash,omitempty"`
	CertifiedRelErr float64   `json:"certified_rel_err,omitempty"`
	FeatureNames    []string  `json:"feature_names,omitempty"`
	HullMin         []float64 `json:"hull_min,omitempty"`
	HullMax         []float64 `json:"hull_max,omitempty"`
	// Gating counters (see surrogateTier.answer for semantics).
	Served            int64 `json:"served"`
	FallbackHull      int64 `json:"fallback_hull"`
	FallbackTolerance int64 `json:"fallback_tolerance"`
	Rejected          int64 `json:"rejected"`
}

func (t *surrogateTier) stats() SurrogateStats {
	if t == nil {
		return SurrogateStats{}
	}
	return SurrogateStats{
		Loaded:            true,
		ModelHash:         t.model.Hash,
		CertifiedRelErr:   t.model.CertifiedRelErr,
		FeatureNames:      t.model.FeatureNames,
		HullMin:           t.model.Hull.Min,
		HullMax:           t.model.Hull.Max,
		Served:            t.served.Value(),
		FallbackHull:      t.fallbackHull.Value(),
		FallbackTolerance: t.fallbackTolerance.Value(),
		Rejected:          t.rejected.Value(),
	}
}
