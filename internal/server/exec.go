package server

import (
	"context"
	"fmt"
	"strings"

	"neutronsim/internal/beam"
	"neutronsim/internal/core"
	"neutronsim/internal/memsim"
	"neutronsim/internal/rng"
	"neutronsim/internal/spectrum"
	"neutronsim/internal/surrogate"
	"neutronsim/internal/transport"
	"neutronsim/internal/units"
)

// ResultEnvelope is the campaign result body: exactly one section is set,
// matching the request kind. It contains only deterministic simulation
// output — no timestamps or server state — so identical requests produce
// byte-identical envelopes and the cache's strong ETags are honest.
type ResultEnvelope struct {
	Kind       string           `json:"kind"`
	Beam       *beam.Result     `json:"beam,omitempty"`
	Assessment *core.Assessment `json:"assessment,omitempty"`
	Memory     *memsim.Result   `json:"memory,omitempty"`
	Transport  *transport.Tally `json:"transport,omitempty"`
	Xsection   *XsectionResult  `json:"xsection,omitempty"`
}

// XsectionResult is the xsection campaign result. Exact Monte Carlo
// answers carry only the deterministic estimate; surrogate-served
// answers additionally set Approx with the model's provenance, so a
// client can always tell which tier answered.
type XsectionResult struct {
	BoronPerCm2 float64 `json:"boron_per_cm2"`
	QcritFC     float64 `json:"qcrit_fc"`
	Spectrum    string  `json:"spectrum"`
	Samples     int     `json:"samples,omitempty"` // exact path only
	SigmaCm2    float64 `json:"sigma_cm2"`
	// Approx marks a surrogate-tier answer; the three fields below are
	// only set alongside it.
	Approx      bool    `json:"approx,omitempty"`
	Confidence  float64 `json:"confidence,omitempty"`
	RelErrBound float64 `json:"rel_err_bound,omitempty"`
	ModelHash   string  `json:"model_hash,omitempty"`
}

// Execute runs a normalized campaign request against the simulators.
// shards caps per-job engine concurrency (0 = GOMAXPROCS). The ctx
// carries the job's progress observer and deadline.
func Execute(ctx context.Context, req *CampaignRequest, shards int) (*ResultEnvelope, error) {
	switch req.Kind {
	case KindBeam:
		return execBeam(ctx, req, shards)
	case KindAssess:
		return execAssess(ctx, req, shards)
	case KindMemory:
		return execMemory(ctx, req, shards)
	case KindTransport:
		return execTransport(ctx, req, shards)
	case KindXsection:
		return execXsection(ctx, req)
	}
	return nil, fmt.Errorf("unknown kind %q", req.Kind)
}

// BeamConfig resolves a normalized beam campaign into the library Config.
// Both whole-campaign execution (execBeam) and shard-range execution
// (POST /v1/shards) build their Config here, so a shard range runs against
// exactly the plan the full campaign would — the precondition for
// bit-identical distributed assembly.
func BeamConfig(req *CampaignRequest, shards int) (beam.Config, error) {
	p := req.Beam
	d, err := DeviceByName(p.Device)
	if err != nil {
		return beam.Config{}, err
	}
	sp, err := SpectrumByName(p.Spectrum)
	if err != nil {
		return beam.Config{}, err
	}
	return beam.Config{
		Device:          d,
		WorkloadName:    p.Workload,
		Beam:            sp,
		DurationSeconds: p.DurationSeconds,
		RunSeconds:      p.RunSeconds,
		Derating:        p.Derating,
		Seed:            req.Seed,
		CalSamples:      p.CalSamples,
		Shards:          shards,
		ShardGrain:      p.ShardGrain,
		Bias:            p.Bias,
	}, nil
}

func execBeam(ctx context.Context, req *CampaignRequest, shards int) (*ResultEnvelope, error) {
	cfg, err := BeamConfig(req, shards)
	if err != nil {
		return nil, err
	}
	res, err := beam.RunContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return &ResultEnvelope{Kind: KindBeam, Beam: res}, nil
}

func execAssess(ctx context.Context, req *CampaignRequest, shards int) (*ResultEnvelope, error) {
	p := req.Assess
	d, err := DeviceByName(p.Device)
	if err != nil {
		return nil, err
	}
	res, err := core.AssessContext(ctx, d, p.Workloads, core.Budget{
		FastSeconds:    p.FastSeconds,
		ThermalSeconds: p.ThermalSeconds,
		Boost:          p.Boost,
		Shards:         shards,
	}, req.Seed)
	if err != nil {
		return nil, err
	}
	return &ResultEnvelope{Kind: KindAssess, Assessment: res}, nil
}

func execMemory(ctx context.Context, req *CampaignRequest, shards int) (*ResultEnvelope, error) {
	p := req.Memory
	spec := memsim.DDR3Module()
	if p.Generation == "DDR4" {
		spec = memsim.DDR4Module()
	}
	band := memsim.ThermalBeam
	if p.Band == memsim.FastBeam.String() {
		band = memsim.FastBeam
	}
	res, err := memsim.RunContext(ctx, memsim.Config{
		Spec:                spec,
		Band:                band,
		Flux:                units.Flux(p.Flux),
		DurationSeconds:     p.DurationSeconds,
		PassSeconds:         p.PassSeconds,
		ECC:                 p.ECC,
		PermanentAbortLimit: p.PermanentAbortLimit,
		Seed:                req.Seed,
		Shards:              shards,
		ShardGrain:          p.ShardGrain,
	})
	if err != nil {
		return nil, err
	}
	return &ResultEnvelope{Kind: KindMemory, Memory: res}, nil
}

func execTransport(ctx context.Context, req *CampaignRequest, shards int) (*ResultEnvelope, error) {
	p := req.Transport
	slabs := make([]transport.Slab, len(p.Slabs))
	for i, sl := range p.Slabs {
		m, err := MaterialByName(sl.Material)
		if err != nil {
			return nil, err
		}
		slabs[i] = transport.Slab{Material: m, Thickness: sl.ThicknessCm}
	}
	var source func(*rng.Stream) units.Energy
	if p.MonoEV > 0 {
		mono, err := spectrum.NewMono("mono", units.Energy(p.MonoEV), 1)
		if err != nil {
			return nil, err
		}
		source = mono.Sample
	} else {
		sp, err := SpectrumByName(strings.TrimSpace(p.Source))
		if err != nil {
			return nil, err
		}
		source = sp.Sample
	}
	res, err := transport.SimulateContext(ctx, slabs, p.Neutrons, source, rng.New(req.Seed), transport.Options{
		ForwardBias:     p.ForwardBias,
		Shards:          shards,
		ShardGrain:      p.ShardGrain,
		ImplicitCapture: p.ImplicitCapture,
	})
	if err != nil {
		return nil, err
	}
	return &ResultEnvelope{Kind: KindTransport, Transport: res}, nil
}

// execXsection is the exact Monte Carlo path for a design-space
// cross-section query: surrogate.Sigma on the request's seed, the
// estimator every cmd/sweep grid point runs, so a surrogate trained on
// sweep output predicts exactly this quantity. The job's ctx reaches the
// unbiased estimator's loop, so DELETE, the job deadline and Drain stop a
// query of any sample budget.
func execXsection(ctx context.Context, req *CampaignRequest) (*ResultEnvelope, error) {
	p := req.Xsection
	sp, err := SpectrumByName(p.Spectrum)
	if err != nil {
		return nil, err
	}
	sigma, err := surrogate.Sigma(ctx, p.BoronPerCm2, p.QcritFC, sp, p.Samples, rng.New(req.Seed), p.Bias)
	if err != nil {
		return nil, err
	}
	return &ResultEnvelope{Kind: KindXsection, Xsection: &XsectionResult{
		BoronPerCm2: p.BoronPerCm2,
		QcritFC:     p.QcritFC,
		Spectrum:    p.Spectrum,
		Samples:     p.Samples,
		SigmaCm2:    sigma,
	}}, nil
}
