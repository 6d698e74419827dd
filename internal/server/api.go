// Package server implements neutrond's HTTP/JSON campaign service: a
// bounded job queue and worker pool running the calibrated simulators
// (beam, assessment, memory, transport) behind a deterministic
// content-addressed result cache.
//
// Because PR 2 made every campaign a pure function of (request, seed) —
// worker counts never affect results — two requests that normalize to the
// same canonical form are guaranteed to produce byte-identical responses.
// The service exploits that: requests are hashed after normalization
// (defaults applied, seed included, worker knobs excluded) and completed
// results are served straight from an LRU cache with strong ETags.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"

	"neutronsim/internal/beam"
	"neutronsim/internal/core"
	"neutronsim/internal/device"
	"neutronsim/internal/memsim"
	"neutronsim/internal/plan"
	"neutronsim/internal/spectrum"
	"neutronsim/internal/surrogate"
	"neutronsim/internal/transport"
	"neutronsim/internal/workload"
)

// Campaign kinds accepted by POST /v1/campaigns.
const (
	KindBeam      = "beam"
	KindAssess    = "assess"
	KindMemory    = "memory"
	KindTransport = "transport"
	KindXsection  = "xsection"
)

// CampaignRequest is the body of POST /v1/campaigns. Exactly one of the
// kind-specific sections must be set, matching Kind.
type CampaignRequest struct {
	// Kind selects the simulator: beam, assess, memory, transport or
	// xsection.
	Kind string `json:"kind"`
	// Seed makes the campaign reproducible; it is part of the cache key.
	Seed uint64 `json:"seed"`
	// Tolerance is a serving hint, not a campaign parameter: the relative
	// error the client will accept on the result. A positive tolerance
	// lets the server answer an xsection query from the surrogate tier
	// when the fitted model's certified error bound fits inside it; zero
	// (the default) always routes exact Monte Carlo. Like the worker
	// knobs, it never changes what the exact path computes, so Normalize
	// zeroes it out of the canonical form and it is excluded from the
	// cache key.
	Tolerance float64 `json:"tolerance,omitempty"`

	Beam      *BeamParams      `json:"beam,omitempty"`
	Assess    *AssessParams    `json:"assess,omitempty"`
	Memory    *MemoryParams    `json:"memory,omitempty"`
	Transport *TransportParams `json:"transport,omitempty"`
	Xsection  *XsectionParams  `json:"xsection,omitempty"`
}

// BeamParams describes one beam campaign (beam.RunContext).
type BeamParams struct {
	Device          string  `json:"device"`
	Workload        string  `json:"workload"`
	Spectrum        string  `json:"spectrum"` // ChipIR or ROTAX
	DurationSeconds float64 `json:"duration_seconds"`
	RunSeconds      float64 `json:"run_seconds,omitempty"`
	Derating        float64 `json:"derating,omitempty"`
	CalSamples      int     `json:"cal_samples,omitempty"`
	ShardGrain      int     `json:"shard_grain,omitempty"`
	// Bias opts the campaign into importance-sampled (weighted) transport:
	// per-band oversampling factors, with likelihood-weighted tallies in
	// the result's weighted section. Absent means exact; present — even
	// empty — routes the weighted code path, so the two spellings have
	// distinct cache keys on purpose (they return different result shapes).
	Bias *plan.Bias `json:"bias,omitempty"`
}

// AssessParams describes a full device assessment (core.AssessContext).
// Zero budget fields default to core.QuickBudget's (600 s fast, 3600 s
// thermal, boost 50) — the service is interactive, so the production
// budget must be requested explicitly.
type AssessParams struct {
	Device         string   `json:"device"`
	Workloads      []string `json:"workloads,omitempty"`
	FastSeconds    float64  `json:"fast_seconds,omitempty"`
	ThermalSeconds float64  `json:"thermal_seconds,omitempty"`
	Boost          float64  `json:"boost,omitempty"`
}

// MemoryParams describes a DRAM correct-loop campaign (memsim.RunContext).
type MemoryParams struct {
	Generation          string  `json:"generation"`     // DDR3 or DDR4
	Band                string  `json:"band,omitempty"` // thermal (default) or fast
	Flux                float64 `json:"flux,omitempty"` // n/cm²/s; defaults to the band's beamline flux
	DurationSeconds     float64 `json:"duration_seconds"`
	PassSeconds         float64 `json:"pass_seconds,omitempty"`
	ECC                 bool    `json:"ecc,omitempty"`
	PermanentAbortLimit int     `json:"permanent_abort_limit,omitempty"` // 0: the band's default (100 fast, none thermal)
	ShardGrain          int     `json:"shard_grain,omitempty"`
}

// TransportParams describes a 1-D slab transport run
// (transport.SimulateContext).
type TransportParams struct {
	Slabs       []SlabParam `json:"slabs"`
	Neutrons    int         `json:"neutrons"`
	Source      string      `json:"source,omitempty"`  // spectrum name; default ChipIR
	MonoEV      float64     `json:"mono_ev,omitempty"` // monoenergetic source instead of Source
	ForwardBias float64     `json:"forward_bias,omitempty"`
	ShardGrain  int         `json:"shard_grain,omitempty"`
	// ImplicitCapture selects weighted (non-analog) transport: continuous
	// absorption with Russian roulette, weighted tallies in the result.
	ImplicitCapture bool `json:"implicit_capture,omitempty"`
}

// SlabParam is one homogeneous layer of a transport geometry.
type SlabParam struct {
	Material    string  `json:"material"`
	ThicknessCm float64 `json:"thickness_cm"`
}

// XsectionParams describes one design-space cross-section query: the
// upset cross section of the sweep design device (the K20 planar
// template with the two knobs applied) under a beamline spectrum —
// exactly the quantity cmd/sweep maps per grid point. This is the kind
// the surrogate tier can serve: with a positive request tolerance, an
// in-hull query is answered from the fitted model in O(µs); otherwise
// it runs the exact Monte Carlo estimator.
type XsectionParams struct {
	BoronPerCm2 float64 `json:"boron_per_cm2"`
	QcritFC     float64 `json:"qcrit_fc"`
	Spectrum    string  `json:"spectrum"` // ChipIR or ROTAX
	// Samples is the exact estimator's Monte Carlo budget (default
	// surrogate.DefaultSamples, as in cmd/sweep). The surrogate path
	// ignores it — the model's training budget is recorded in its content
	// hash instead.
	Samples int `json:"samples,omitempty"`
	// Bias opts the exact path into importance-sampled estimation, like
	// BeamParams.Bias. Biased queries are never surrogate-served: the
	// model is trained on the exact estimator, so the bias features fall
	// outside its hull.
	Bias *plan.Bias `json:"bias,omitempty"`
}

// SpectrumByName resolves a beamline spectrum case-insensitively.
func SpectrumByName(name string) (spectrum.Spectrum, error) {
	switch strings.ToLower(name) {
	case "chipir":
		return spectrum.ChipIR(), nil
	case "rotax":
		return spectrum.ROTAX(), nil
	}
	return nil, fmt.Errorf("unknown spectrum %q (want ChipIR or ROTAX)", clip(name))
}

// DeviceByName resolves a catalog device by exact name.
func DeviceByName(name string) (*device.Device, error) {
	for _, d := range device.All() {
		if d.Name == name {
			return d, nil
		}
	}
	return nil, fmt.Errorf("unknown device %q", clip(name))
}

// Request-size ceilings, enforced by Normalize (400) and, for the body,
// by the handlers (413), because running out of memory is fatal: one
// oversized POST would kill the node, or in a cluster the coordinator,
// whose PlanInfo compiles every campaign's plan. Every request in the
// repo's tests and neutronbench sits well below them.
const (
	// maxSamples bounds the two sizes a compiled plan takes, beam
	// cal_samples and biased xsection samples (an exact xsection query
	// streams its samples in constant memory): at 32 bytes a slot, plans
	// stay within 8 MiB and a full 64-entry plan cache within 512 MiB.
	maxSamples = 1 << 18
	// maxBeamRuns bounds duration_seconds / run_seconds, 8× the
	// beam.MaxAutoRuns an auto-tuned campaign never exceeds.
	maxBeamRuns = 1 << 24
	// maxShards bounds the shards a campaign's work items make at its
	// shard_grain, for every sharded kind: beam runs (beam.MaxAutoRuns
	// when auto-tuned), memory passes and transport neutrons. The engine
	// allocates every shard's descriptor, and transport its stream, up
	// front.
	maxShards = 1 << 16
	// maxSlabs bounds a transport geometry's layers. A shield stack is a
	// few layers; 256 also covers one slab cut into a depth profile.
	// Each layer is a material built per request, and each neutron walks
	// every boundary it crosses.
	maxSlabs = 256
	// maxBodyBytes caps the body of POST /v1/campaigns and POST
	// /v1/shards. The largest valid request is a transport campaign of
	// maxSlabs slabs. In compact JSON one slab takes at most 76 bytes:
	// the member names, the 20-byte "borated polyethylene" and a 24-byte
	// float64. That is 19,456 bytes for the slabs, and every other member
	// of any request fits in 1 KiB. 64 KiB is three times the sum, which
	// leaves room for an indented body.
	maxBodyBytes = 64 << 10
	// maxQuoted is how many bytes of a rejected value an error quotes.
	maxQuoted = 40
)

// clip shortens a rejected value to maxQuoted bytes for an error message,
// so a 400 never echoes a large body back.
func clip(s string) string {
	if len(s) <= maxQuoted {
		return s
	}
	return s[:maxQuoted] + "…"
}

// checkShards rejects a campaign whose items split into more than
// maxShards shards of grain items.
func checkShards(kind string, items float64, grain int) error {
	if shards := math.Ceil(items / float64(grain)); shards > maxShards {
		return fmt.Errorf("%s campaign of %g items at shard_grain %d makes %g shards, above the ceiling of %d", kind, items, grain, shards, maxShards)
	}
	return nil
}

// Normalize validates the request against the catalogs and returns a
// canonical deep copy with every default filled in. Two requests that
// normalize to equal values are the same campaign and share a cache entry.
func (r *CampaignRequest) Normalize() (*CampaignRequest, error) {
	if r == nil {
		return nil, fmt.Errorf("empty request")
	}
	n := &CampaignRequest{Kind: strings.ToLower(strings.TrimSpace(r.Kind)), Seed: r.Seed}
	sections := 0
	for _, set := range []bool{r.Beam != nil, r.Assess != nil, r.Memory != nil, r.Transport != nil, r.Xsection != nil} {
		if set {
			sections++
		}
	}
	if sections > 1 {
		return nil, fmt.Errorf("request must set exactly one campaign section, got %d", sections)
	}
	// Tolerance is validated here but deliberately NOT copied onto the
	// canonical form: it is a serving hint, and the cache key must be a
	// pure function of the campaign the exact path would run.
	if math.IsNaN(r.Tolerance) || math.IsInf(r.Tolerance, 0) || r.Tolerance < 0 || r.Tolerance >= 1 {
		return nil, fmt.Errorf("tolerance must be a finite relative error in [0,1)")
	}
	switch n.Kind {
	case KindBeam:
		if r.Beam == nil {
			return nil, fmt.Errorf("kind %q requires a beam section", n.Kind)
		}
		return n, n.normalizeBeam(r.Beam)
	case KindAssess:
		if r.Assess == nil {
			return nil, fmt.Errorf("kind %q requires an assess section", n.Kind)
		}
		return n, n.normalizeAssess(r.Assess)
	case KindMemory:
		if r.Memory == nil {
			return nil, fmt.Errorf("kind %q requires a memory section", n.Kind)
		}
		return n, n.normalizeMemory(r.Memory)
	case KindTransport:
		if r.Transport == nil {
			return nil, fmt.Errorf("kind %q requires a transport section", n.Kind)
		}
		return n, n.normalizeTransport(r.Transport)
	case KindXsection:
		if r.Xsection == nil {
			return nil, fmt.Errorf("kind %q requires an xsection section", n.Kind)
		}
		return n, n.normalizeXsection(r.Xsection)
	}
	return nil, fmt.Errorf("unknown kind %q (want beam, assess, memory, transport or xsection)", clip(r.Kind))
}

func (n *CampaignRequest) normalizeBeam(p *BeamParams) error {
	b := *p
	if _, err := DeviceByName(b.Device); err != nil {
		return err
	}
	if !slices.Contains(workload.Names(), b.Workload) {
		return fmt.Errorf("unknown workload %q", clip(b.Workload))
	}
	sp, err := SpectrumByName(b.Spectrum)
	if err != nil {
		return err
	}
	b.Spectrum = sp.Name()
	if b.DurationSeconds <= 0 {
		return fmt.Errorf("beam duration_seconds must be positive")
	}
	if b.RunSeconds < 0 {
		return fmt.Errorf("beam run_seconds cannot be negative")
	}
	if b.Derating == 0 {
		b.Derating = 1
	}
	if b.Derating <= 0 || b.Derating > 1 {
		return fmt.Errorf("beam derating must be in (0,1]")
	}
	if b.CalSamples < 0 || b.CalSamples > maxSamples {
		return fmt.Errorf("beam cal_samples must be in [0, %d]", maxSamples)
	}
	if b.CalSamples == 0 {
		b.CalSamples = beam.DefaultCalSamples
	}
	if b.ShardGrain < 0 {
		return fmt.Errorf("beam shard_grain cannot be negative")
	}
	if b.ShardGrain == 0 {
		b.ShardGrain = beam.DefaultShardGrain
	}
	runs := beam.MaxAutoRuns
	if b.RunSeconds > 0 {
		runs = b.DurationSeconds / b.RunSeconds
	}
	if runs > maxBeamRuns {
		return fmt.Errorf("beam campaign of %g runs exceeds the ceiling of %d", runs, maxBeamRuns)
	}
	if err := checkShards("beam", runs, b.ShardGrain); err != nil {
		return err
	}
	if b.Bias != nil {
		if err := b.Bias.Validate(); err != nil {
			return err
		}
		bias := *b.Bias
		b.Bias = &bias
	}
	n.Beam = &b
	return nil
}

func (n *CampaignRequest) normalizeAssess(p *AssessParams) error {
	a := *p
	d, err := DeviceByName(a.Device)
	if err != nil {
		return err
	}
	if a.Workloads == nil {
		a.Workloads = workload.ForDeviceKind(d.Kind.String())
	}
	if len(a.Workloads) == 0 {
		return fmt.Errorf("no workloads for device %s", d.Name)
	}
	// A repeat would run the workload's campaigns twice and weigh it
	// twice in the device average.
	cleaned := make([]string, 0, len(a.Workloads))
	for _, w := range a.Workloads {
		w = strings.TrimSpace(w)
		if !slices.Contains(workload.Names(), w) {
			return fmt.Errorf("unknown workload %q", clip(w))
		}
		if slices.Contains(cleaned, w) {
			return fmt.Errorf("workload %q named twice", w)
		}
		cleaned = append(cleaned, w)
	}
	a.Workloads = cleaned
	if a.FastSeconds < 0 || a.ThermalSeconds < 0 || a.Boost < 0 {
		return fmt.Errorf("assess budget fields cannot be negative")
	}
	quick := core.QuickBudget()
	if a.FastSeconds == 0 {
		a.FastSeconds = quick.FastSeconds
	}
	if a.ThermalSeconds == 0 {
		a.ThermalSeconds = quick.ThermalSeconds
	}
	if a.Boost == 0 {
		a.Boost = quick.Boost
	}
	n.Assess = &a
	return nil
}

func (n *CampaignRequest) normalizeMemory(p *MemoryParams) error {
	m := *p
	switch strings.ToUpper(m.Generation) {
	case "DDR3":
		m.Generation = "DDR3"
	case "DDR4":
		m.Generation = "DDR4"
	default:
		return fmt.Errorf("unknown memory generation %q (want DDR3 or DDR4)", clip(m.Generation))
	}
	band := memsim.ThermalBeam
	switch strings.ToLower(m.Band) {
	case "", "thermal":
	case "fast":
		band = memsim.FastBeam
	default:
		return fmt.Errorf("unknown memory band %q (want thermal or fast)", clip(m.Band))
	}
	m.Band = band.String()
	if m.Flux == 0 {
		m.Flux = float64(band.DefaultFlux())
	}
	if m.Flux <= 0 {
		return fmt.Errorf("memory flux must be positive")
	}
	if m.DurationSeconds <= 0 {
		return fmt.Errorf("memory duration_seconds must be positive")
	}
	if m.PassSeconds < 0 || m.PermanentAbortLimit < 0 {
		return fmt.Errorf("memory pass_seconds and permanent_abort_limit cannot be negative")
	}
	if m.PassSeconds == 0 {
		m.PassSeconds = 1
	}
	if m.PermanentAbortLimit == 0 {
		m.PermanentAbortLimit = band.DefaultAbortLimit()
	}
	if m.ShardGrain < 0 {
		return fmt.Errorf("memory shard_grain cannot be negative")
	}
	if m.ShardGrain == 0 {
		m.ShardGrain = memsim.DefaultShardGrain
	}
	passes := math.Max(1, math.Floor(m.DurationSeconds/m.PassSeconds)) // as memsim counts them
	if err := checkShards("memory", passes, m.ShardGrain); err != nil {
		return err
	}
	n.Memory = &m
	return nil
}

func (n *CampaignRequest) normalizeTransport(p *TransportParams) error {
	t := *p
	if len(t.Slabs) == 0 || len(t.Slabs) > maxSlabs {
		return fmt.Errorf("transport needs 1 to %d slabs, got %d", maxSlabs, len(t.Slabs))
	}
	t.Slabs = append([]SlabParam(nil), t.Slabs...)
	for i, sl := range t.Slabs {
		m, err := MaterialByName(sl.Material)
		if err != nil {
			return err
		}
		if sl.ThicknessCm <= 0 {
			return fmt.Errorf("slab %d thickness_cm must be positive", i)
		}
		t.Slabs[i].Material = m.Name()
	}
	if t.Neutrons <= 0 {
		return fmt.Errorf("transport neutrons must be positive")
	}
	if t.MonoEV < 0 {
		return fmt.Errorf("transport mono_ev cannot be negative")
	}
	if t.MonoEV == 0 {
		sp, err := SpectrumByName(strings.TrimSpace(firstNonEmpty(t.Source, "ChipIR")))
		if err != nil {
			return err
		}
		t.Source = sp.Name()
	} else if t.Source != "" {
		return fmt.Errorf("transport source and mono_ev are mutually exclusive")
	}
	if t.ForwardBias < 0 || t.ForwardBias >= 1 {
		return fmt.Errorf("transport forward_bias must be in [0,1)")
	}
	if t.ShardGrain < 0 {
		return fmt.Errorf("transport shard_grain cannot be negative")
	}
	if t.ShardGrain == 0 {
		t.ShardGrain = transport.DefaultShardGrain
	}
	if err := checkShards("transport", float64(t.Neutrons), t.ShardGrain); err != nil {
		return err
	}
	n.Transport = &t
	return nil
}

func (n *CampaignRequest) normalizeXsection(p *XsectionParams) error {
	x := *p
	// NaN slips through sign checks, so demand finiteness explicitly.
	if math.IsNaN(x.BoronPerCm2) || math.IsInf(x.BoronPerCm2, 0) || x.BoronPerCm2 < 0 {
		return fmt.Errorf("xsection boron_per_cm2 must be finite and non-negative")
	}
	if math.IsNaN(x.QcritFC) || math.IsInf(x.QcritFC, 0) || x.QcritFC <= 0 {
		return fmt.Errorf("xsection qcrit_fc must be finite and positive")
	}
	sp, err := SpectrumByName(x.Spectrum)
	if err != nil {
		return err
	}
	x.Spectrum = sp.Name()
	if x.Samples < 0 {
		return fmt.Errorf("xsection samples cannot be negative")
	}
	if x.Samples == 0 {
		x.Samples = surrogate.DefaultSamples
	}
	if x.Bias != nil {
		if err := x.Bias.Validate(); err != nil {
			return err
		}
		if x.Samples > maxSamples {
			return fmt.Errorf("biased xsection samples must not exceed %d", maxSamples)
		}
		bias := *x.Bias
		x.Bias = &bias
	}
	n.Xsection = &x
	return nil
}

func firstNonEmpty(a, b string) string {
	if a != "" {
		return a
	}
	return b
}

// CacheKey returns the canonical SHA-256 of the normalized request — the
// service's content address. It must only be called on the value returned
// by Normalize; struct-order JSON marshaling makes it deterministic.
func (r *CampaignRequest) CacheKey() string {
	data, err := json.Marshal(r)
	if err != nil {
		// A normalized request is plain data and always marshals.
		panic(fmt.Sprintf("server: marshal normalized request: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
