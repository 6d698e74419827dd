package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"neutronsim/internal/server"
	"neutronsim/internal/stats"
)

// LoadConfig shapes one loadgen storm: Concurrency workers submitting
// campaigns drawn from a Keys-sized key space against Target for
// Duration. The key distribution is the experiment's main knob — uniform
// exercises aggregate cache capacity, zipf concentrates load on hot keys
// the way real job mixes do.
type LoadConfig struct {
	// Target is the base URL jobs are submitted to (the coordinator).
	Target string
	// Concurrency is the number of in-flight submitters (default 4).
	Concurrency int
	// Duration bounds the storm (default 2s).
	Duration time.Duration
	// Keys is the number of distinct campaigns in the key space
	// (default 32). Distinct keys differ only by seed, so every key
	// costs the same compute when it misses.
	Keys int
	// Distribution is "uniform" or "zipf" (default uniform).
	Distribution string
	// ZipfS is the zipf skew parameter, > 1 (default 1.2).
	ZipfS float64
	// Seed drives key picking; the storm itself is reproducible.
	Seed uint64
	// Campaign maps a key index to its request. The default is a small
	// beam campaign with Seed varying by key.
	Campaign func(key int) *server.CampaignRequest
	// Client overrides the HTTP client (tests pass httptest clients).
	Client *http.Client
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Concurrency <= 0 {
		c.Concurrency = 4
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	if c.Keys <= 0 {
		c.Keys = 32
	}
	if c.Distribution == "" {
		c.Distribution = "uniform"
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.2
	}
	if c.Campaign == nil {
		c.Campaign = DefaultCampaign
	}
	return c
}

// DefaultCampaign is the loadgen's stock request for key: a small MxM
// beam campaign whose seed (and therefore cache key) varies by key while
// its compute cost does not.
func DefaultCampaign(key int) *server.CampaignRequest {
	return &server.CampaignRequest{
		Kind: server.KindBeam,
		Seed: uint64(1000 + key),
		Beam: &server.BeamParams{
			Device:          "K20",
			Workload:        "MxM",
			Spectrum:        "ChipIR",
			DurationSeconds: 2,
			CalSamples:      2000,
		},
	}
}

// Quantiles are latency percentiles in milliseconds, interpolated between
// order statistics (stats.Quantile).
type Quantiles struct {
	P50 float64 `json:"p50_ms"`
	P90 float64 `json:"p90_ms"`
	P99 float64 `json:"p99_ms"`
}

// TierLatency is the latency breakdown for one serving tier.
type TierLatency struct {
	Requests int64     `json:"requests"`
	Latency  Quantiles `json:"latency"`
}

// Report is one storm's outcome.
type Report struct {
	Target          string    `json:"target"`
	Concurrency     int       `json:"concurrency"`
	Distribution    string    `json:"distribution"`
	Keys            int       `json:"keys"`
	DurationSeconds float64   `json:"duration_seconds"`
	Requests        int64     `json:"requests"`
	Errors          int64     `json:"errors"`
	CacheHits       int64     `json:"cache_hits"`
	CacheHitRatio   float64   `json:"cache_hit_ratio"`
	Throughput      float64   `json:"throughput_rps"`
	Latency         Quantiles `json:"latency"`
	// Tiers breaks successful requests down by the serving tier that
	// answered (cache / surrogate / exact), each with its own quantiles —
	// the serving pyramid made visible in one report.
	Tiers map[string]TierLatency `json:"tiers,omitempty"`
}

// keyPicker returns a per-worker key source. Each worker gets its own
// rng (rand.Zipf is not safe for concurrent use) seeded distinctly but
// deterministically.
func (c LoadConfig) keyPicker(worker int) func() int {
	src := rand.New(rand.NewSource(int64(c.Seed) + int64(worker)*7919))
	if c.Distribution == "zipf" {
		z := rand.NewZipf(src, c.ZipfS, 1, uint64(c.Keys-1))
		return func() int { return int(z.Uint64()) }
	}
	return func() int { return src.Intn(c.Keys) }
}

// RunLoad replays a job storm and reports latency quantiles, saturation
// throughput and the submit-path cache hit ratio. Workers submit
// synchronously (submit, poll to terminal, repeat), so Concurrency is
// the closed-loop offered load and Throughput is the saturation rate at
// that concurrency.
func RunLoad(ctx context.Context, cfg LoadConfig) (*Report, error) {
	cfg = cfg.withDefaults()
	if cfg.Target == "" {
		return nil, fmt.Errorf("loadgen: no target")
	}
	if cfg.Distribution != "uniform" && cfg.Distribution != "zipf" {
		return nil, fmt.Errorf("loadgen: unknown distribution %q", cfg.Distribution)
	}
	client := NewClient(cfg.Client)
	client.pollEvery = 2 * time.Millisecond

	ctx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()
	var (
		mu        sync.Mutex
		latencies []float64
		byTier    = map[string][]float64{}
		requests  int64
		errors    int64
		hits      int64
	)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			pick := cfg.keyPicker(worker)
			for ctx.Err() == nil {
				req := cfg.Campaign(pick())
				t0 := time.Now()
				res, err := client.Forward(ctx, cfg.Target, req)
				lat := time.Since(t0)
				if ctx.Err() != nil && err != nil {
					return // deadline mid-request: don't count the truncation
				}
				mu.Lock()
				requests++
				if err != nil {
					errors++
				} else {
					ms := float64(lat.Microseconds()) / 1000
					latencies = append(latencies, ms)
					byTier[res.Tier] = append(byTier[res.Tier], ms)
					if res.CacheHit {
						hits++
					}
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	rep := &Report{
		Target:          cfg.Target,
		Concurrency:     cfg.Concurrency,
		Distribution:    cfg.Distribution,
		Keys:            cfg.Keys,
		DurationSeconds: elapsed,
		Requests:        requests,
		Errors:          errors,
		CacheHits:       hits,
	}
	if n := requests - errors; n > 0 {
		rep.CacheHitRatio = float64(hits) / float64(n)
	}
	if elapsed > 0 {
		rep.Throughput = float64(requests-errors) / elapsed
	}
	rep.Latency = Quantiles{
		P50: stats.Quantile(latencies, 0.50),
		P90: stats.Quantile(latencies, 0.90),
		P99: stats.Quantile(latencies, 0.99),
	}
	if len(byTier) > 0 {
		rep.Tiers = map[string]TierLatency{}
		for tier, ms := range byTier {
			rep.Tiers[tier] = TierLatency{Requests: int64(len(ms)), Latency: Quantiles{
				P50: stats.Quantile(ms, 0.50),
				P90: stats.Quantile(ms, 0.90),
				P99: stats.Quantile(ms, 0.99),
			}}
		}
	}
	return rep, nil
}

// XsectionCampaign returns a Campaign generator for design-space
// cross-section storms: keys walk a small boron × Qcrit × spectrum
// lattice inside the given surrogate training grid bounds. Every third
// key carries tolerance zero (exact, cacheable); the rest opt into the
// surrogate tier with the given tolerance, so one storm exercises all
// three serving tiers.
func XsectionCampaign(tolerance float64) func(key int) *server.CampaignRequest {
	return func(key int) *server.CampaignRequest {
		boron := []float64{3e12, 1e13, 5e13, 1e14, 5e14}[key%5]
		qcrit := []float64{1.5, 2.5, 4, 6}[(key/5)%4]
		spec := []string{"ROTAX", "ChipIR"}[(key/20)%2]
		tol := tolerance
		if key%3 == 0 {
			tol = 0
		}
		return &server.CampaignRequest{
			Kind:      server.KindXsection,
			Seed:      uint64(2000 + key),
			Tolerance: tol,
			Xsection: &server.XsectionParams{
				BoronPerCm2: boron,
				QcritFC:     qcrit,
				Spectrum:    spec,
				Samples:     20000,
			},
		}
	}
}
