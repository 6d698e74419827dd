// Package beam implements the accelerated radiation-test campaigns of the
// paper (§III-C): a device executing a benchmark is aligned with a beamline
// (ChipIR for high-energy neutrons, ROTAX for thermals), errors are counted
// against golden outputs, and cross sections are computed as
// errors/fluence with Poisson 95% confidence intervals.
package beam

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"neutronsim/internal/device"
	"neutronsim/internal/engine"
	"neutronsim/internal/faultinject"
	"neutronsim/internal/physics"
	"neutronsim/internal/plan"
	"neutronsim/internal/rng"
	"neutronsim/internal/spectrum"
	"neutronsim/internal/stats"
	"neutronsim/internal/telemetry"
	"neutronsim/internal/units"
	"neutronsim/internal/workload"
)

// Config describes one campaign: one device, one benchmark, one beamline.
type Config struct {
	Device       *device.Device
	WorkloadName string
	Beam         spectrum.Spectrum
	// DurationSeconds is the total beam time.
	DurationSeconds float64
	// RunSeconds is the beam time covered by one workload execution. When
	// zero, it is auto-tuned so a run rarely sees more than one fault —
	// the same error-pile-up control a beam operator applies — capped at
	// 1 s. The tuning splits the campaign into at most MaxAutoRuns runs,
	// so a long auto-tuned campaign at a high rate runs at λ above 0.05,
	// and a run with several faults counts as one event.
	RunSeconds float64
	// Derating scales the flux for boards placed off the beam axis when
	// several boards share the ChipIR beam (default 1; §III-C).
	Derating float64
	// Seed makes the campaign reproducible.
	Seed uint64
	// CalSamples sets the Monte Carlo budget for the interaction-rate
	// estimate (default 20000).
	CalSamples int
	// Injector tuning.
	Inject faultinject.Config
	// Shards caps how many campaign shards execute concurrently (default
	// GOMAXPROCS). It never affects results — the shard decomposition and
	// per-shard streams depend only on (Seed, ShardGrain); see
	// internal/engine and DESIGN.md §9.
	Shards int
	// ShardGrain is the number of runs per shard (default 8192). It is
	// part of the deterministic seed schedule: changing it re-partitions
	// the campaign and re-derives every shard's stream.
	ShardGrain int
	// Bias enables importance-sampled (weighted) interaction draws: the
	// campaign samples from a band-biased alias table and every draw
	// carries its likelihood weight into the tallies, so rare-band
	// statistics converge from far fewer neutrons without changing any
	// expectation (DESIGN.md §14). nil is the exact (analog) estimator;
	// the identity &plan.Bias{} routes through the weighted code path but
	// reproduces exact results bit-for-bit. Biased results carry a
	// Weighted section and their cross sections become the weighted,
	// ESS-gated estimates.
	Bias *plan.Bias
}

func (c Config) withDefaults() Config {
	if c.Derating <= 0 {
		c.Derating = 1
	}
	if c.CalSamples <= 0 {
		c.CalSamples = 20000
	}
	return c
}

func (c Config) validate() error {
	switch {
	case c.Device == nil:
		return errors.New("beam: nil device")
	case c.Beam == nil:
		return errors.New("beam: nil beam spectrum")
	case c.WorkloadName == "":
		return errors.New("beam: missing workload name")
	case c.DurationSeconds <= 0:
		return errors.New("beam: non-positive duration")
	case c.Derating > 1:
		return errors.New("beam: derating cannot exceed 1")
	}
	if c.Bias != nil {
		if err := c.Bias.Validate(); err != nil {
			return err
		}
	}
	return c.Device.Validate()
}

// Result is the outcome of one campaign.
type Result struct {
	Device   string
	Workload string
	Beam     string

	Runs    int
	Fluence units.Fluence // derated total fluence

	SDC    int64
	DUE    int64
	Masked int64
	// Upsets counts raw device faults before workload masking.
	Upsets int64
	// FaultsByBand attributes upsets to the neutron band that caused them.
	FaultsByBand map[physics.EnergyBand]int64
	// Reprograms counts FPGA bitstream reloads after observed errors.
	Reprograms int64

	// Cross sections (cm² per device) with Poisson 95% CIs. For biased
	// campaigns these are the weighted, ESS-gated estimates — unbiased
	// drop-ins for the exact ones — because the raw SDC/DUE counts of a
	// biased campaign are counts under the biased distribution, not
	// physics.
	SDCCrossSection stats.RateEstimate
	DUECrossSection stats.RateEstimate

	// Weighted carries the importance-sampling tallies of a biased
	// campaign (Config.Bias non-nil). It is nil for exact campaigns, so
	// exact results are unchanged structurally and byte-for-byte.
	Weighted *WeightedResult `json:",omitempty"`
}

// WeightedResult is the likelihood-weighted side of a biased campaign:
// every tally pairs the weighted sum (the unbiased estimate of the exact
// count) with the sum of squared weights, from which the effective sample
// size — the honest amount of statistics behind any CI claim — follows.
type WeightedResult struct {
	// Bias echoes the campaign's bias knob.
	Bias plan.Bias `json:"bias"`
	// Draws tallies every interaction draw. Its weighted sum estimates
	// the number of draws an exact campaign would produce — equal to its
	// raw N in expectation (weights conservation) — and its ESS is the
	// effective neutron budget behind the whole campaign.
	Draws stats.Weighted `json:"draws"`
	// Run outcomes under the run-level likelihood weight (the product of
	// the weights of every draw that influenced the run, including draws
	// carried across runs by persistent FPGA faults).
	SDC    stats.Weighted `json:"sdc"`
	DUE    stats.Weighted `json:"due"`
	Masked stats.Weighted `json:"masked"`
	// UpsetsByBand tallies raw device upsets per band under the per-draw
	// weight; DUEByBand attributes weighted DUEs to the band of the run's
	// first fault — the per-band rare-channel tallies the variance
	// reduction is aimed at (EXPERIMENTS.md E3).
	UpsetsByBand map[physics.EnergyBand]stats.Weighted `json:"upsets_by_band"`
	DUEByBand    map[physics.EnergyBand]stats.Weighted `json:"due_by_band"`
}

// defaultShardGrain is the number of beam runs per engine shard. Large
// enough that a shard amortizes its golden-workload replay setup, small
// enough that auto-tuned campaigns (up to MaxAutoRuns) decompose into
// hundreds of shards.
const defaultShardGrain = 8192

// MaxAutoRuns caps the runs an auto-tuned campaign (RunSeconds 0) splits
// its beam time into.
const MaxAutoRuns = 2e6

// maxRunLambda caps λ, the mean interactions per run. A run draws and
// replays each of its interactions, so a campaign far above it would not
// finish; the experiments, tests and benchmarks use λ ≤ 64. It also keeps
// the float-to-int64 conversion of a Poisson draw in range.
const maxRunLambda = 1e4

// shardTally accumulates one shard's private counts. Everything here is
// shard-local; the campaign Result is assembled only after every shard has
// finished, by summing tallies in shard order. ByBand is a fixed array
// indexed by band value (bands are 1..physics.NumBands) so the per-upset
// increment is a register op, not a map insert; the merge converts it to
// the Result's exported map.
//
// The tally is also its own wire form: a worker ships it un-merged inside
// a Partial so the coordinator can fold shards in global shard order
// exactly as a single-node merge would (DESIGN.md §15). A decoded tally is
// untrusted until check has passed.
type shardTally struct {
	SDC          int64                       `json:"sdc"`
	DUE          int64                       `json:"due"`
	Masked       int64                       `json:"masked"`
	Upsets       int64                       `json:"upsets"`
	Reprograms   int64                       `json:"reprograms"`
	Interactions int64                       `json:"interactions"`
	ByBand       [physics.NumBands + 1]int64 `json:"by_band"`
	// Weighted holds the weighted tallies of a biased campaign and is nil
	// on the exact path. It is allocated once per biased shard, so the
	// weighted run loop stays allocation-free.
	Weighted *weightedShardTally `json:"weighted,omitempty"`
}

// weightedShardTally is one shard's private weighted accumulators,
// mirroring the integer tallies above with likelihood-weighted sums. The
// Kahan compensation terms travel with them, so a remote fold is
// bit-identical to a local one.
type weightedShardTally struct {
	Draws        stats.Weighted                       `json:"draws"`
	SDC          stats.Weighted                       `json:"sdc"`
	DUE          stats.Weighted                       `json:"due"`
	Masked       stats.Weighted                       `json:"masked"`
	UpsetsByBand [physics.NumBands + 1]stats.Weighted `json:"upsets_by_band"`
	DUEByBand    [physics.NumBands + 1]stats.Weighted `json:"due_by_band"`
}

// merge folds o into t.
func (t *weightedShardTally) merge(o *weightedShardTally) {
	t.Draws.Merge(o.Draws)
	t.SDC.Merge(o.SDC)
	t.DUE.Merge(o.DUE)
	t.Masked.Merge(o.Masked)
	for b := range t.UpsetsByBand {
		t.UpsetsByBand[b].Merge(o.UpsetsByBand[b])
		t.DUEByBand[b].Merge(o.DUEByBand[b])
	}
}

// campaignSetup is everything a campaign derives deterministically before
// its run loop: the compiled plan, the auto-tuned decomposition and the
// golden workload run. It is a pure function of Config — the coordinator
// computing it to partition a campaign, a worker computing it to execute a
// shard range, and a single-node run all derive identical values
// (DESIGN.md §15).
type campaignSetup struct {
	cfg        Config // defaulted and validated
	pl         *plan.CampaignPlan
	flux       float64
	runSeconds float64
	lambda     float64
	runs       int
	grain      int
	// golden is the workload's golden run, which depends only on the
	// workload and the seed. The first shard the setup executes records
	// it on its own workload instance and every shard replays against
	// it; a coordinator that only partitions or merges never records it.
	goldenOnce sync.Once
	golden     *faultinject.GoldenRun
	goldenErr  error
	// injectors is the free list of replay injectors: a shard takes one
	// or builds one, and returns it when done, so a campaign builds only
	// as many as run at once. Reuse moves no bit: Injector.Run restores
	// every buffer it replays from a golden checkpoint first.
	mu        sync.Mutex
	injectors []*faultinject.Injector
}

// prepare validates the config, compiles (or cache-hits) the campaign
// plan, and derives the run decomposition.
func prepare(ctx context.Context, cfg Config) (*campaignSetup, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// Validate the workload name before committing to the campaign.
	if !slices.Contains(workload.Names(), cfg.WorkloadName) {
		return nil, fmt.Errorf("workload: unknown benchmark %q", cfg.WorkloadName)
	}
	// Campaign setup compiles through the shared plan cache: the first
	// campaign for a (device physics, spectrum, CalSamples, bias) key pays
	// the calibration, and every later one, whatever its seed, reuses the
	// compiled plan (DESIGN.md §12).
	calCtx, cal := telemetry.StartSpan(ctx, "beam.calibrate")
	cal.SetStage("compile")
	pl := plan.Shared.ForBiasedContext(calCtx, cfg.Device, cfg.Beam, cfg.CalSamples, cfg.Seed, cfg.Bias)
	cal.End()

	flux := float64(cfg.Beam.TotalFlux()) * cfg.Derating
	area := cfg.Device.DieAreaCm2
	ratePerSecond := flux * area * pl.MeanP()
	runSeconds := cfg.RunSeconds
	if runSeconds <= 0 {
		// Auto-tune so that a run rarely collects more than one fault
		// (λ ≈ 0.05), bounded to keep run counts tractable.
		runSeconds = 1
		if ratePerSecond > 0.05 {
			runSeconds = 0.05 / ratePerSecond
		}
		if got := cfg.DurationSeconds / runSeconds; got > MaxAutoRuns {
			runSeconds = cfg.DurationSeconds / MaxAutoRuns
		}
	}
	runs := int(cfg.DurationSeconds / runSeconds)
	if runs < 1 {
		runs = 1
	}
	lambda := ratePerSecond * runSeconds
	if !(lambda <= maxRunLambda) {
		return nil, fmt.Errorf("beam: λ = %g interactions per run exceeds the ceiling of %g; use a shorter run_seconds (an auto-tuned campaign splits its duration into at most %g runs)",
			lambda, float64(maxRunLambda), float64(MaxAutoRuns))
	}
	grain := cfg.ShardGrain
	if grain <= 0 {
		grain = defaultShardGrain
	}
	return &campaignSetup{
		cfg:        cfg,
		pl:         pl,
		flux:       flux,
		runSeconds: runSeconds,
		lambda:     lambda,
		runs:       runs,
		grain:      grain,
	}, nil
}

// runShard executes one shard of the campaign on an injector from the
// free list, replaying it against the campaign's golden run.
func (s *campaignSetup) runShard(sh engine.Shard, events *atomic.Int64) (shardTally, error) {
	inj, err := s.injector()
	if err != nil {
		return shardTally{}, err
	}
	tc := runShard(s.cfg, sh, s.pl, inj, s.lambda, events)
	s.mu.Lock()
	s.injectors = append(s.injectors, inj)
	s.mu.Unlock()
	return tc, nil
}

// injector takes an injector off the free list, or builds one on a fresh
// workload instance, recording the golden run on it if no shard has yet.
func (s *campaignSetup) injector() (*faultinject.Injector, error) {
	s.mu.Lock()
	if n := len(s.injectors); n > 0 {
		inj := s.injectors[n-1]
		s.injectors = s.injectors[:n-1]
		s.mu.Unlock()
		return inj, nil
	}
	s.mu.Unlock()
	w, err := workload.New(s.cfg.WorkloadName)
	if err != nil {
		return nil, err
	}
	s.goldenOnce.Do(func() { s.golden, s.goldenErr = faultinject.RecordGolden(w, s.cfg.Seed) })
	if s.goldenErr != nil {
		return nil, s.goldenErr
	}
	return s.golden.NewInjector(w, s.cfg.Inject)
}

// RunContext executes the campaign and reports counts and cross sections.
// Its telemetry spans nest under any span the caller has open (e.g.
// core.assess), and cancellation stops it at the next shard boundary.
//
// The runs loop executes on the sharded engine: each shard of ShardGrain
// runs draws from its own stream (engine.StreamForShard(Seed, shard)) and
// keeps its own persistent-FPGA-corruption state, and replays on an
// injector no other shard holds meanwhile, so the result is identical for
// any Shards worker count — including 1, the serial executor. Persistent
// configuration faults are carried run-to-run within a shard and cleared
// at shard boundaries, operationally a periodic blind bitstream reload
// every ShardGrain runs (DESIGN.md §9).
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	ctx, campaign := telemetry.StartSpan(ctx, "beam.campaign")
	defer campaign.End()
	s, err := prepare(ctx, cfg)
	if err != nil {
		return nil, err
	}
	// beam.neutrons_sampled counts the campaign's calibration budget; it is
	// posted whether the plan was compiled here or served from the cache,
	// so the counter stays proportional to campaigns run rather than to
	// cache misses.
	telemetry.Count("beam.neutrons_sampled", int64(s.cfg.CalSamples))

	_, runSpan := telemetry.StartSpan(ctx, "beam.runs")
	runStart := time.Now()
	// events is the only state shared across shards: an atomic SDC+DUE
	// count feeding progress lines (Result fields are written only after
	// the merge, so concurrent shards never touch them).
	var events atomic.Int64
	tallies, err := engine.Map(ctx, engine.Config{
		Workers: s.cfg.Shards,
		Grain:   s.grain,
		Seed:    s.cfg.Seed,
		Name:    "beam",
		OnShardDone: func(_ engine.Shard, doneItems, totalItems int) {
			telemetry.ReportProgressContext(ctx, telemetry.ProgressUpdate{
				Component: "beam",
				Device:    s.cfg.Device.Name,
				Beam:      s.cfg.Beam.Name(),
				Done:      float64(doneItems),
				Total:     float64(totalItems),
				Fluence:   s.flux * s.runSeconds * float64(doneItems),
				Events:    events.Load(),
				Elapsed:   time.Since(runStart),
			})
		},
	}, s.runs, defaultShardGrain, func(_ context.Context, sh engine.Shard) (shardTally, error) {
		return s.runShard(sh, &events)
	})
	runSpan.End()
	if err != nil {
		return nil, err
	}
	return s.assemble(ctx, tallies, time.Since(runStart))
}

// assemble folds per-shard tallies — in shard order — into the campaign
// Result, posts the campaign's telemetry totals, and computes the cross
// sections. It is the single merge implementation shared by the local
// path (RunContext) and the distributed path (AssemblePartials), which is
// what makes "distributed results are bit-identical to single-node runs"
// a structural property rather than a re-implementation promise. elapsed
// is the wall time of the run phase; non-positive skips the throughput
// gauge (a coordinator assembling remote tallies ran nothing itself).
func (s *campaignSetup) assemble(ctx context.Context, tallies []shardTally, elapsed time.Duration) (*Result, error) {
	_, mergeSpan := telemetry.StartSpan(ctx, "beam.merge")
	mergeSpan.SetStage("merge")
	defer mergeSpan.End()
	res := &Result{
		Device:       s.cfg.Device.Name,
		Workload:     s.cfg.WorkloadName,
		Beam:         s.cfg.Beam.Name(),
		Runs:         s.runs,
		Fluence:      units.Fluence(s.flux * s.runSeconds * float64(s.runs)),
		FaultsByBand: map[physics.EnergyBand]int64{},
	}
	var totalInteractions int64
	var w weightedShardTally
	// Shard counts are non-negative (AssemblePartials checks remote ones),
	// so a total wraps only past MaxInt64: an error, not a wrong answer.
	// Per shard, by-band counts and weighted Ns are bounded by these.
	overflow := false
	add := func(total *int64, n int64) {
		overflow = overflow || n > math.MaxInt64-*total
		*total += n
	}
	for _, tc := range tallies {
		add(&res.SDC, tc.SDC)
		add(&res.DUE, tc.DUE)
		add(&res.Masked, tc.Masked)
		add(&res.Upsets, tc.Upsets)
		add(&res.Reprograms, tc.Reprograms)
		add(&totalInteractions, tc.Interactions)
		for b, n := range tc.ByBand {
			if n != 0 {
				res.FaultsByBand[physics.EnergyBand(b)] += n
			}
		}
		if tc.Weighted != nil {
			w.merge(tc.Weighted)
		}
	}
	if overflow {
		return nil, errors.New("beam: shard tallies overflow the campaign's int64 totals")
	}
	// Post campaign totals once, atomically, after the merge — per-run
	// counter traffic from inside shards would be racy bookkeeping at
	// best and a contention hot spot at worst.
	// beam.neutrons_sampled counts calibration draws only (posted by the
	// campaign entry points); conditioned interaction draws are
	// beam.interactions. Adding the interactions here again would
	// double-count them across two counters.
	reg := telemetry.Default
	reg.Counter("beam.interactions").Add(totalInteractions)
	reg.Counter("beam.sdc_events").Add(res.SDC)
	reg.Counter("beam.due_events").Add(res.DUE)
	reg.Counter("beam.runs").Add(int64(s.runs))
	reg.Counter("beam.upsets").Add(res.Upsets)
	reg.Counter("beam.masked").Add(res.Masked)
	if secs := elapsed.Seconds(); secs > 0 {
		reg.Gauge("beam.samples_per_sec").Set(
			(float64(s.cfg.CalSamples) + float64(totalInteractions)) / secs)
	}
	if s.cfg.Bias != nil {
		res.Weighted = &WeightedResult{
			Bias:         *s.cfg.Bias,
			Draws:        w.Draws,
			SDC:          w.SDC,
			DUE:          w.DUE,
			Masked:       w.Masked,
			UpsetsByBand: map[physics.EnergyBand]stats.Weighted{},
			DUEByBand:    map[physics.EnergyBand]stats.Weighted{},
		}
		for b := 1; b < len(w.UpsetsByBand); b++ {
			if t := w.UpsetsByBand[b]; t.N != 0 {
				res.Weighted.UpsetsByBand[physics.EnergyBand(b)] = t
			}
			if t := w.DUEByBand[b]; t.N != 0 {
				res.Weighted.DUEByBand[physics.EnergyBand(b)] = t
			}
		}
		res.Weighted.finalize()
		// beam.neutrons_weighted counts the biased campaign's weighted
		// interaction draws. Like every Result field it is a pure function
		// of the shard decomposition, so it is shard-count-invariant.
		reg.Counter("beam.neutrons_weighted").Add(res.Weighted.Draws.N)
	}
	if err := res.estimateCrossSections(); err != nil {
		return nil, err
	}
	return res, nil
}

// finalize folds every tally's Kahan compensation into its exported sums
// before the result is published (the JSON round-trip guarantee of
// stats.Weighted).
func (w *WeightedResult) finalize() {
	w.Draws.Finalize()
	w.SDC.Finalize()
	w.DUE.Finalize()
	w.Masked.Finalize()
	for _, m := range []map[physics.EnergyBand]stats.Weighted{w.UpsetsByBand, w.DUEByBand} {
		for b, t := range m {
			t.Finalize()
			m[b] = t
		}
	}
}

// estimateCrossSections derives the SDC and DUE cross sections from the
// result's tallies and fluence. Biased results use the weighted, ESS-gated
// estimates: their raw counts are biased-sample counts and would mis-state
// the physics.
func (r *Result) estimateCrossSections() error {
	fluence := float64(r.Fluence)
	var err error
	if w := r.Weighted; w != nil {
		if r.SDCCrossSection, err = stats.EstimateWeightedRate(w.SDC, fluence); err != nil {
			return err
		}
		r.DUECrossSection, err = stats.EstimateWeightedRate(w.DUE, fluence)
		return err
	}
	if r.SDCCrossSection, err = stats.EstimateRate(r.SDC, fluence); err != nil {
		return err
	}
	r.DUECrossSection, err = stats.EstimateRate(r.DUE, fluence)
	return err
}

// shardRunner executes one shard's slice of beam runs. Each shard holds
// an injector for its lifetime (injectors replay mutable workload state
// and are not safe to share between running shards; the campaign's free
// list hands them from shard to shard, and the golden run they replay
// against is recorded once per campaign), plus the shard-local list of
// persistent FPGA configuration faults (§V): corruption survives from run
// to run until an observed error triggers a bitstream reload, and is
// dropped at the shard boundary. The fault and persistent buffers are
// owned by the runner and reused across all of the shard's runs, so the
// steady-state run loop performs no heap allocations (DESIGN.md §11).
type shardRunner struct {
	cfg    Config
	lambda float64
	// biased selects the weighted estimator: draws come from the biased
	// table with their likelihood weights, and every tally is fed the
	// weight alongside its integer count. It is fixed by the plan for the
	// shard's lifetime, so its branches predict perfectly.
	biased bool
	// sample (exact) or wsample (biased) is the plan's hoisted alias-table
	// view, whichever the mode draws from: materialize reads the fused
	// 32-byte slots through a runner-local slice header instead of chasing
	// the plan pointer per draw.
	sample     plan.Sampler
	wsample    plan.WeightedSampler
	inj        *faultinject.Injector
	steps      int
	s          *rng.Stream
	events     *atomic.Int64
	tc         shardTally
	faults     []faultinject.Timed
	persistent []faultinject.Timed
	// wCarried is the weighted estimator's carried likelihood weight: the
	// product of the weights of every draw since the shard's last
	// persistent-state regeneration (empty persistent set). A run's
	// outcome depends on those draws through the carried FPGA
	// configuration faults, so its outcome weight is wCarried times the
	// current run's draw-weight product. Regeneration points (persistent
	// empty) restart the chain from a deterministic state, which is what
	// keeps the segmented product unbiased. It stays 1 on the exact path.
	wCarried float64
}

func newShardRunner(cfg Config, sh engine.Shard, pl *plan.CampaignPlan, inj *faultinject.Injector, lambda float64, events *atomic.Int64) *shardRunner {
	r := &shardRunner{
		cfg:      cfg,
		lambda:   lambda,
		biased:   pl.IsBiased(),
		inj:      inj,
		steps:    inj.Steps(),
		s:        sh.Stream,
		events:   events,
		wCarried: 1,
	}
	if r.biased {
		r.wsample = pl.WeightedSampler()
		r.tc.Weighted = &weightedShardTally{}
	} else {
		r.sample = pl.Sampler()
	}
	return r
}

// runBlock executes n runs. A run is a Poisson number of conditioned
// interaction draws, device physics per interaction, then workload replay
// under the collected faults. One PoissonRun call draws the gap of empty
// runs before the next interacting run, at O(1) cost whatever its length
// (DESIGN.md §16). A gap run that carries a persistent FPGA fault still
// replays on its own, until an observed error reprograms the FPGA; the
// rest of the gap counts as masked in one add, and on the biased path in
// one unit-weight add, since an empty run's outcome weight is wCarried·1
// = 1 while nothing is carried. The shared events counter is flushed
// once, at the end. It must stay free of per-run allocations (asserted by
// TestRunLoopZeroAllocs for both estimators).
func (r *shardRunner) runBlock(n int) {
	before := r.tc.SDC + r.tc.DUE
	for n > 0 {
		zeros, nInt := r.s.PoissonRun(r.lambda, n)
		n -= zeros
		for ; zeros > 0 && len(r.persistent) > 0; zeros-- {
			r.materialize(0)
		}
		if zeros > 0 {
			r.tc.Masked += int64(zeros)
			if r.biased {
				r.tc.Weighted.Masked.AddUnits(int64(zeros))
			}
		}
		if n > 0 {
			r.materialize(nInt)
			n--
		}
	}
	if d := r.tc.SDC + r.tc.DUE - before; d != 0 {
		r.events.Add(d)
	}
}

// materialize is the rare path of a run: nInt > 0 interactions to draw
// and classify, or carried persistent faults to replay (or both). At
// auto-tuned λ ≈ 0.05 over 95% of runs never come here. On the biased path every interaction
// comes from the biased table with its likelihood weight: per-draw
// tallies (draws, upsets by band) use the draw's own weight, run outcomes
// (SDC/DUE/Masked) the product of the weights of every draw that
// influenced the run.
func (r *shardRunner) materialize(nInt int64) {
	s, w, biased := r.s, r.tc.Weighted, r.biased
	r.tc.Interactions += nInt
	wRun := 1.0
	faults := append(r.faults[:0], r.persistent...)
	for k := int64(0); k < nInt; k++ {
		var e units.Energy
		wDraw := 1.0
		if biased {
			e, wDraw = r.wsample.Sample(s)
			w.Draws.Add(wDraw)
			wRun *= wDraw
		} else {
			e = r.sample.Sample(s)
		}
		f, upset := r.cfg.Device.InteractionUpset(e, s)
		if !upset {
			continue
		}
		r.tc.Upsets++
		r.tc.ByBand[f.Band]++
		if biased {
			w.UpsetsByBand[f.Band].Add(wDraw)
		}
		tf := faultinject.Timed{Step: s.Intn(r.steps), Fault: f}
		faults = append(faults, tf)
		if f.Target == device.TargetConfig {
			tf.Step = 0 // a corrupted bitstream affects the whole run
			r.persistent = append(r.persistent, tf)
		}
	}
	r.faults = faults[:0]
	outcome, outcomeBand := faultinject.OutcomeMasked, physics.EnergyBand(0)
	if len(faults) > 0 {
		outcomeBand = faults[0].Fault.Band
		outcome = r.inj.Run(faults, s).Outcome
	}
	// This run's outcome is a function of its own draws and of the draws
	// whose persistent faults were carried in, so its likelihood weight
	// is the carried product times this run's product.
	wOut := r.wCarried * wRun
	switch outcome {
	case faultinject.OutcomeSDC:
		r.tc.SDC++
		if biased {
			w.SDC.Add(wOut)
		}
	case faultinject.OutcomeDUE:
		r.tc.DUE++
		if biased {
			w.DUE.Add(wOut)
			w.DUEByBand[outcomeBand].Add(wOut)
		}
	default:
		r.tc.Masked++
		if biased {
			w.Masked.Add(wOut)
		}
	}
	if (outcome == faultinject.OutcomeSDC || outcome == faultinject.OutcomeDUE) && len(r.persistent) > 0 {
		r.persistent = r.persistent[:0] // an observed error reprograms the FPGA
		r.tc.Reprograms++
	}
	if biased {
		r.advanceCarried(wRun)
	}
}

// advanceCarried rolls the carried likelihood weight forward after a run:
// an empty persistent set is a regeneration point (the chain restarts
// from a deterministic state, so history stops mattering and the carried
// weight resets to 1); otherwise this run's draws keep influencing future
// runs through the surviving configuration faults and their weight
// product carries forward. Non-FPGA devices never populate persistent, so
// their carried weight is always 1.
func (r *shardRunner) advanceCarried(wRun float64) {
	if len(r.persistent) == 0 {
		r.wCarried = 1
		return
	}
	r.wCarried *= wRun
}

func runShard(cfg Config, sh engine.Shard, pl *plan.CampaignPlan, inj *faultinject.Injector, lambda float64, events *atomic.Int64) shardTally {
	r := newShardRunner(cfg, sh, pl, inj, lambda, events)
	r.runBlock(sh.Count)
	return r.tc
}

// String renders a one-line summary.
func (r *Result) String() string {
	return fmt.Sprintf("%s/%s @ %s: runs=%d fluence=%s SDC=%d (σ=%.3g cm²) DUE=%d (σ=%.3g cm²)",
		r.Device, r.Workload, r.Beam, r.Runs, r.Fluence,
		r.SDC, r.SDCCrossSection.Rate, r.DUE, r.DUECrossSection.Rate)
}

// Pair holds the matched ChipIR/ROTAX measurements for one device and
// workload, mirroring the paper's same-device-same-setup methodology.
type Pair struct {
	Fast    *Result
	Thermal *Result
}

// SDCRatio returns the fast:thermal SDC cross-section ratio with an
// approximate 95% interval.
func (p Pair) SDCRatio() (ratio, lo, hi float64) {
	return stats.RatioCI(p.Fast.SDCCrossSection, p.Thermal.SDCCrossSection)
}

// DUERatio returns the fast:thermal DUE cross-section ratio with an
// approximate 95% interval.
func (p Pair) DUERatio() (ratio, lo, hi float64) {
	return stats.RatioCI(p.Fast.DUECrossSection, p.Thermal.DUECrossSection)
}

// Merge combines campaign results from multiple workloads on one device
// into device-average counts (the averages of Fig. cs_ratio).
func Merge(results []*Result) (*Result, error) {
	if len(results) == 0 {
		return nil, errors.New("beam: nothing to merge")
	}
	out := &Result{
		Device:       results[0].Device,
		Workload:     "average",
		Beam:         results[0].Beam,
		FaultsByBand: map[physics.EnergyBand]int64{},
	}
	weighted := results[0].Weighted != nil
	if weighted {
		out.Weighted = &WeightedResult{
			Bias:         results[0].Weighted.Bias,
			UpsetsByBand: map[physics.EnergyBand]stats.Weighted{},
			DUEByBand:    map[physics.EnergyBand]stats.Weighted{},
		}
	}
	for _, r := range results {
		if r.Device != out.Device || r.Beam != out.Beam {
			return nil, errors.New("beam: merge requires same device and beam")
		}
		if (r.Weighted != nil) != weighted {
			return nil, errors.New("beam: cannot merge biased and exact campaigns")
		}
		if weighted && r.Weighted.Bias != out.Weighted.Bias {
			return nil, errors.New("beam: merge requires identical bias knobs")
		}
		out.Runs += r.Runs
		out.Fluence += r.Fluence
		out.SDC += r.SDC
		out.DUE += r.DUE
		out.Masked += r.Masked
		out.Upsets += r.Upsets
		out.Reprograms += r.Reprograms
		for b, n := range r.FaultsByBand {
			out.FaultsByBand[b] += n
		}
		if weighted {
			out.Weighted.Draws.Merge(r.Weighted.Draws)
			out.Weighted.SDC.Merge(r.Weighted.SDC)
			out.Weighted.DUE.Merge(r.Weighted.DUE)
			out.Weighted.Masked.Merge(r.Weighted.Masked)
			mergeBands(out.Weighted.UpsetsByBand, r.Weighted.UpsetsByBand)
			mergeBands(out.Weighted.DUEByBand, r.Weighted.DUEByBand)
		}
	}
	if weighted {
		// The inputs were finalized by their campaigns, so the merged
		// sums carry no compensation residue worth keeping; finalize for
		// the same round-trip-stable representation.
		out.Weighted.finalize()
	}
	if err := out.estimateCrossSections(); err != nil {
		return nil, err
	}
	return out, nil
}

// mergeBands folds the per-band tallies of src into dst.
func mergeBands(dst, src map[physics.EnergyBand]stats.Weighted) {
	for b, t := range src {
		m := dst[b]
		m.Merge(t)
		dst[b] = m
	}
}
