package memsim

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"neutronsim/internal/engine"
	"neutronsim/internal/rng"
	"neutronsim/internal/spectrum"
	"neutronsim/internal/stats"
	"neutronsim/internal/telemetry"
	"neutronsim/internal/units"
)

// Band selects which sensitivity the beam exercises.
type Band int

// Beam bands for memory campaigns.
const (
	ThermalBeam Band = iota + 1
	FastBeam
)

// String names the band.
func (b Band) String() string {
	switch b {
	case ThermalBeam:
		return "thermal"
	case FastBeam:
		return "fast"
	default:
		return "unknown"
	}
}

// DefaultFlux is the band's beam flux in the paper's campaigns: ROTAX's
// total flux for thermal runs and, for fast runs, ChipIR's flux above
// 10 MeV, the paper's ChipIR normalization.
func (b Band) DefaultFlux() units.Flux {
	switch b {
	case ThermalBeam:
		return spectrum.ROTAXTotalFlux
	case FastBeam:
		return spectrum.ChipIRFastFluxAbove10MeV
	default:
		return 0
	}
}

// DefaultAbortLimit is the band's permanent-fault abort limit in the
// paper's campaigns: fast runs stop at 100 live permanent faults, as both
// modules did "after few minutes of irradiation at ChipIR" (§IV), and
// thermal runs never stop (0).
func (b Band) DefaultAbortLimit() int {
	if b == FastBeam {
		return 100
	}
	return 0
}

// Config describes one correct-loop campaign (§IV): the module is filled
// with a known pattern (0xFF or 0x00, alternating between passes),
// continuously read, and rewritten after each observed error.
type Config struct {
	Spec ModuleSpec
	Band Band
	// Flux is the beam flux (e.g. ROTAX total flux for thermal runs).
	Flux units.Flux
	// DurationSeconds is the total beam time.
	DurationSeconds float64
	// PassSeconds is the time to read the whole module once (default 1).
	PassSeconds float64
	// ECC enables SECDED(72,64) accounting by rule: a misread word with at
	// most one flipped bit counts as corrected, any other word as
	// uncorrectable. No code is encoded or decoded.
	ECC bool
	// PermanentAbortLimit stops a campaign shard once this many permanent
	// faults are live in it — what happened to both modules "after few
	// minutes of irradiation at ChipIR" (§IV). Zero disables. Under
	// sharded execution the limit applies per shard (each shard is an
	// independent beam session; see DESIGN.md §9), and the merged result
	// reports Aborted when any session aborted.
	PermanentAbortLimit int
	Seed                uint64
	// Shards caps how many campaign shards execute concurrently (default
	// GOMAXPROCS). It never affects results; see internal/engine.
	Shards int
	// ShardGrain is the number of correct-loop passes per shard (default
	// 8192). Each shard models an independent beam session on a freshly
	// rewritten module: live faults do not carry across shard boundaries.
	// The grain is part of the deterministic seed schedule.
	ShardGrain int
}

// DefaultShardGrain is the number of correct-loop passes per engine shard.
// An hour-long session stays a single shard; multi-hour campaigns split.
const DefaultShardGrain = 8192

func (c Config) validate() error {
	if err := c.Spec.Validate(); err != nil {
		return err
	}
	switch {
	case c.Band != ThermalBeam && c.Band != FastBeam:
		return errors.New("memsim: band must be thermal or fast")
	case c.Flux <= 0:
		return errors.New("memsim: non-positive flux")
	case c.DurationSeconds <= 0:
		return errors.New("memsim: non-positive duration")
	}
	return nil
}

// liveFault is a materialized cell fault.
type liveFault struct {
	addr     uint64
	dir      Direction
	kind     Category
	bornPass int
}

// Result reports a memory campaign.
type Result struct {
	Spec    ModuleSpec
	Band    Band
	Fluence units.Fluence
	Passes  int
	Aborted bool

	// Events are classified error events (a SEFI burst is one event).
	Events      int64
	ByCategory  map[Category]int64
	ByDirection map[Direction]int64
	// TruthByCategory is the generator-side ground truth, kept for
	// validating the observer-side classifier.
	TruthByCategory map[Category]int64

	SingleBitEvents int64
	MultiBitEvents  int64

	// ECC accounting (populated when Config.ECC is set).
	ECCCorrected     int64
	ECCUncorrectable int64

	// SigmaPerGbit is the classified-event cross section per Gbit.
	SigmaPerGbit stats.RateEstimate
}

// sefiThreshold is the per-pass count of previously unseen addresses above
// which the classifier attributes the burst to DDR control logic (SEFI).
const sefiThreshold = 50

// addrRecord is the streaming per-address observation summary. Keeping a
// compact record instead of the full observation list bounds campaign
// memory by the number of distinct erroring addresses, not by
// passes × stuck-at cells (a multi-day campaign would otherwise need
// gigabytes for the stuck-at observation stream).
type addrRecord struct {
	dir     Direction
	first   int // pass of first sighting
	count   int // total sightings
	maxBits int // worst per-word corruption seen
}

// recorder aggregates the observation stream as the correct loop runs.
type recorder struct {
	records    map[uint64]*addrRecord
	perPassNew map[int]int
	res        *Result
	ecc        bool
}

func newRecorder(res *Result, ecc bool) *recorder {
	return &recorder{
		records:    map[uint64]*addrRecord{},
		perPassNew: map[int]int{},
		res:        res,
		ecc:        ecc,
	}
}

// observe records one misread word.
func (r *recorder) observe(pass int, addr uint64, dir Direction, bits int) {
	rec := r.records[addr]
	if rec == nil {
		rec = &addrRecord{dir: dir, first: pass, maxBits: bits}
		r.records[addr] = rec
		r.perPassNew[pass]++
	}
	rec.count++
	if bits > rec.maxBits {
		rec.maxBits = bits
	}
	if r.ecc {
		if bits <= 1 {
			r.res.ECCCorrected++
		} else {
			r.res.ECCUncorrectable++
		}
	}
}

// RunContext executes the correct-loop campaign. Campaign spans nest under
// the caller's, progress posts reach any observer attached with
// telemetry.ContextWithProgress, and cancellation stops the campaign at the
// next shard boundary.
//
// The pass loop executes on the sharded engine: the campaign's passes are
// split into contiguous shards, each drawing from its own deterministic
// stream (engine.StreamForShard(Seed, shard)) and behaving like an
// independent beam session on a freshly rewritten module — live faults,
// the abort limit, and the taxonomy classifier are all per shard, and the
// merged result sums the per-session counts. The result is identical for
// any Shards worker count, including 1.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.PassSeconds <= 0 {
		cfg.PassSeconds = 1
	}
	sigma := cfg.Spec.ThermalSigmaPerGbit
	if cfg.Band == FastBeam {
		sigma = cfg.Spec.FastSigmaPerGbit
	}
	rate := float64(sigma) * cfg.Spec.Gbits() * float64(cfg.Flux) // events/s
	passes := int(cfg.DurationSeconds / cfg.PassSeconds)
	if passes < 1 {
		passes = 1
	}

	start := time.Now()
	shardResults, err := engine.Map(ctx, engine.Config{
		Workers: cfg.Shards,
		Grain:   cfg.ShardGrain,
		Seed:    cfg.Seed,
		Name:    "memsim",
		OnShardDone: func(doneItems, totalItems int) {
			telemetry.ReportProgress(ctx, telemetry.ProgressUpdate{
				Component: "memsim",
				Device:    cfg.Spec.Generation.String(),
				Beam:      cfg.Band.String(),
				Done:      float64(doneItems),
				Total:     float64(totalItems),
				Fluence:   float64(cfg.Flux) * cfg.PassSeconds * float64(doneItems),
				Elapsed:   time.Since(start),
			})
		},
	}, passes, DefaultShardGrain, func(_ context.Context, sh engine.Shard) (*Result, error) {
		return runShard(cfg, sh, rate), nil
	})
	if err != nil {
		return nil, err
	}
	res := &Result{
		Spec:            cfg.Spec,
		Band:            cfg.Band,
		ByCategory:      map[Category]int64{},
		ByDirection:     map[Direction]int64{},
		TruthByCategory: map[Category]int64{},
	}
	elapsed := 0.0
	for _, sr := range shardResults {
		res.Passes += sr.Passes
		res.Aborted = res.Aborted || sr.Aborted
		res.Events += sr.Events
		res.SingleBitEvents += sr.SingleBitEvents
		res.MultiBitEvents += sr.MultiBitEvents
		res.ECCCorrected += sr.ECCCorrected
		res.ECCUncorrectable += sr.ECCUncorrectable
		for c, n := range sr.ByCategory {
			res.ByCategory[c] += n
		}
		for d, n := range sr.ByDirection {
			res.ByDirection[d] += n
		}
		for c, n := range sr.TruthByCategory {
			res.TruthByCategory[c] += n
		}
		elapsed += float64(sr.Passes) * cfg.PassSeconds
	}
	res.Fluence = units.Fluence(float64(cfg.Flux) * elapsed)
	res.SigmaPerGbit, err = stats.EstimateRate(res.Events, float64(res.Fluence)*cfg.Spec.Gbits())
	if err != nil {
		return nil, err
	}
	return res, nil
}

// runShard executes the shard's pass window [sh.Start, sh.Start+sh.Count)
// as one independent beam session: the module starts freshly written, the
// fault generator and the observer-side classifier both run shard-locally,
// and global pass indices keep the 0xFF/0x00 pattern phase aligned with
// the serial schedule.
func runShard(cfg Config, sh engine.Shard, rate float64) *Result {
	s := sh.Stream
	res := &Result{
		Spec:            cfg.Spec,
		Band:            cfg.Band,
		ByCategory:      map[Category]int64{},
		ByDirection:     map[Direction]int64{},
		TruthByCategory: map[Category]int64{},
	}
	rec := newRecorder(res, cfg.ECC)
	var live []liveFault
	permanents := 0

	catSampler := newCategorySampler(cfg.Spec.CategoryWeights)
	end := sh.Start + sh.Count
	for p := sh.Start; p < end; p++ {
		pattern := patternForPass(p) // true ⇒ cells hold 1 (0xFF)
		// New faults materialize during this pass.
		n := s.Poisson(rate * cfg.PassSeconds)
		for i := int64(0); i < n; i++ {
			kind := catSampler.sample(s)
			dir := cfg.Spec.BiasDirection
			if !s.Bernoulli(cfg.Spec.BiasFraction) {
				dir = otherDirection(dir)
			}
			switch kind {
			case SEFI:
				// Control-logic upset: a burst of addresses misread in
				// this pass only; the read direction follows the pattern.
				res.TruthByCategory[SEFI]++
				burst := cfg.Spec.SEFIBurstMin +
					s.Intn(cfg.Spec.SEFIBurstMax-cfg.Spec.SEFIBurstMin+1)
				bdir := OneToZero
				if !pattern {
					bdir = ZeroToOne
				}
				for b := 0; b < burst; b++ {
					rec.observe(p, s.Uint64n(cfg.Spec.Bits()), bdir, 1+s.Intn(8))
				}
			case Permanent:
				// Displacement damage forms regardless of the stored value.
				res.TruthByCategory[Permanent]++
				live = append(live, liveFault{
					addr: s.Uint64n(cfg.Spec.Bits()), dir: dir,
					kind: Permanent, bornPass: p,
				})
				permanents++
			default:
				// Bit flips require the cell to hold the susceptible
				// value: with an all-ones pattern only 1→0 can occur.
				if (dir == OneToZero) != pattern {
					continue
				}
				res.TruthByCategory[kind]++
				live = append(live, liveFault{
					addr: s.Uint64n(cfg.Spec.Bits()), dir: dir,
					kind: kind, bornPass: p,
				})
			}
		}
		// Read pass: collect misreads.
		keep := live[:0]
		for _, f := range live {
			visible := (f.dir == OneToZero) == pattern
			switch f.kind {
			case Transient:
				if visible {
					rec.observe(p, f.addr, f.dir, 1)
				}
				// Rewritten after the pass either way; transient gone.
			case Intermittent:
				if visible && s.Bernoulli(cfg.Spec.IntermittentReadProb) {
					rec.observe(p, f.addr, f.dir, 1)
				}
				keep = append(keep, f)
			case Permanent:
				if visible {
					rec.observe(p, f.addr, f.dir, 1)
				}
				keep = append(keep, f)
			}
		}
		live = keep
		res.Passes++
		if cfg.PermanentAbortLimit > 0 && permanents >= cfg.PermanentAbortLimit {
			res.Aborted = true
			break
		}
	}
	classify(res, rec, sh.Start+res.Passes)
	return res
}

func patternForPass(p int) bool { return p%2 == 0 }

// categorySampler draws fault categories with the spec's weights using a
// deterministic category order and an O(1) alias draw.
type categorySampler struct {
	cats []Category
	pick *rng.AliasTable
}

func newCategorySampler(weights map[Category]float64) *categorySampler {
	cs := &categorySampler{}
	var ws []float64
	for _, c := range []Category{Transient, Intermittent, Permanent, SEFI} {
		w := weights[c]
		if w <= 0 {
			continue
		}
		cs.cats = append(cs.cats, c)
		ws = append(ws, w)
	}
	if len(cs.cats) == 0 {
		// Degenerate spec with no positive weight: sample will panic, as
		// the cumulative-table version did. Validation rejects this
		// upstream.
		return cs
	}
	pick, err := rng.NewAliasTable(ws)
	if err != nil {
		panic(fmt.Sprintf("memsim: category weights: %v", err))
	}
	cs.pick = pick
	return cs
}

func (cs *categorySampler) sample(s *rng.Stream) Category {
	return cs.cats[cs.pick.Draw(s)]
}

func otherDirection(d Direction) Direction {
	if d == OneToZero {
		return ZeroToOne
	}
	return OneToZero
}

// classify reconstructs the paper's taxonomy purely from the aggregated
// observation records, the way the experimenters did:
//
//   - A pass where an abnormal number of previously unseen addresses error
//     at once is a SEFI burst (one event); the burst's one-shot addresses
//     are debris, not cell faults.
//   - An address seen exactly once is a transient.
//   - An address that errored on every pass whose pattern made its flip
//     direction readable, from first sighting to the end, is a stuck-at
//     (permanent) cell.
//   - Anything recurring with gaps is intermittent.
//
// endPass is the global index one past the last executed pass of the
// classified window; stuck-at detection needs it to count how many passes
// an address could have been observed on.
func classify(res *Result, rec *recorder, endPass int) {
	sefiPasses := map[int]bool{}
	for p, n := range rec.perPassNew {
		if n >= sefiThreshold {
			sefiPasses[p] = true
			res.Events++
			res.ByCategory[SEFI]++
			res.MultiBitEvents++
		}
	}
	// Deterministic iteration for reproducible results.
	addrs := make([]uint64, 0, len(rec.records))
	for a := range rec.records {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		h := rec.records[a]
		// SEFI debris: first (and only) sighting inside a burst pass.
		if sefiPasses[h.first] && h.count == 1 {
			continue
		}
		res.Events++
		res.ByDirection[h.dir]++
		if h.maxBits > 1 {
			res.MultiBitEvents++
		} else {
			res.SingleBitEvents++
		}
		switch {
		case h.count == 1:
			res.ByCategory[Transient]++
		case h.count >= readablePasses(h.first, endPass, h.dir):
			// Stuck-at cells error on every readable pass (including
			// SEFI-burst passes, where their observations still landed).
			res.ByCategory[Permanent]++
		default:
			res.ByCategory[Intermittent]++
		}
	}
}

// readablePasses counts the passes in [first, total) whose pattern makes a
// flip of direction dir observable.
func readablePasses(first, total int, dir Direction) int {
	if first >= total {
		return 0
	}
	n := total - first
	// Readable passes are the even-index passes for 1→0 (pattern all-ones)
	// and odd-index passes for 0→1.
	count := n / 2
	if n%2 == 1 {
		startReadable := (dir == OneToZero) == patternForPass(first)
		if startReadable {
			count++
		}
	}
	return count
}

// String renders a one-line summary.
func (r *Result) String() string {
	return fmt.Sprintf("%v @ %v beam: passes=%d events=%d (T=%d I=%d P=%d SEFI=%d) σ/Gbit=%.3g cm² aborted=%v",
		r.Spec.Generation, r.Band, r.Passes, r.Events,
		r.ByCategory[Transient], r.ByCategory[Intermittent],
		r.ByCategory[Permanent], r.ByCategory[SEFI],
		r.SigmaPerGbit.Rate, r.Aborted)
}

// DirectionBias returns the fraction of direction-classified events in the
// dominant direction.
func (r *Result) DirectionBias() (Direction, float64) {
	oz := r.ByDirection[OneToZero]
	zo := r.ByDirection[ZeroToOne]
	total := oz + zo
	if total == 0 {
		return 0, 0
	}
	if oz >= zo {
		return OneToZero, float64(oz) / float64(total)
	}
	return ZeroToOne, float64(zo) / float64(total)
}
