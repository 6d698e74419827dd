// Distributed shard-range execution: the beam-campaign surface of the
// cluster protocol (internal/cluster, DESIGN.md §15).
//
// A campaign's shard plan is a pure function of (Config.Seed, ShardGrain,
// runs), and every shard's tally is a pure function of (Config, shard
// index). The coordinator therefore partitions the plan into half-open
// shard-index ranges, peers execute ranges with RunRange, and the
// coordinator folds the returned per-shard tallies with AssemblePartials
// — the same merge, in the same shard order, as a single-node RunContext.
// Re-executing a range (a re-dispatch after a worker failure) is
// idempotent: it can only reproduce the identical tallies.
package beam

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"neutronsim/internal/engine"
	"neutronsim/internal/stats"
	"neutronsim/internal/telemetry"
	"neutronsim/internal/telemetry/trace"
)

// ShardRange is a half-open range [Lo, Hi) of campaign shard indices.
type ShardRange struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Len returns the number of shards the range covers.
func (r ShardRange) Len() int { return r.Hi - r.Lo }

func (r ShardRange) String() string { return fmt.Sprintf("[%d,%d)", r.Lo, r.Hi) }

// Info is the deterministic decomposition of a campaign: how many runs it
// auto-tunes to, the shard grain, and the resulting shard count. Every
// node computing Info for the same Config derives identical values, which
// is what lets a coordinator partition work it will never execute.
type Info struct {
	Runs       int     `json:"runs"`
	Grain      int     `json:"grain"`
	Shards     int     `json:"shards"`
	RunSeconds float64 `json:"run_seconds"`
}

// PlanInfo compiles (or cache-hits) the campaign plan and returns the
// shard decomposition.
func PlanInfo(ctx context.Context, cfg Config) (Info, error) {
	s, err := prepare(ctx, cfg)
	if err != nil {
		return Info{}, err
	}
	return Info{
		Runs:       s.runs,
		Grain:      s.grain,
		Shards:     len(engine.Plan(s.runs, s.grain)),
		RunSeconds: s.runSeconds,
	}, nil
}

// MaxTallyJSON bounds the JSON encoding of one shard tally in a Partial,
// its separating comma included. The longest tally is a biased one with
// every int64 at 20 bytes and every float64 at 25: 2,266 bytes
// (TestMaxTallyJSON).
const MaxTallyJSON = 2560

// Partial is the result of executing one shard range: the per-shard
// tallies in shard order (Tallies[i] is shard Range.Lo+i), shipped
// un-merged so the coordinator folds them exactly as a single node would.
type Partial struct {
	Range   ShardRange   `json:"range"`
	Tallies []shardTally `json:"tallies"`
}

// check verifies a decoded shard tally against the conservation laws the
// run loop obeys, so a corrupt tally, or one from a worker running other
// code or another plan, is rejected instead of merged. runs is the shard's
// run count in the campaign's engine.Plan. encoding/json zero-pads or
// truncates the fixed-size band arrays without complaint, so the band
// sums, not their lengths, are what catch a malformed band section.
func (t *shardTally) check(runs int, biased bool) error {
	if biased != (t.Weighted != nil) {
		return fmt.Errorf("weighted section present=%v, campaign biased=%v", t.Weighted != nil, biased)
	}
	counts := append([]int64{t.SDC, t.DUE, t.Masked, t.Upsets, t.Reprograms, t.Interactions}, t.ByBand[:]...)
	var sums []stats.Weighted
	if w := t.Weighted; w != nil {
		sums = append([]stats.Weighted{w.Draws, w.SDC, w.DUE, w.Masked}, w.UpsetsByBand[:]...)
		sums = append(sums, w.DUEByBand[:]...)
		for _, c := range sums {
			counts = append(counts, c.N)
		}
	}
	switch {
	case slices.Min(counts) < 0:
		return fmt.Errorf("negative count in %+v", counts)
	case !sumsTo(int64(runs), t.SDC, t.DUE, t.Masked):
		return fmt.Errorf("sdc+due+masked ≠ the shard's %d runs", runs)
	case t.ByBand[0] != 0:
		return fmt.Errorf("by_band[0] = %d, want 0", t.ByBand[0])
	case !sumsTo(t.Upsets, t.ByBand[:]...):
		return fmt.Errorf("by_band does not sum to upsets = %d", t.Upsets)
	case t.Upsets > t.Interactions:
		// The run loop makes at most one upset per interaction.
		return fmt.Errorf("upsets = %d exceed interactions = %d", t.Upsets, t.Interactions)
	}
	w := t.Weighted
	if w == nil {
		return nil
	}
	for _, c := range sums {
		if !isFinite(c.SumW) || !isFinite(c.SumW2) || !isFinite(c.CW) || !isFinite(c.CW2) {
			return fmt.Errorf("non-finite weighted sum in %+v", c)
		}
	}
	var upsetsN, dueN []int64
	for b := range w.UpsetsByBand {
		upsetsN = append(upsetsN, w.UpsetsByBand[b].N)
		dueN = append(dueN, w.DUEByBand[b].N)
	}
	for _, p := range []struct {
		name string
		ok   bool
	}{
		{"draws", w.Draws.N == t.Interactions},
		{"sdc", w.SDC.N == t.SDC},
		{"due", w.DUE.N == t.DUE},
		{"masked", w.Masked.N == t.Masked},
		{"upsets_by_band", sumsTo(t.Upsets, upsetsN...)},
		{"due_by_band", sumsTo(t.DUE, dueN...)},
	} {
		if !p.ok {
			return fmt.Errorf("weighted %s N disagrees with the integer tally", p.name)
		}
	}
	return nil
}

// sumsTo reports whether the non-negative parts add up to exactly total.
// It subtracts instead of adding, so crafted huge parts cannot wrap
// around to a matching sum.
func sumsTo(total int64, parts ...int64) bool {
	for _, p := range parts {
		if p > total {
			return false
		}
		total -= p
	}
	return total == 0
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// RunRange executes shards [lo, hi) of the campaign's deterministic shard
// plan — the worker side of POST /v1/shards. The shard streams and run
// loop are exactly those of RunContext; only the subset of shards
// executed differs, so a shard's wire tally is identical no matter which
// node produced it.
func RunRange(ctx context.Context, cfg Config, lo, hi int) (*Partial, error) {
	ctx, span := trace.StartChild(ctx, "beam.range")
	span.SetStage("run")
	span.SetInt("range_lo", lo)
	span.SetInt("range_hi", hi)
	defer span.End()
	s, err := prepare(ctx, cfg)
	if err != nil {
		return nil, err
	}
	tallies, err := engine.MapRange(ctx, engine.Config{
		Workers: s.cfg.Shards,
		Grain:   s.grain,
		Seed:    s.cfg.Seed,
		Name:    "beam",
	}, s.runs, DefaultShardGrain, lo, hi, func(_ context.Context, sh engine.Shard) (shardTally, error) {
		return s.runShard(sh)
	})
	if err != nil {
		return nil, err
	}
	return &Partial{Range: ShardRange{Lo: lo, Hi: hi}, Tallies: tallies}, nil
}

// AssemblePartials reconstructs the campaign Result from shard-range
// partials. The partials must tile [0, Shards) exactly — an overlap (a
// shard delivered twice, e.g. by a timed-out range that later completed
// AND its re-dispatch) or a gap is an error, never a silent double- or
// under-count. The merge is the same shard-order fold RunContext uses, so
// the returned Result is bit-identical to a single-node run of the same
// Config.
func AssemblePartials(ctx context.Context, cfg Config, partials []*Partial) (*Result, error) {
	ctx, campaign := trace.StartChild(ctx, "beam.campaign")
	defer campaign.End()
	s, err := prepare(ctx, cfg)
	if err != nil {
		return nil, err
	}
	// Same campaign-proportional calibration accounting as RunContext: the
	// assembling node answered the campaign, wherever the shards ran.
	telemetry.Count("beam.neutrons_sampled", int64(s.cfg.CalSamples))
	shards := engine.Plan(s.runs, s.grain)
	nShards := len(shards)
	if slices.Contains(partials, nil) {
		return nil, fmt.Errorf("beam: nil partial")
	}
	sorted := append([]*Partial(nil), partials...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Range.Lo < sorted[j].Range.Lo })
	biased := s.cfg.Bias != nil
	tallies := make([]shardTally, 0, nShards)
	next := 0
	for _, p := range sorted {
		switch {
		case p.Range.Lo < next:
			return nil, fmt.Errorf("beam: partial %s overlaps shard %d (double-count)", p.Range, next)
		case p.Range.Lo > next:
			return nil, fmt.Errorf("beam: shard range [%d,%d) missing from partials", next, p.Range.Lo)
		case p.Range.Hi <= p.Range.Lo || p.Range.Hi > nShards:
			return nil, fmt.Errorf("beam: partial %s outside plan of %d shards", p.Range, nShards)
		case len(p.Tallies) != p.Range.Len():
			return nil, fmt.Errorf("beam: partial %s carries %d tallies", p.Range, len(p.Tallies))
		}
		for i := range p.Tallies {
			shard := p.Range.Lo + i
			if err := p.Tallies[i].check(shards[shard].Count, biased); err != nil {
				return nil, fmt.Errorf("beam: shard %d tally rejected: %w", shard, err)
			}
		}
		tallies = append(tallies, p.Tallies...)
		next = p.Range.Hi
	}
	if next != nShards {
		return nil, fmt.Errorf("beam: shard range [%d,%d) missing from partials", next, nShards)
	}
	return s.assemble(ctx, tallies, 0)
}
