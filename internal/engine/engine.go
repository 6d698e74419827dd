// Package engine is the deterministic sharded Monte Carlo execution layer
// shared by the campaign simulators (beam, transport, memsim), the
// design-space grid (surrogate.EvaluateGrid) and core.AssessMany. A
// campaign's work — beam runs, source neutrons, correct-loop passes — is
// decomposed into fixed contiguous shards, each drawing from an
// independent rng.Stream derived deterministically from (seed, shard
// index) via rng.NewSequence. A bounded worker pool executes the shards
// and the caller merges the per-shard tallies in shard order.
//
// The invariant the conformance suite enforces: the worker count NEVER
// affects results, only wall-clock time. This holds by construction
// because the decomposition and the per-shard streams depend only on
// (seed, grain, total items) — scheduling decides merely when a shard
// runs, never what it computes. The deterministic "seed schedule" of a
// campaign is therefore the triple (seed, grain, total); changing the
// grain re-partitions the work and is equivalent to changing the seed.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"neutronsim/internal/rng"
	"neutronsim/internal/telemetry"
	"neutronsim/internal/telemetry/trace"
)

// shardSeqBase offsets shard indices into the rng sequence space so that
// engine streams never collide with rng.New's default sequence selector or
// with the calibration streams the simulators Split off their root stream.
const shardSeqBase = 0x6b79a7f3c5d80e25

// Shard is one deterministic contiguous slice of a campaign's work items.
type Shard struct {
	// Index is the shard's position in the plan; it selects the stream.
	Index int
	// Start is the global index of the shard's first item.
	Start int
	// Count is the number of items the shard covers.
	Count int
	// Stream is the shard's private random stream, populated by Map just
	// before execution. Shards never share streams.
	Stream *rng.Stream
}

// Config controls how Map executes a campaign.
type Config struct {
	// Workers caps how many shards execute concurrently. <= 0 means
	// GOMAXPROCS. Workers never affects results, only wall-clock time;
	// this is what the cmd/* -shards flags set.
	Workers int
	// Grain is the number of items per shard. <= 0 uses the caller's
	// default. Grain is part of the deterministic seed schedule: changing
	// it re-partitions the campaign and re-derives every shard stream.
	Grain int
	// Seed is the campaign seed. Shard i draws from
	// rng.NewSequence(Seed, shardSeqBase+i) unless StreamFor overrides.
	Seed uint64
	// Name labels trace spans ("beam", "transport", ...).
	Name string
	// StreamFor optionally overrides per-shard stream derivation (the
	// transport engine pre-splits the caller's stream instead of seeding
	// from scratch). It must be a pure function of the shard index.
	StreamFor func(shard int) *rng.Stream
	// OnShardDone, when set, is called after each successful shard with
	// the cumulative number of finished items. It is invoked from worker
	// goroutines and must be safe for concurrent use.
	OnShardDone func(doneItems, totalItems int)
}

func (c Config) workers(shards int) int {
	w := c.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > shards {
		w = shards
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Plan splits total items into contiguous shards of at most grain items.
// A non-positive grain yields a single shard covering everything.
func Plan(total, grain int) []Shard {
	if total <= 0 {
		return nil
	}
	if grain <= 0 || grain > total {
		grain = total
	}
	shards := make([]Shard, 0, (total+grain-1)/grain)
	for start := 0; start < total; start += grain {
		count := grain
		if start+count > total {
			count = total - start
		}
		shards = append(shards, Shard{Index: len(shards), Start: start, Count: count})
	}
	return shards
}

// StreamForShard derives shard index's independent stream from the
// campaign seed — the canonical (seed, shard index) → stream mapping.
func StreamForShard(seed uint64, shard int) *rng.Stream {
	return rng.NewSequence(seed, shardSeqBase+uint64(shard))
}

// Map executes fn once per shard of the total work items and returns the
// per-shard results in shard-index order, so callers can merge tallies
// deterministically. fn runs on up to Workers goroutines; everything it
// touches besides the shard stream must be read-only or shard-local.
//
// On failure the returned error joins every shard error (in shard order)
// and the result slice still carries the successful shards' values, with
// zero values at the failed indices.
//
// Map honors ctx cancellation at shard granularity: shards that have not
// started when ctx is canceled (or its deadline expires) are skipped, and
// the call returns ctx's error. Cancellation never changes the values of
// the shards that did complete — it only truncates the campaign.
func Map[T any](ctx context.Context, cfg Config, total, defaultGrain int, fn func(ctx context.Context, sh Shard) (T, error)) ([]T, error) {
	return MapRange(ctx, cfg, total, defaultGrain, 0, -1, fn)
}

// MapRange is Map restricted to the contiguous shard sub-range [lo, hi)
// of the campaign's deterministic shard plan. The plan and the per-shard
// streams are those of the FULL campaign — Plan(total, grain) — so a
// shard computes exactly the same values whether it runs under Map, under
// MapRange on this process, or under MapRange on a peer: ranges are the
// distribution unit of the cluster coordinator, and re-executing one is
// idempotent by construction. hi == -1 means "through the last shard".
// The result slice holds the in-range shards' values in shard order
// (index i is shard lo+i).
func MapRange[T any](ctx context.Context, cfg Config, total, defaultGrain, lo, hi int, fn func(ctx context.Context, sh Shard) (T, error)) ([]T, error) {
	grain := cfg.Grain
	if grain <= 0 {
		grain = defaultGrain
	}
	shards := Plan(total, grain)
	if len(shards) == 0 {
		return nil, errors.New("engine: no work to shard")
	}
	if hi < 0 {
		hi = len(shards)
	}
	if lo < 0 || lo >= hi || hi > len(shards) {
		return nil, fmt.Errorf("engine: shard range [%d,%d) outside plan of %d shards", lo, hi, len(shards))
	}
	shards = shards[lo:hi]
	rangeTotal := 0
	for _, sh := range shards {
		rangeTotal += sh.Count
	}
	total = rangeTotal
	name := cfg.Name
	if name == "" {
		name = "map"
	}
	ctx, span := trace.StartChild(ctx, "engine."+name)
	// The engine owns the "run" stage of a traced campaign pipeline: its
	// wall time is the sharded execution, with per-shard child spans below.
	span.SetStage("run")
	span.SetInt("shards", len(shards))
	span.SetInt("items", total)
	span.SetInt("range_lo", lo)
	defer span.End()
	streamFor := cfg.StreamFor
	if streamFor == nil {
		streamFor = func(i int) *rng.Stream { return StreamForShard(cfg.Seed, i) }
	}
	reg := telemetry.Default
	busy := reg.Gauge("engine.shard_busy")
	reg.Counter("engine.shards").Add(int64(len(shards)))
	reg.Counter("engine.items").Add(int64(total))

	results := make([]T, len(shards))
	errs := make([]error, len(shards))
	var done atomic.Int64
	exec := func(i int) {
		if err := ctx.Err(); err != nil {
			errs[i] = err
			return
		}
		sh := shards[i]
		sh.Stream = streamFor(sh.Index)
		busy.Add(1)
		_, shardSpan := trace.StartChild(ctx, "engine.shard")
		shardSpan.SetInt("shard", sh.Index)
		shardSpan.SetInt("items", sh.Count)
		r, err := fn(ctx, sh)
		shardSpan.End()
		busy.Add(-1)
		if err != nil {
			errs[i] = fmt.Errorf("engine: shard %d [%d,%d): %w",
				sh.Index, sh.Start, sh.Start+sh.Count, err)
			return
		}
		results[i] = r
		if cfg.OnShardDone != nil {
			cfg.OnShardDone(int(done.Add(int64(sh.Count))), total)
		}
	}
	if workers := cfg.workers(len(shards)); workers == 1 {
		// Serial executor: same shards, same streams, same results — just
		// on the caller's goroutine.
		for i := range shards {
			exec(i)
		}
	} else {
		indices := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range indices {
					exec(i)
				}
			}()
		}
		for i := range shards {
			indices <- i
		}
		close(indices)
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		// A canceled campaign reports the cancellation itself rather than
		// one wrapped error per unstarted shard.
		return results, err
	}
	return results, errors.Join(errs...)
}
