package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"neutronsim/internal/rng"
)

func TestPlanCoversEveryItemExactlyOnce(t *testing.T) {
	cases := []struct{ total, grain int }{
		{1, 1}, {10, 3}, {10, 10}, {10, 100}, {8192, 8192},
		{8193, 8192}, {100, 1}, {7, 2}, {1000, 33},
	}
	for _, c := range cases {
		shards := Plan(c.total, c.grain)
		next := 0
		for i, sh := range shards {
			if sh.Index != i {
				t.Errorf("Plan(%d,%d): shard %d has Index %d", c.total, c.grain, i, sh.Index)
			}
			if sh.Start != next {
				t.Errorf("Plan(%d,%d): shard %d starts at %d, want %d", c.total, c.grain, i, sh.Start, next)
			}
			if sh.Count < 1 || sh.Count > c.grain {
				t.Errorf("Plan(%d,%d): shard %d count %d out of (0,%d]", c.total, c.grain, i, sh.Count, c.grain)
			}
			next = sh.Start + sh.Count
		}
		if next != c.total {
			t.Errorf("Plan(%d,%d) covers %d items, want %d", c.total, c.grain, next, c.total)
		}
		want := (c.total + min(c.grain, c.total) - 1) / min(c.grain, c.total)
		if len(shards) != want {
			t.Errorf("Plan(%d,%d) = %d shards, want %d", c.total, c.grain, len(shards), want)
		}
	}
}

func TestPlanEdgeCases(t *testing.T) {
	if got := Plan(0, 8); got != nil {
		t.Errorf("Plan(0,8) = %v, want nil", got)
	}
	if got := Plan(-3, 8); got != nil {
		t.Errorf("Plan(-3,8) = %v, want nil", got)
	}
	// Non-positive grain collapses to a single shard covering everything.
	for _, grain := range []int{0, -1} {
		shards := Plan(42, grain)
		if len(shards) != 1 || shards[0].Start != 0 || shards[0].Count != 42 {
			t.Errorf("Plan(42,%d) = %+v, want one full shard", grain, shards)
		}
	}
}

// TestPlanPartitionInvariants spells the schedule contract out for the
// awkward grids: whatever the (total, grain) combination, the shards must
// be contiguous, non-overlapping, and cover [0, total) exactly.
func TestPlanPartitionInvariants(t *testing.T) {
	cases := []struct {
		name         string
		total, grain int
		wantShards   int
	}{
		{"zero total", 0, 8, 0},
		{"negative total", -1, 8, 0},
		{"zero grain collapses to one shard", 9, 0, 1},
		{"negative grain collapses to one shard", 9, -5, 1},
		{"grain exceeds total", 5, 100, 1},
		{"grain equals total", 12, 12, 1},
		{"total not divisible by grain", 10, 4, 3},
		{"remainder of one", 9, 4, 3},
		{"unit grain", 5, 1, 5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			shards := Plan(c.total, c.grain)
			if len(shards) != c.wantShards {
				t.Fatalf("Plan(%d,%d) = %d shards, want %d", c.total, c.grain, len(shards), c.wantShards)
			}
			if c.wantShards == 0 {
				if shards != nil {
					t.Fatalf("Plan(%d,%d) = %v, want nil", c.total, c.grain, shards)
				}
				return
			}
			next := 0 // contiguity cursor: each shard must start where the last ended
			for i, sh := range shards {
				if sh.Index != i {
					t.Errorf("shard %d carries Index %d", i, sh.Index)
				}
				if sh.Start != next {
					t.Errorf("shard %d starts at %d, want %d (gap or overlap)", i, sh.Start, next)
				}
				if sh.Count <= 0 {
					t.Errorf("shard %d has non-positive count %d", i, sh.Count)
				}
				next = sh.Start + sh.Count
			}
			if next != c.total {
				t.Errorf("shards cover [0,%d), want [0,%d)", next, c.total)
			}
		})
	}
}

// TestMapCancellation checks the shard-granularity cancellation contract:
// a canceled context surfaces as ctx.Err() itself (not one wrapped error
// per unstarted shard), and shards that completed before the cancellation
// keep their results.
func TestMapCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	out, err := Map(ctx, Config{Workers: 1, Grain: 10, Seed: 3}, 100, 10,
		func(_ context.Context, sh Shard) (int, error) {
			ran++
			if sh.Index == 1 {
				cancel() // shards after this one must be skipped
			}
			return sh.Start, nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if err != context.Canceled {
		t.Errorf("err should be ctx.Err() itself, not a join: %v", err)
	}
	if ran >= 10 {
		t.Errorf("all %d shards ran despite cancellation", ran)
	}
	// Results from shards that completed before the cancel are retained.
	if len(out) != 10 {
		t.Fatalf("result slice has %d slots, want 10", len(out))
	}
	if out[0] != 0 || out[1] != 10 {
		t.Errorf("completed shard results lost: %v", out[:2])
	}
	// A context canceled before the call starts no work at all.
	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	ran = 0
	_, err = Map(pre, Config{Workers: 4, Grain: 10}, 100, 10,
		func(_ context.Context, _ Shard) (int, error) { ran++; return 0, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled Map: err = %v", err)
	}
	if ran != 0 {
		t.Errorf("pre-canceled Map ran %d shards, want 0", ran)
	}
}

func TestStreamForShardDeterministicAndDistinct(t *testing.T) {
	draw := func(s *rng.Stream) [4]uint64 {
		var out [4]uint64
		for i := range out {
			out[i] = s.Uint64()
		}
		return out
	}
	a := draw(StreamForShard(7, 3))
	b := draw(StreamForShard(7, 3))
	if a != b {
		t.Fatalf("StreamForShard(7,3) not reproducible: %v vs %v", a, b)
	}
	seen := map[[4]uint64]string{}
	for _, seed := range []uint64{1, 7, 1 << 40} {
		for shard := 0; shard < 16; shard++ {
			key := draw(StreamForShard(seed, shard))
			id := fmt.Sprintf("seed=%d shard=%d", seed, shard)
			if prev, dup := seen[key]; dup {
				t.Errorf("streams collide: %s and %s", prev, id)
			}
			seen[key] = id
		}
	}
}

// shardDigest is a synthetic per-shard result that is sensitive to the
// shard bounds and to every draw from the shard stream.
func shardDigest(sh Shard) uint64 {
	h := uint64(sh.Start)*1e9 + uint64(sh.Count)
	for i := 0; i < 100+sh.Index; i++ {
		h = h*31 + sh.Stream.Uint64()
	}
	return h
}

func TestMapWorkerCountInvariance(t *testing.T) {
	run := func(workers int) []uint64 {
		out, err := Map(context.Background(), Config{Workers: workers, Grain: 9, Seed: 11},
			100, 9, func(_ context.Context, sh Shard) (uint64, error) {
				return shardDigest(sh), nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return out
	}
	ref := run(1)
	if len(ref) != 12 { // ceil(100/9)
		t.Fatalf("got %d shards, want 12", len(ref))
	}
	for _, workers := range []int{2, 3, 7, runtime.GOMAXPROCS(0), 64} {
		if got := run(workers); !reflect.DeepEqual(got, ref) {
			t.Errorf("workers=%d changed results:\n got %v\nwant %v", workers, got, ref)
		}
	}
}

func TestMapDefaultGrainAndSeedSchedule(t *testing.T) {
	count := func(grain int) int {
		out, err := Map(context.Background(), Config{Grain: grain, Workers: 1}, 64, 16,
			func(_ context.Context, sh Shard) (int, error) { return sh.Count, nil })
		if err != nil {
			t.Fatal(err)
		}
		return len(out)
	}
	if got := count(0); got != 4 { // falls back to defaultGrain=16
		t.Errorf("default grain: %d shards, want 4", got)
	}
	if got := count(32); got != 2 {
		t.Errorf("grain=32: %d shards, want 2", got)
	}
}

func TestMapStreamForOverride(t *testing.T) {
	root := rng.New(5)
	streams := make([]*rng.Stream, 4)
	want := make([]uint64, 4)
	for i := range streams {
		streams[i] = root.Split()
		probe := *streams[i] // copy so the probe draw doesn't consume state
		want[i] = probe.Uint64()
	}
	got, err := Map(context.Background(), Config{
		Workers:   2,
		Grain:     1,
		StreamFor: func(i int) *rng.Stream { return streams[i] },
	}, 4, 1, func(_ context.Context, sh Shard) (uint64, error) {
		return sh.Stream.Uint64(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("StreamFor override ignored: got %v want %v", got, want)
	}
}

func TestMapJoinsShardErrors(t *testing.T) {
	boom := errors.New("boom")
	out, err := Map(context.Background(), Config{Workers: 3, Grain: 10}, 50, 10,
		func(_ context.Context, sh Shard) (int, error) {
			if sh.Index%2 == 1 {
				return 0, boom
			}
			return sh.Start, nil
		})
	if err == nil {
		t.Fatal("want joined error, got nil")
	}
	if !errors.Is(err, boom) {
		t.Errorf("errors.Is(err, boom) = false for %v", err)
	}
	for _, frag := range []string{"shard 1 [10,20)", "shard 3 [30,40)"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q missing %q", err, frag)
		}
	}
	// Successful shards still deliver their results.
	want := []int{0, 0, 20, 0, 40}
	if !reflect.DeepEqual(out, want) {
		t.Errorf("partial results = %v, want %v", out, want)
	}
}

func TestMapNoWork(t *testing.T) {
	_, err := Map(context.Background(), Config{}, 0, 8,
		func(_ context.Context, _ Shard) (int, error) { return 0, nil })
	if err == nil {
		t.Fatal("Map with zero items should fail")
	}
}

func TestMapOnShardDone(t *testing.T) {
	var mu sync.Mutex
	var cumulative []int
	_, err := Map(context.Background(), Config{
		Workers: 4,
		Grain:   7,
		OnShardDone: func(done, total int) {
			if total != 30 {
				t.Errorf("total = %d, want 30", total)
			}
			mu.Lock()
			cumulative = append(cumulative, done)
			mu.Unlock()
		},
	}, 30, 7, func(_ context.Context, sh Shard) (int, error) { return sh.Count, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(cumulative) != 5 { // ceil(30/7)
		t.Fatalf("OnShardDone fired %d times, want 5", len(cumulative))
	}
	max := 0
	for _, d := range cumulative {
		if d > max {
			max = d
		}
	}
	if max != 30 {
		t.Errorf("final cumulative count = %d, want 30", max)
	}
}
