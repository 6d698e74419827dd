package engine_test

import (
	"context"
	"testing"

	"neutronsim/internal/beam"
	"neutronsim/internal/device"
	"neutronsim/internal/spectrum"
)

// benchCampaign is a boosted K20/MxM ChipIR campaign of 2000 runs at
// grain 64, i.e. ~32 shards for the pool. The engine row of the root
// BenchmarkGates table times the same campaign at GOMAXPROCS 1 and 4.
func benchCampaign(b *testing.B, workers int) {
	b.Helper()
	d := device.K20()
	d.SensitiveFraction = 0.2
	cfg := beam.Config{
		Device:          d,
		WorkloadName:    "MxM",
		Beam:            spectrum.ChipIR(),
		DurationSeconds: 2000,
		RunSeconds:      1,
		Seed:            7,
		CalSamples:      2000,
		Shards:          workers,
		ShardGrain:      64,
	}
	for i := 0; i < b.N; i++ {
		res, err := beam.RunContext(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Runs != 2000 {
			b.Fatalf("campaign ran %d runs, want 2000", res.Runs)
		}
	}
}

// BenchmarkBeamCampaignSerial is the single-worker baseline.
func BenchmarkBeamCampaignSerial(b *testing.B) { benchCampaign(b, 1) }

// BenchmarkBeamCampaign4Shards runs the identical campaign on a 4-worker
// pool. The conformance suite proves the results are bit-identical; this
// benchmark measures only the wall-clock effect.
func BenchmarkBeamCampaign4Shards(b *testing.B) { benchCampaign(b, 4) }
