package beam

import (
	"context"
	"reflect"
	"testing"

	"neutronsim/internal/device"
	"neutronsim/internal/spectrum"
)

// TestConcurrentCampaignsMatchSerial is the telemetry-race audit test: two
// sharded campaigns running concurrently (each with a multi-worker pool)
// must produce exactly the results they produce when run back-to-back.
// Under -race this also proves the campaign's telemetry publication —
// counters, the progress callback's shared events count, and the merged
// Result fields — is free of data races across overlapping campaigns.
func TestConcurrentCampaignsMatchSerial(t *testing.T) {
	mkCfg := func(seed uint64, sp spectrum.Spectrum) Config {
		d := device.K20()
		d.SensitiveFraction = 0.2
		return Config{
			Device:          d,
			WorkloadName:    "MxM",
			Beam:            sp,
			DurationSeconds: 400,
			RunSeconds:      1,
			Seed:            seed,
			CalSamples:      2000,
			Shards:          4,
			ShardGrain:      32,
		}
	}
	cfgA := mkCfg(101, spectrum.ChipIR())
	cfgB := mkCfg(202, spectrum.ROTAX())

	refA, err := RunContext(context.Background(), cfgA)
	if err != nil {
		t.Fatal(err)
	}
	refB, err := RunContext(context.Background(), cfgB)
	if err != nil {
		t.Fatal(err)
	}

	type out struct {
		res *Result
		err error
	}
	chA := make(chan out, 1)
	chB := make(chan out, 1)
	go func() {
		r, err := RunContext(context.Background(), cfgA)
		chA <- out{r, err}
	}()
	go func() {
		r, err := RunContext(context.Background(), cfgB)
		chB <- out{r, err}
	}()
	gotA, gotB := <-chA, <-chB
	if gotA.err != nil {
		t.Fatal(gotA.err)
	}
	if gotB.err != nil {
		t.Fatal(gotB.err)
	}
	if !reflect.DeepEqual(gotA.res, refA) {
		t.Errorf("concurrent campaign A diverged:\n got %+v\nwant %+v", gotA.res, refA)
	}
	if !reflect.DeepEqual(gotB.res, refB) {
		t.Errorf("concurrent campaign B diverged:\n got %+v\nwant %+v", gotB.res, refB)
	}
}
