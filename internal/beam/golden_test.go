package beam

import (
	"context"
	"reflect"
	"testing"

	"neutronsim/internal/device"
	"neutronsim/internal/engine"
	"neutronsim/internal/faultinject"
	"neutronsim/internal/plan"
	"neutronsim/internal/spectrum"
	"neutronsim/internal/telemetry"
	"neutronsim/internal/workload"
)

// TestCampaignsShareOneGoldenRun checks that a process records a code's
// golden run once: after the code's first campaign, no campaign of it
// records another, whatever its seed, beamline, bias, worker count or
// shard range. Each campaign's result must equal one assembled from
// shards replayed on injectors built privately from workload.InputSeed,
// the one input every campaign runs.
func TestCampaignsShareOneGoldenRun(t *testing.T) {
	const code = "LUD"
	ctx := context.Background()
	recorded := telemetry.Default.Counter("beam.golden_runs")
	cfgFor := func(seed uint64, sp spectrum.Spectrum, bias *plan.Bias, shards int) Config {
		d := device.K20()
		d.SensitiveFraction = 0.2 // enough upsets that replays decide the result
		return Config{
			Device:          d,
			WorkloadName:    code,
			Beam:            sp,
			DurationSeconds: 20,
			RunSeconds:      0.01,
			Seed:            seed,
			CalSamples:      2000,
			Shards:          shards,
			ShardGrain:      256,
			Bias:            bias,
		}
	}

	want := int64(0)
	if goldenCodes[code].golden == nil {
		want = 1 // no earlier test in this process has run the code
	}
	before := recorded.Value()
	if _, err := RunContext(ctx, cfgFor(1, spectrum.ChipIR(), nil, 2)); err != nil {
		t.Fatal(err)
	}
	if got := recorded.Value() - before; got != want {
		t.Fatalf("the code's first campaign recorded %d golden runs, want %d", got, want)
	}

	before = recorded.Value()
	var sdc int64
	for _, seed := range []uint64{2, 3} {
		for _, sp := range []spectrum.Spectrum{spectrum.ChipIR(), spectrum.ROTAX()} {
			for _, bias := range []*plan.Bias{nil, {Thermal: 10}} {
				for _, shards := range []int{1, 2} {
					cfg := cfgFor(seed, sp, bias, shards)
					got, err := RunContext(ctx, cfg)
					if err != nil {
						t.Fatal(err)
					}
					sdc += got.SDC
					if ref := privateInjectorResult(t, cfg); !reflect.DeepEqual(got, ref) {
						t.Errorf("seed %d %s bias %v shards %d: result diverged from shards on private injectors\n got %+v\nwant %+v",
							seed, sp.Name(), bias, shards, got, ref)
					}
					if shards == 2 {
						assembled := assembleByRange(t, cfg)
						if !reflect.DeepEqual(assembled, got) {
							t.Errorf("seed %d %s bias %v: shard ranges assembled to %+v, want %+v", seed, sp.Name(), bias, assembled, got)
						}
					}
				}
			}
		}
	}
	if sdc == 0 {
		t.Fatal("no campaign produced an SDC; the comparison replayed nothing")
	}
	if got := recorded.Value() - before; got != 0 {
		t.Errorf("later campaigns of the code recorded %d more golden runs, want 0", got)
	}
}

// privateInjectorResult runs cfg's campaign shard by shard, each on an
// injector that records its own golden run from workload.InputSeed, and
// assembles the tallies as RunContext does.
func privateInjectorResult(t *testing.T, cfg Config) *Result {
	t.Helper()
	s, err := prepare(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var tallies []shardTally
	for _, sh := range engine.Plan(s.runs, s.grain) {
		w, err := workload.New(cfg.WorkloadName)
		if err != nil {
			t.Fatal(err)
		}
		inj, err := faultinject.NewInjector(w, workload.InputSeed)
		if err != nil {
			t.Fatal(err)
		}
		sh.Stream = engine.StreamForShard(cfg.Seed, sh.Index)
		tallies = append(tallies, runShard(s.cfg, sh, s.pl, inj, s.lambda))
	}
	res, err := s.assemble(context.Background(), tallies, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assembleByRange runs every shard of cfg's campaign as its own range and
// assembles the partials.
func assembleByRange(t *testing.T, cfg Config) *Result {
	t.Helper()
	ctx := context.Background()
	info, err := PlanInfo(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var partials []*Partial
	for i := range info.Shards {
		p, err := RunRange(ctx, cfg, i, i+1)
		if err != nil {
			t.Fatal(err)
		}
		partials = append(partials, p)
	}
	res, err := AssemblePartials(ctx, cfg, partials)
	if err != nil {
		t.Fatal(err)
	}
	return res
}
