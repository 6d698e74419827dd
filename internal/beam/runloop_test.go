package beam

import (
	"context"
	"testing"

	"neutronsim/internal/device"
	"neutronsim/internal/engine"
	"neutronsim/internal/faultinject"
	"neutronsim/internal/plan"
	"neutronsim/internal/rng"
	"neutronsim/internal/spectrum"
	"neutronsim/internal/telemetry"
	"neutronsim/internal/workload"
)

// injectorFor builds the injector a shard of a campaign of cfg replays
// its workload with.
func injectorFor(tb testing.TB, cfg Config) *faultinject.Injector {
	tb.Helper()
	w, err := workload.New(cfg.WorkloadName)
	if err != nil {
		tb.Fatal(err)
	}
	inj, err := faultinject.NewInjector(w, workload.InputSeed)
	if err != nil {
		tb.Fatal(err)
	}
	return inj
}

// TestRunLoopZeroAllocs is the tier-1 gate behind the "allocs/op = 0 in
// the run loop" acceptance criterion: a steady-state beam run — Poisson
// draw, alias energy draws, device physics, fault bookkeeping — must not
// touch the heap, at both beamlines and in both modes. The quiet device
// keeps the critical charge above any possible deposit so the measurement
// isolates the sampling path; TestReplayRunsZeroAllocs covers upset runs.
func TestRunLoopZeroAllocs(t *testing.T) {
	for _, sp := range []spectrum.Spectrum{spectrum.ChipIR(), spectrum.ROTAX()} {
		cfg := Config{Device: benchQuietDevice(), WorkloadName: "MxM", Beam: sp, Seed: 7}.withDefaults()
		// The weighted (importance-sampled) run loop shares the contract:
		// the weights live in the plan's band table and the shard scratch,
		// never on the heap.
		biased, err := plan.CompileBiased(cfg.Device, cfg.Beam, 20000, rng.New(1), plan.Bias{Thermal: 40})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			mode string
			pl   *plan.CampaignPlan
		}{
			{"exact", plan.Compile(cfg.Device, cfg.Beam, 20000, rng.New(1))},
			{"weighted", biased},
		} {
			t.Run(sp.Name()+"/"+c.mode, func(t *testing.T) {
				r := newShardRunner(cfg, engine.Shard{Index: 0, Count: 1, Stream: rng.New(3)}, c.pl, injectorFor(t, cfg), 2)
				r.runBlock(100) // warm up scratch capacities before measuring steady state
				if avg := testing.AllocsPerRun(2000, func() { r.runBlock(1) }); avg != 0 {
					t.Errorf("run loop allocates %.2f times per run, want 0", avg)
				}
				if r.tc.Interactions == 0 {
					t.Fatal("run loop drew no interactions; the measurement exercised nothing")
				}
			})
		}
	}
}

// TestReplayRunsZeroAllocs extends the zero-alloc contract to runs that
// upset the device: the injector resumes the workload from a golden
// checkpoint in place and compares its output through a reused buffer, so
// replaying a faulty run touches the heap no more than a clean run does.
func TestReplayRunsZeroAllocs(t *testing.T) {
	loud := func(d *device.Device) *device.Device {
		d.SensitiveFraction = 0.3
		return d
	}
	for _, c := range []struct {
		dev      *device.Device
		workload string
	}{
		{loud(device.K20()), "LavaMD"},
		{loud(device.K20()), "HotSpot"},
		{loud(device.K20()), "SC"},
		{loud(device.K20()), "YOLO"},
		{loud(device.FPGA()), "MNIST"}, // persistent configuration faults replay every run
	} {
		t.Run(c.workload, func(t *testing.T) {
			cfg := Config{Device: c.dev, WorkloadName: c.workload, Beam: spectrum.ChipIR(), Seed: 7}.withDefaults()
			pl := plan.Compile(cfg.Device, cfg.Beam, 20000, rng.New(1))
			r := newShardRunner(cfg, engine.Shard{Index: 0, Count: 1, Stream: rng.New(3)}, pl, injectorFor(t, cfg), 2)
			r.runBlock(300)
			if avg := testing.AllocsPerRun(300, func() { r.runBlock(1) }); avg != 0 {
				t.Errorf("replaying run loop allocates %.2f times per run, want 0", avg)
			}
			if r.tc.SDC+r.tc.DUE == 0 {
				t.Fatal("no run produced an error; the measurement replayed nothing")
			}
		})
	}
}

// TestNeutronsSampledCountsCalibrationOnly asserts the telemetry split:
// beam.neutrons_sampled counts exactly the calibration draws, and
// conditioned interaction draws land only under beam.interactions (they
// were previously double-counted into both).
func TestNeutronsSampledCountsCalibrationOnly(t *testing.T) {
	d := device.K20()
	d.SensitiveFraction = 0.2 // boost the rate so interactions certainly occur
	const calSamples = 500
	reg := telemetry.Default
	sampledBefore := reg.Counter("beam.neutrons_sampled").Value()
	interactionsBefore := reg.Counter("beam.interactions").Value()
	_, err := RunContext(context.Background(), Config{
		Device:          d,
		WorkloadName:    "MxM",
		Beam:            spectrum.ChipIR(),
		DurationSeconds: 50,
		RunSeconds:      1,
		Seed:            3,
		CalSamples:      calSamples,
		Shards:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sampled := reg.Counter("beam.neutrons_sampled").Value() - sampledBefore
	interactions := reg.Counter("beam.interactions").Value() - interactionsBefore
	if interactions <= 0 {
		t.Fatalf("campaign recorded %d interactions; the split assertion needs a non-trivial campaign", interactions)
	}
	if sampled != calSamples {
		t.Errorf("beam.neutrons_sampled grew by %d, want exactly CalSamples=%d (interactions=%d must not leak in)",
			sampled, calSamples, interactions)
	}
}
