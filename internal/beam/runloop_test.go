package beam

import (
	"math"
	"sync/atomic"
	"testing"

	"neutronsim/internal/device"
	"neutronsim/internal/engine"
	"neutronsim/internal/plan"
	"neutronsim/internal/rng"
	"neutronsim/internal/spectrum"
	"neutronsim/internal/telemetry"
)

// TestRunLoopZeroAllocs is the tier-1 gate behind the "allocs/op = 0 in
// the run loop" acceptance criterion: a steady-state beam run — Poisson
// draw, alias energy draws, device physics, fault bookkeeping — must not
// touch the heap. The quiet device keeps the critical charge above any
// possible deposit so the measurement isolates the sampling path (upset
// runs replay the workload, which legitimately allocates its output copy).
func TestRunLoopZeroAllocs(t *testing.T) {
	cfg := Config{
		Device:       benchQuietDevice(),
		WorkloadName: "MxM",
		Beam:         spectrum.ChipIR(),
		Seed:         7,
	}.withDefaults()
	pl := plan.Compile(cfg.Device, cfg.Beam, 20000, rng.New(1))
	var events atomic.Int64
	r, err := newShardRunner(cfg, engine.Shard{Index: 0, Count: 1, Stream: rng.New(3)}, pl, 2, &events)
	if err != nil {
		t.Fatal(err)
	}
	// Warm up scratch capacities before measuring steady state.
	r.runBlock(100)
	run := func() { r.runBlock(1) }
	if avg := testing.AllocsPerRun(2000, run); avg != 0 {
		t.Errorf("run loop allocates %.2f times per run, want 0", avg)
	}
	if r.tc.Interactions == 0 {
		t.Fatal("run loop drew no interactions; the measurement exercised nothing")
	}

	// The weighted (importance-sampled) run loop shares the zero-alloc
	// contract: the weights live in the plan's band table and the shard
	// scratch, never on the heap.
	bpl, err := plan.CompileBiased(cfg.Device, cfg.Beam, 20000, rng.New(1), plan.Bias{Thermal: 40})
	if err != nil {
		t.Fatal(err)
	}
	wr, err := newShardRunner(cfg, engine.Shard{Index: 0, Count: 1, Stream: rng.New(3)}, bpl, 2, &events)
	if err != nil {
		t.Fatal(err)
	}
	wr.runBlock(100)
	wrun := func() { wr.runBlock(1) }
	if avg := testing.AllocsPerRun(2000, wrun); avg != 0 {
		t.Errorf("weighted run loop allocates %.2f times per run, want 0", avg)
	}
	if wr.tc.Weighted.Draws.N == 0 {
		t.Fatal("weighted run loop drew no interactions; the measurement exercised nothing")
	}
}

// TestPoissonCachedMatchesStream pins the determinism contract of the
// cached-exponential Poisson fast path runBlock takes: it must consume the
// shard stream draw-for-draw exactly like Stream.Poisson.
func TestPoissonCachedMatchesStream(t *testing.T) {
	for _, lambda := range []float64{0, 0.05, 2, 29.9, 30, 400} {
		s, expNegLambda := rng.New(42), math.Exp(-lambda)
		ref := rng.New(42)
		for i := 0; i < 500; i++ {
			got := s.PoissonExp(lambda, expNegLambda)
			want := ref.Poisson(lambda)
			if got != want {
				t.Fatalf("lambda=%v draw %d: cached poisson = %d, Stream.Poisson = %d", lambda, i, got, want)
			}
		}
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
	_, err := Run(Config{
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
