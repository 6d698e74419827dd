package beam

import (
	"context"
	"testing"

	"neutronsim/internal/device"
	"neutronsim/internal/engine"
	"neutronsim/internal/plan"
	"neutronsim/internal/rng"
	"neutronsim/internal/spectrum"
)

// benchCalSamples sizes the calibration table like a production campaign:
// large enough that a per-draw binary search is measurably more expensive
// than an O(1) alias draw.
const benchCalSamples = 120000

func benchSampler(b *testing.B, sp spectrum.Spectrum, d *device.Device) *plan.CampaignPlan {
	b.Helper()
	return plan.Compile(d, sp, benchCalSamples, rng.New(1))
}

// benchQuietDevice returns a K20 variant whose critical charge sits above
// any possible deposited charge. Interactions then never upset, so the
// run-loop benchmarks isolate the sampling and physics draw cost the
// alias fast path targets, instead of the workload-replay cost of the
// fault injector.
func benchQuietDevice() *device.Device {
	d := device.K20()
	d.QcritFC = 2e4
	d.QcritSigmaFC = 10
	return d
}

// BenchmarkInteractionSamplerDraw measures one conditioned energy draw from
// a 120k-entry calibration table — the innermost sampling operation of the
// beam run loop.
func BenchmarkInteractionSamplerDraw(b *testing.B) {
	is := benchSampler(b, spectrum.ChipIR(), device.K20())
	s := rng.New(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = is.Sampler().Sample(s)
	}
}

// benchRunLoop drives the per-run shard loop directly: one op is one beam
// run (Poisson interaction count, conditioned energy draws, device physics,
// fault bookkeeping). lambda≈2 makes interactions — not the Poisson draw —
// the dominant cost, matching interaction-rich campaign configurations.
func benchRunLoop(b *testing.B, sp spectrum.Spectrum, d *device.Device, lambda float64) {
	b.Helper()
	cfg := Config{
		Device:       d,
		WorkloadName: "MxM",
		Beam:         sp,
		Seed:         7,
	}.withDefaults()
	sampler := benchSampler(b, sp, d)
	inj := injectorFor(b, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	runShard(cfg, engine.Shard{
		Index:  0,
		Count:  b.N,
		Stream: rng.New(3),
	}, sampler, inj, lambda)
}

// BenchmarkBeamCampaignRunLoopFast is the ChipIR (fast-dominated) per-run
// hot loop. TestRunLoopZeroAllocs holds it, and the ROTAX loop below, to
// 0 allocs/op.
func BenchmarkBeamCampaignRunLoopFast(b *testing.B) {
	benchRunLoop(b, spectrum.ChipIR(), benchQuietDevice(), 2)
}

// BenchmarkBeamCampaignRunLoopThermal is the ROTAX (boron-capture) per-run
// hot loop.
func BenchmarkBeamCampaignRunLoopThermal(b *testing.B) {
	benchRunLoop(b, spectrum.ROTAX(), benchQuietDevice(), 2)
}

// BenchmarkInteractionSamplerBuild measures calibration-table construction
// (n Mixture draws + table build), the one-off cost the O(1) draws buy.
func BenchmarkInteractionSamplerBuild(b *testing.B) {
	sp := spectrum.ChipIR()
	d := device.K20()
	s := rng.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = plan.Compile(d, sp, benchCalSamples, s)
	}
}

// BenchmarkCampaignSingleThread runs a complete single-threaded campaign —
// calibration plus the sharded run loop on the serial executor.
func BenchmarkCampaignSingleThread(b *testing.B) {
	cfg := Config{
		Device:          device.K20(),
		WorkloadName:    "MxM",
		Beam:            spectrum.ChipIR(),
		DurationSeconds: 2000,
		RunSeconds:      1,
		Seed:            7,
		CalSamples:      benchCalSamples,
		Shards:          1,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunContext(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}
