package beam

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
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
		_ = is.SampleInteraction(s)
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
	var events atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	runShard(cfg, engine.Shard{
		Index:  0,
		Count:  b.N,
		Stream: rng.New(3),
	}, sampler, inj, lambda, &events)
}

// BenchmarkBeamCampaignRunLoopFast is the ChipIR (fast-dominated) per-run
// hot loop. This is the benchmark the BENCH_sampling.json allocs/op gate
// watches.
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
// calibration plus the sharded run loop on the serial executor — the
// configuration the BENCH_sampling.json speedup tracks.
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
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// samplingBaselines records the pre-alias numbers these benchmarks
// measured at the parent commit (binary-search interaction sampler,
// rejection-loop Mixture.Sample, allocating run loop) on the reference
// host: GOMAXPROCS=1, Intel Xeon @ 2.10GHz. The snapshot reports current
// numbers as speedups against these.
var samplingBaselines = map[string]float64{
	"BenchmarkInteractionSamplerDraw":     164.2,
	"BenchmarkBeamCampaignRunLoopFast":    546.9,
	"BenchmarkBeamCampaignRunLoopThermal": 571.6,
	"BenchmarkInteractionSamplerBuild":    10675872,
	"BenchmarkCampaignSingleThread":       15821171,
}

// TestMain writes BENCH_sampling.json at the repo root when benchmarks
// run, following the BENCH_engine.json idiom. It exits non-zero if the
// run-loop benchmark reports any allocations, which is the CI allocs/op
// gate.
func TestMain(m *testing.M) {
	code := m.Run()
	bench := flag.Lookup("test.bench")
	if code == 0 && bench != nil && bench.Value.String() != "" {
		if err := writeSamplingSnapshot("../../BENCH_sampling.json"); err != nil {
			fmt.Fprintln(os.Stderr, "sampling bench snapshot:", err)
			code = 1
		}
	}
	os.Exit(code)
}

type samplingBenchResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	BaselineNs  float64 `json:"pre_change_baseline_ns_per_op"`
	Speedup     float64 `json:"speedup_vs_baseline"`
}

func writeSamplingSnapshot(path string) error {
	cases := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"BenchmarkInteractionSamplerDraw", BenchmarkInteractionSamplerDraw},
		{"BenchmarkBeamCampaignRunLoopFast", BenchmarkBeamCampaignRunLoopFast},
		{"BenchmarkBeamCampaignRunLoopThermal", BenchmarkBeamCampaignRunLoopThermal},
		{"BenchmarkInteractionSamplerBuild", BenchmarkInteractionSamplerBuild},
		{"BenchmarkCampaignSingleThread", BenchmarkCampaignSingleThread},
	}
	results := map[string]samplingBenchResult{}
	for _, c := range cases {
		r := testing.Benchmark(c.fn)
		base := samplingBaselines[c.name]
		results[c.name] = samplingBenchResult{
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			BaselineNs:  base,
			Speedup:     base / float64(r.NsPerOp()),
		}
	}
	snap := struct {
		Note       string                         `json:"note"`
		GOMAXPROCS int                            `json:"gomaxprocs"`
		Baseline   string                         `json:"baseline"`
		Benchmarks map[string]samplingBenchResult `json:"benchmarks"`
	}{
		Note:       "O(1) alias sampling fast path (DESIGN.md §11); run-loop benchmarks must report 0 allocs/op",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Baseline: "pre-alias parent commit: binary-search interaction sampler, rejection-loop Mixture.Sample, " +
			"allocating run loop (GOMAXPROCS=1, Intel Xeon @ 2.10GHz)",
		Benchmarks: results,
	}
	for _, name := range []string{"BenchmarkBeamCampaignRunLoopFast", "BenchmarkBeamCampaignRunLoopThermal"} {
		if allocs := results[name].AllocsPerOp; allocs != 0 {
			return fmt.Errorf("%s reports %d allocs/op, want 0", name, allocs)
		}
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
