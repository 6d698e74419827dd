package plan

import (
	"testing"

	"neutronsim/internal/device"
	"neutronsim/internal/spectrum"
	"neutronsim/internal/telemetry"
)

// benchPlanSamples is the production default calibration budget
// (beam.Config.CalSamples), so cold-vs-warm measures exactly the setup
// cost a real campaign pays.
const benchPlanSamples = 20000

// BenchmarkPlanCompileCold is the uncached campaign setup: compile the
// full plan every iteration, from each point source — the calibration
// stream (Compile and CompileBiased, with the substream derived each
// time) and the stratified set a cache miss compiles from. Its table is
// the four plans the beam-campaigns workload compiles: exact and
// thermally biased, on both beamlines.
func BenchmarkPlanCompileCold(b *testing.B) {
	d := device.K20()
	for _, sp := range []*spectrum.Mixture{spectrum.ChipIR(), spectrum.ROTAX()} {
		for _, bias := range []*Bias{nil, {Thermal: 10}} {
			name := sp.Name() + "/exact"
			if bias != nil {
				name = sp.Name() + "/biased"
			}
			b.Run(name+"/stream", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if bias == nil {
						_ = Compile(d, sp, benchPlanSamples, CalibrationStream(1))
					} else if _, err := CompileBiased(d, sp, benchPlanSamples, CalibrationStream(1), *bias); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(name+"/stratified", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					_ = CompileStratified(d, sp, benchPlanSamples, bias)
				}
			})
		}
	}
}

// BenchmarkPlanCacheWarmHit is the memoized setup: every iteration is a
// cache hit (key hash + lookup). The benchmark fails outright if the timed
// loop compiled anything; the plan row of the root BenchmarkGates table
// holds the same property together with its 10× floor over a cold compile.
func BenchmarkPlanCacheWarmHit(b *testing.B) {
	c := NewCache(4, telemetry.NewRegistry())
	d := device.K20()
	sp := spectrum.ChipIR()
	c.For(d, sp, benchPlanSamples, 1) // prime: the one allowed compile
	before := c.Stats().Misses
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.For(d, sp, benchPlanSamples, 1)
	}
	b.StopTimer()
	if n := c.Stats().Misses - before; n != 0 {
		b.Fatalf("warm path compiled %d times during the timed loop, want 0", n)
	}
}
