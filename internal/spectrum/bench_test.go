package spectrum

import (
	"testing"

	"neutronsim/internal/rng"
	"neutronsim/internal/units"
)

// benchSink stops the compiler from eliding the sampled energy.
var benchSink float64

func benchMixture(b *testing.B, m *Mixture) {
	b.Helper()
	s := rng.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = float64(m.Sample(s))
	}
}

// BenchmarkChipIRSample measures one energy draw from the four-component
// high-energy beamline spectrum.
func BenchmarkChipIRSample(b *testing.B) { benchMixture(b, ChipIR()) }

// BenchmarkROTAXSample measures one energy draw from the thermal beamline.
func BenchmarkROTAXSample(b *testing.B) { benchMixture(b, ROTAX()) }

// BenchmarkChipIRSampleN measures the same draw taken through SampleN in
// the plan compiler's batches of 256; ns/op is per energy, so it compares
// directly with BenchmarkChipIRSample.
func BenchmarkChipIRSampleN(b *testing.B) {
	m, s := ChipIR(), rng.New(1)
	var dst [256]units.Energy
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(dst) {
		m.SampleN(dst[:min(len(dst), b.N-i)], s)
	}
	benchSink = float64(dst[0])
}
