package spectrum

import (
	"testing"

	"neutronsim/internal/rng"
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
