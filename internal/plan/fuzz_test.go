package plan

import (
	"math"
	"testing"

	"neutronsim/internal/device"
	"neutronsim/internal/physics"
	"neutronsim/internal/rng"
	"neutronsim/internal/spectrum"
	"neutronsim/internal/units"
)

// checkPlan validates the invariants of a compiled plan: every alias slot
// carries a finite acceptance probability in [0, 1], the mean probability
// is a finite non-negative number, and every drawn energy is a member of
// the calibration table.
func checkPlan(t *testing.T, p *CampaignPlan, n int, s *rng.Stream) {
	t.Helper()
	if len(p.slots) != n {
		t.Fatalf("table size %d, want %d", len(p.slots), n)
	}
	members := make(map[units.Energy]bool, n)
	for _, sl := range p.slots {
		members[sl.self] = true
	}
	for i, sl := range p.slots {
		if math.IsNaN(sl.prob) || sl.prob < 0 || sl.prob > 1 {
			t.Fatalf("slots[%d].prob = %v", i, sl.prob)
		}
		if !members[sl.alias] {
			t.Fatalf("slots[%d].alias energy %v not in the calibration table", i, sl.alias)
		}
	}
	if math.IsNaN(p.meanP) || math.IsInf(p.meanP, 0) || p.meanP < 0 {
		t.Fatalf("meanP = %v", p.meanP)
	}
	for i := 0; i < 64; i++ {
		if e := p.Sampler().Sample(s); !members[e] {
			t.Fatalf("sample returned %v, not in the calibration table", e)
		}
	}
}

// FuzzCompile drives Compile and its alias draw with fuzzed device
// parameters and table sizes, on both beam spectra.
func FuzzCompile(f *testing.F) {
	f.Add(uint64(1), 4.6e13, 0.02, 1.0, uint16(200))
	f.Add(uint64(2), 0.0, 1e-9, 0.5, uint16(1))
	f.Add(uint64(3), 1e16, 1.0, 16.0, uint16(37))
	f.Fuzz(func(t *testing.T, seed uint64, boron, sensFrac, qcrit float64, nRaw uint16) {
		n := int(nRaw)%300 + 1
		// Clamp the fuzzed parameters to their physical domains; the goal
		// is to stress the table construction and draw, not Validate.
		if math.IsNaN(boron) || boron < 0 {
			boron = 0
		}
		boron = math.Min(boron, 1e18)
		if math.IsNaN(sensFrac) || sensFrac <= 0 {
			sensFrac = 1e-12
		}
		sensFrac = math.Min(sensFrac, 1)
		if math.IsNaN(qcrit) || qcrit <= 0 {
			qcrit = 0.1
		}
		qcrit = math.Min(qcrit, 1e3)

		d := device.K20()
		d.Boron10PerCm2 = boron
		d.SensitiveFraction = sensFrac
		d.QcritFC = qcrit
		d.QcritSigmaFC = qcrit / 4
		for _, sp := range []spectrum.Spectrum{spectrum.ChipIR(), spectrum.ROTAX()} {
			s := rng.New(seed)
			p := Compile(d, sp, n, s.Split())
			checkPlan(t, p, n, s)
		}
	})
}

// TestZeroProbabilityFallback pins the degenerate-table branch: when every
// interaction probability is zero the plan falls back to uniform selection
// over the calibration energies instead of dividing by zero. A boron-free
// device on the thermal beamline has p(E) = 0 for every thermal and
// epithermal calibration energy.
func TestZeroProbabilityFallback(t *testing.T) {
	d := device.K20()
	d.Boron10PerCm2 = 0
	const n = 64
	p := Compile(d, spectrum.ROTAX(), n, rng.New(5))
	if p.MeanP() != 0 {
		t.Fatalf("meanP = %v, want 0 for a boron-free thermal campaign", p.MeanP())
	}
	s := rng.New(9)
	seen := map[units.Energy]int{}
	for i := 0; i < 50*n; i++ {
		seen[p.Sampler().Sample(s)]++
	}
	if len(seen) < n/2 {
		t.Errorf("uniform fallback drew only %d of %d calibration energies", len(seen), n)
	}
	for _, sl := range p.slots {
		if sl.prob != 1 || sl.self != sl.alias {
			t.Fatalf("degenerate slot %+v should always keep its own energy", sl)
		}
	}
}

// TestSampleBoundary pins the u → n edge of the alias draw: the slot index
// is derived from Float64()*n, which can round up to exactly n for large
// tables and must clamp to the last slot rather than index out of range.
func TestSampleBoundary(t *testing.T) {
	p := &CampaignPlan{
		slots: []slot{
			{prob: 0.25, self: 1, alias: 2},
			{prob: 1, self: 2, alias: 2},
			{prob: 0, self: 3, alias: 1}, // zero-weight trailing slot
		},
		meanP: 0.5 / 3,
	}
	s := rng.New(11)
	for i := 0; i < 1000; i++ {
		e := p.Sampler().Sample(s)
		if e != 1 && e != 2 {
			t.Fatalf("sample returned %v", e)
		}
	}
}

// TestZeroPrefixPrecision is the regression for the prefix-precision
// failure mode: one million calibration entries whose first 90% carry zero
// weight. With naive accumulation the tiny tail weights drown in rounding;
// the Kahan-summed alias table must draw only tail energies and report an
// exact meanP.
func TestZeroPrefixPrecision(t *testing.T) {
	if testing.Short() {
		t.Skip("1e6-entry table build")
	}
	const (
		n      = 1000000
		prefix = n * 9 / 10
		tailP  = 1e-9 // per-entry interaction probability in the tail
	)
	// A thermal calibration energy on a boron-free device has p = 0; a
	// fast energy interacts through the silicon channel. Tune the device
	// so the fast-channel probability is a known tiny constant.
	d := device.K20()
	d.Boron10PerCm2 = 0
	d.SensitiveFraction = 1
	d.SensitiveDepthUm = tailP / (4.996e22 * 1e-4 * 1.5 * 1e-24)
	sp := &prefixSpectrum{prefix: prefix}
	p := Compile(d, sp, n, rng.New(13))

	wantMean := tailP * float64(n-prefix) / float64(n)
	if rel := math.Abs(p.MeanP()-wantMean) / wantMean; rel > 1e-9 {
		t.Errorf("meanP = %v, want %v (rel err %v)", p.MeanP(), wantMean, rel)
	}
	s := rng.New(17)
	for i := 0; i < 100000; i++ {
		if e := p.Sampler().Sample(s); !e.IsFast() {
			t.Fatalf("draw %d returned zero-probability prefix energy %v", i, e)
		}
	}
}

// prefixSpectrum emits `prefix` thermal energies followed by fast energies,
// giving the calibration table a long zero-probability prefix on a
// boron-free device. Its sequence depends on its call count, not on the
// stream, so it has no content identity and no point set: only
// stream-calibrated Compile may use it, never the cache.
type prefixSpectrum struct {
	calls  int
	prefix int
}

func (p *prefixSpectrum) Name() string { return "zero-prefix" }
func (p *prefixSpectrum) Sample(*rng.Stream) units.Energy {
	p.calls++
	if p.calls <= p.prefix {
		return 0.0253 // thermal: p = 0 without boron
	}
	return 2 * units.MeV
}
func (p *prefixSpectrum) TotalFlux() units.Flux { return 1 }
func (p *prefixSpectrum) FluxInBand(physics.EnergyBand) units.Flux {
	return 0
}
func (p *prefixSpectrum) Fingerprint() string         { panic("prefixSpectrum: no content identity") }
func (p *prefixSpectrum) Points(int) []spectrum.Point { panic("prefixSpectrum: no point set") }
