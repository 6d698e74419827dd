package spectrum

import (
	"math"
	"testing"

	"neutronsim/internal/physics"
	"neutronsim/internal/rng"
	"neutronsim/internal/units"
)

func TestChipIRFluxes(t *testing.T) {
	c := ChipIR()
	if got := c.FluxInBand(physics.BandThermal); got != ChipIRThermalFlux {
		t.Errorf("thermal flux = %v, want %v", got, ChipIRThermalFlux)
	}
	fast := c.FluxInBand(physics.BandFast)
	if fast < ChipIRFastFluxAbove10MeV {
		t.Errorf("fast flux %v below the quoted >10MeV flux %v", fast, ChipIRFastFluxAbove10MeV)
	}
	if c.TotalFlux() <= fast {
		t.Error("total flux must exceed fast flux")
	}
}

func TestChipIRFastDominated(t *testing.T) {
	c := ChipIR()
	if c.FluxInBand(physics.BandFast) < 10*c.FluxInBand(physics.BandThermal) {
		t.Error("ChipIR should be strongly fast-dominated")
	}
}

func TestROTAXThermalDominated(t *testing.T) {
	r := ROTAX()
	if got := r.TotalFlux(); got != ROTAXTotalFlux {
		t.Errorf("total = %v, want %v", got, ROTAXTotalFlux)
	}
	th := r.FluxInBand(physics.BandThermal)
	if float64(th)/float64(r.TotalFlux()) < 0.9 {
		t.Errorf("ROTAX thermal share = %v, want >= 0.9", float64(th)/float64(r.TotalFlux()))
	}
	if r.FluxInBand(physics.BandFast) != 0 {
		t.Error("ROTAX should carry no fast component")
	}
}

func TestSamplesStayInDeclaredBands(t *testing.T) {
	s := rng.New(1)
	for _, sp := range []*Mixture{ChipIR(), ROTAX()} {
		bands := EstimateBandFluxes(sp, 20000, s)
		for b, f := range bands {
			exact := sp.FluxInBand(b)
			if exact == 0 && f > 0 {
				t.Errorf("%s: sampled flux %v in band %v with no declared component", sp.Name(), f, b)
				continue
			}
			if exact > 0 {
				rel := math.Abs(float64(f)-float64(exact)) / float64(exact)
				if rel > 0.05 {
					t.Errorf("%s band %v: MC flux %v vs exact %v (rel %v)", sp.Name(), b, f, exact, rel)
				}
			}
		}
	}
}

func TestROTAXThermalPeakCold(t *testing.T) {
	// Liquid-methane moderation ⇒ spectrum peaks below room temperature.
	s := rng.New(2)
	r := ROTAX()
	var sum float64
	var n int
	for i := 0; i < 50000; i++ {
		e := r.Sample(s)
		if e.IsThermal() {
			sum += float64(e)
			n++
		}
	}
	mean := sum / float64(n)
	// Mean of Maxwellian = 1.5 kT; for 130 K kT = 0.0112 → mean ≈ 0.0168.
	if mean > 0.025 {
		t.Errorf("ROTAX thermal mean energy = %v eV; expected colder than room (0.038)", mean)
	}
}

func TestChipIRSpallationBump(t *testing.T) {
	s := rng.New(3)
	c := ChipIR()
	count := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if c.Sample(s) > 10*units.MeV {
			count++
		}
	}
	frac := float64(count) / n
	want := float64(ChipIRFastFluxAbove10MeV) / float64(c.TotalFlux())
	if math.Abs(frac-want) > 0.03 {
		t.Errorf(">10MeV sample fraction = %v, want ~%v", frac, want)
	}
}

func TestNewMixtureValidation(t *testing.T) {
	if _, err := NewMixture("x", nil); err == nil {
		t.Error("empty mixture accepted")
	}
	if _, err := NewMixture("x", []Component{{Flux: 0, Sample: MaxwellSampler(0.025), Band: physics.BandThermal}}); err == nil {
		t.Error("zero flux accepted")
	}
	if _, err := NewMixture("x", []Component{{Flux: 1, Band: physics.BandThermal}}); err == nil {
		t.Error("nil sampler accepted")
	}
}

func TestMixtureBandClamping(t *testing.T) {
	// A sampler that never produces energies in its declared band should
	// be clamped into the band rather than looping forever.
	m, err := NewMixture("degenerate", []Component{{
		Label:  "mislabeled",
		Band:   physics.BandThermal,
		Flux:   1,
		Sample: func(s *rng.Stream) units.Energy { return 5 * units.MeV },
	}})
	if err != nil {
		t.Fatal(err)
	}
	e := m.Sample(rng.New(4))
	if !e.IsThermal() {
		t.Errorf("clamped sample %v not thermal", e)
	}
}

func TestEnvironmentFluxes(t *testing.T) {
	env, err := NewEnvironment(EnvironmentConfig{
		Name:                  "NYC-like",
		FastFluxPerHour:       13,
		EpithermalFluxPerHour: 5,
		ThermalFluxPerHour:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := env.FluxInBand(physics.BandFast).PerHour(); math.Abs(got-13) > 1e-9 {
		t.Errorf("fast = %v/h, want 13", got)
	}
	if got := env.FluxInBand(physics.BandThermal).PerHour(); math.Abs(got-4) > 1e-9 {
		t.Errorf("thermal = %v/h, want 4", got)
	}
	if got := env.TotalFlux().PerHour(); math.Abs(got-22) > 1e-9 {
		t.Errorf("total = %v/h, want 22", got)
	}
}

func TestEnvironmentValidation(t *testing.T) {
	if _, err := NewEnvironment(EnvironmentConfig{}); err == nil {
		t.Error("all-zero environment accepted")
	}
}

func TestEnvironmentThermalOnly(t *testing.T) {
	env, err := NewEnvironment(EnvironmentConfig{ThermalFluxPerHour: 6})
	if err != nil {
		t.Fatal(err)
	}
	s := rng.New(5)
	for i := 0; i < 1000; i++ {
		if !env.Sample(s).IsThermal() {
			t.Fatal("thermal-only environment emitted non-thermal neutron")
		}
	}
	if env.Name() != "environment" {
		t.Errorf("default name = %q", env.Name())
	}
}

func TestMono(t *testing.T) {
	m, err := NewMono("14MeV", 14*units.MeV, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	s := rng.New(6)
	if got := m.Sample(s); got != 14*units.MeV {
		t.Errorf("sample = %v", got)
	}
	if m.FluxInBand(physics.BandFast) != 1e6 {
		t.Error("fast band flux wrong")
	}
	if m.FluxInBand(physics.BandThermal) != 0 {
		t.Error("thermal band flux should be zero")
	}
}

func TestMonoValidation(t *testing.T) {
	if _, err := NewMono("bad", 0, 1); err == nil {
		t.Error("zero energy accepted")
	}
	if _, err := NewMono("bad", 1, 0); err == nil {
		t.Error("zero flux accepted")
	}
}

func TestLethargyHistogramShapes(t *testing.T) {
	s := rng.New(7)
	hChip, err := LethargyHistogram(ChipIR(), 100000, 60, s)
	if err != nil {
		t.Fatal(err)
	}
	hRotax, err := LethargyHistogram(ROTAX(), 100000, 60, s)
	if err != nil {
		t.Fatal(err)
	}
	// The ChipIR per-lethargy peak must sit in the fast region; ROTAX's in
	// the thermal region. This is the qualitative content of Fig. 2.
	peakBin := func(h interface {
		PerLethargy() []float64
		BinCenter(int) float64
	}) float64 {
		pl := h.PerLethargy()
		best, bestV := 0, 0.0
		for i, v := range pl {
			if v > bestV {
				best, bestV = i, v
			}
		}
		return h.BinCenter(best)
	}
	if e := peakBin(hChip); e < 1e6 {
		t.Errorf("ChipIR lethargy peak at %v eV, want fast region", e)
	}
	if e := peakBin(hRotax); e > 0.5 {
		t.Errorf("ROTAX lethargy peak at %v eV, want thermal region", e)
	}
}

func TestLethargyHistogramFluxConservation(t *testing.T) {
	s := rng.New(8)
	h, err := LethargyHistogram(ROTAX(), 20000, 40, s)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(h.Total()-float64(ROTAXTotalFlux)) / float64(ROTAXTotalFlux); rel > 1e-9 {
		t.Errorf("histogram total %v != flux %v", h.Total(), ROTAXTotalFlux)
	}
}

func TestLethargyHistogramValidation(t *testing.T) {
	if _, err := LethargyHistogram(ROTAX(), 0, 40, rng.New(1)); err == nil {
		t.Error("zero samples accepted")
	}
}

func TestComponentsCopied(t *testing.T) {
	c := ChipIR()
	comps := c.Components()
	comps[0].Flux = 0
	if c.Components()[0].Flux == 0 {
		t.Error("Components() exposed internal slice")
	}
}

func TestOneOverESamplerBounds(t *testing.T) {
	s := rng.New(10)
	sample := OneOverESampler(0.5, 1e6)
	for i := 0; i < 5000; i++ {
		e := sample(s)
		if e < 0.5 || e > 1e6 {
			t.Fatalf("1/E sample %v out of range", e)
		}
	}
}

func TestLogNormalBumpTruncation(t *testing.T) {
	s := rng.New(11)
	sample := LogNormalBumpSampler(2e6, 2.0, units.FastThreshold, 10*units.MeV)
	for i := 0; i < 5000; i++ {
		e := sample(s)
		if e < units.FastThreshold || e > 10*units.MeV {
			t.Fatalf("bump sample %v escaped truncation", e)
		}
	}
}

// TestSampleNMatchesSample pins the batch draw to the scalar one: for
// batch lengths around the internal Fill batch, SampleN must return
// exactly the energies successive Sample calls return and leave the
// stream in the same state.
func TestSampleNMatchesSample(t *testing.T) {
	for _, m := range []*Mixture{ChipIR(), ROTAX()} {
		for _, n := range []int{0, 1, 255, 256, 257, 1000} {
			scalar, batch := rng.New(uint64(n)), rng.New(uint64(n))
			got := make([]units.Energy, n)
			m.SampleN(got, batch)
			for i := range got {
				if want := m.Sample(scalar); got[i] != want {
					t.Fatalf("%s n=%d: energy %d = %v, Sample gives %v", m.Name(), n, i, got[i], want)
				}
			}
			if scalar.Uint64() != batch.Uint64() {
				t.Fatalf("%s n=%d: SampleN left the stream elsewhere than Sample", m.Name(), n)
			}
		}
	}
}
