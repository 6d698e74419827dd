package device

import (
	"context"
	"math"
	"testing"

	"neutronsim/internal/physics"
	"neutronsim/internal/rng"
	"neutronsim/internal/units"
)

// tryUpset follows one neutron of energy e across the die: it interacts
// with the device's interaction probability, then runs the upset stage.
func tryUpset(d *Device, e units.Energy, s *rng.Stream) (Fault, bool) {
	if !s.Bernoulli(d.InteractionProbability(e)) {
		return Fault{}, false
	}
	return d.InteractionUpset(e, s)
}

func TestCatalogValidates(t *testing.T) {
	for _, d := range All() {
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	base := func() *Device { return K20() }
	tests := []struct {
		name   string
		mutate func(*Device)
	}{
		{"empty name", func(d *Device) { d.Name = "" }},
		{"zero area", func(d *Device) { d.DieAreaCm2 = 0 }},
		{"zero depth", func(d *Device) { d.SensitiveDepthUm = 0 }},
		{"bad sensitive fraction", func(d *Device) { d.SensitiveFraction = 2 }},
		{"negative boron", func(d *Device) { d.Boron10PerCm2 = -1 }},
		{"zero qcrit", func(d *Device) { d.QcritFC = 0 }},
		{"control frac > 1", func(d *Device) { d.ControlFracFast = 1.5 }},
		{"thermal control frac < 0", func(d *Device) { d.ControlFracThermal = -0.1 }},
		{"MBU prob > 1", func(d *Device) { d.MBUProb = 2 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d := base()
			tt.mutate(d)
			if err := d.Validate(); err == nil {
				t.Error("expected validation error")
			}
		})
	}
}

func TestInteractionProbabilityBands(t *testing.T) {
	d := K20()
	thermal := d.InteractionProbability(0.0253)
	fast := d.InteractionProbability(10 * units.MeV)
	epi := d.InteractionProbability(100)
	if thermal <= 0 || fast <= 0 {
		t.Fatal("thermal and fast interaction probabilities must be positive")
	}
	// Epithermal capture follows 1/v: far below thermal.
	if epi >= thermal/10 {
		t.Errorf("epithermal prob %v should be well below thermal %v", epi, thermal)
	}
	// Probabilities are tiny (devices are thin targets).
	if thermal > 1e-6 || fast > 1e-6 {
		t.Errorf("interaction probabilities implausibly large: %v %v", thermal, fast)
	}
}

func TestBoronFreeDeviceThermallyImmune(t *testing.T) {
	d := BoronFree(K20())
	if got := d.InteractionProbability(0.0253); got != 0 {
		t.Errorf("boron-free device has thermal interaction probability %v", got)
	}
	if got := d.InteractionProbability(10 * units.MeV); got == 0 {
		t.Error("boron-free device must keep its fast sensitivity")
	}
	s := rng.New(1)
	for i := 0; i < 200000; i++ {
		if _, ok := tryUpset(d, 0.0253, s); ok {
			t.Fatal("boron-free device upset by a thermal neutron")
		}
	}
}

func TestWithBPSGMultipliesBoron(t *testing.T) {
	base := K20()
	bpsg := WithBPSG(base)
	if bpsg.Boron10PerCm2 != 8*base.Boron10PerCm2 {
		t.Errorf("BPSG boron = %v, want 8x %v", bpsg.Boron10PerCm2, base.Boron10PerCm2)
	}
	ratio := bpsg.InteractionProbability(0.0253) / base.InteractionProbability(0.0253)
	if math.Abs(ratio-8) > 1e-9 {
		t.Errorf("BPSG thermal interaction ratio = %v, want 8", ratio)
	}
}

func TestTryUpsetProducesClassifiedFaults(t *testing.T) {
	d := K20()
	s := rng.New(2)
	// Force interactions by boosting sensitivity for the unit test.
	d.SensitiveFraction = 1
	d.Boron10PerCm2 *= 1e6
	targets := map[Target]int{}
	secondaries := map[physics.SecondaryKind]int{}
	upsets := 0
	for i := 0; i < 20000; i++ {
		f, ok := tryUpset(d, 0.0253, s)
		if !ok {
			continue
		}
		upsets++
		if f.Band != physics.BandThermal {
			t.Fatalf("thermal neutron produced %v-band fault", f.Band)
		}
		if f.Bits < 1 {
			t.Fatalf("fault with %d bits", f.Bits)
		}
		targets[f.Target]++
		secondaries[f.Secondary]++
	}
	if upsets == 0 {
		t.Fatal("no upsets produced")
	}
	if targets[TargetControl] == 0 || targets[TargetMemory] == 0 || targets[TargetDatapath] == 0 {
		t.Errorf("expected a mix of targets, got %v", targets)
	}
	if secondaries[physics.Alpha] == 0 || secondaries[physics.Lithium7] == 0 {
		t.Errorf("thermal upsets should come from alphas and 7Li: %v", secondaries)
	}
}

func TestFPGAFaultsTargetConfig(t *testing.T) {
	d := FPGA()
	d.SensitiveFraction = 1
	d.Boron10PerCm2 *= 1e6
	s := rng.New(3)
	config, control := 0, 0
	for i := 0; i < 20000; i++ {
		if f, ok := tryUpset(d, 0.0253, s); ok {
			switch f.Target {
			case TargetConfig:
				config++
			case TargetControl:
				control++
			}
		}
	}
	if config == 0 {
		t.Fatal("FPGA produced no configuration-memory faults")
	}
	if control > config/10 {
		t.Errorf("FPGA control faults %d should be rare vs config %d", control, config)
	}
}

func TestControlFractionPerBand(t *testing.T) {
	d := APU(APUCPUGPU) // cfFast 0.35, cfThermal 0.533
	s := rng.New(4)
	// Drive the post-interaction stage directly so both bands get large
	// upset samples (fast interactions are rare even at full sensitivity).
	frac := func(e units.Energy) float64 {
		control, total := 0, 0
		for i := 0; i < 40000; i++ {
			if f, ok := d.InteractionUpset(e, s); ok {
				total++
				if f.Target == TargetControl {
					control++
				}
			}
		}
		if total == 0 {
			t.Fatalf("no upsets at %v", e)
		}
		return float64(control) / float64(total)
	}
	th := frac(0.0253)
	fa := frac(30 * units.MeV)
	if math.Abs(th-0.533) > 0.03 {
		t.Errorf("thermal control fraction = %v, want 0.533", th)
	}
	if math.Abs(fa-0.35) > 0.03 {
		t.Errorf("fast control fraction = %v, want 0.35", fa)
	}
}

func TestMBUBits(t *testing.T) {
	d := TitanV()
	d.SensitiveFraction = 1
	d.Boron10PerCm2 *= 1e6
	s := rng.New(5)
	multi, total := 0, 0
	for i := 0; i < 30000; i++ {
		if f, ok := tryUpset(d, 0.0253, s); ok {
			total++
			if f.Bits > 1 {
				multi++
				if f.Bits < 2 || f.Bits > 4 {
					t.Fatalf("MBU size %d out of range", f.Bits)
				}
			}
		}
	}
	got := float64(multi) / float64(total)
	if math.Abs(got-d.MBUProb) > 0.02 {
		t.Errorf("MBU fraction = %v, want %v", got, d.MBUProb)
	}
}

func TestUpsetCrossSectionValidation(t *testing.T) {
	d := K20()
	s := rng.New(6)
	if _, err := d.UpsetCrossSection(context.Background(), nil, 10, s); err == nil {
		t.Error("nil sampler accepted")
	}
	if _, err := d.UpsetCrossSection(context.Background(), func(*rng.Stream) units.Energy { return 1 }, 0, s); err == nil {
		t.Error("zero samples accepted")
	}
}

func TestUpsetCrossSectionScalesWithBoron(t *testing.T) {
	s := rng.New(7)
	thermal := func(*rng.Stream) units.Energy { return 0.0253 }
	d1 := K20()
	d2 := K20()
	d2.Boron10PerCm2 *= 4
	s1, err := d1.UpsetCrossSection(context.Background(), thermal, 300000, s)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := d2.UpsetCrossSection(context.Background(), thermal, 300000, s)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(s2) / float64(s1)
	if math.Abs(ratio-4) > 0.5 {
		t.Errorf("thermal cross section should scale linearly with boron: ratio %v", ratio)
	}
}

func TestQcritOrdersThermalSensitivity(t *testing.T) {
	// With equal boron, a lower-Qcrit device upsets more per interaction.
	s := rng.New(8)
	thermal := func(*rng.Stream) units.Energy { return 0.0253 }
	lo := K20()
	lo.QcritFC, lo.QcritSigmaFC = 1, 0.2
	hi := K20()
	hi.QcritFC, hi.QcritSigmaFC = 20, 2
	sLo, _ := lo.UpsetCrossSection(context.Background(), thermal, 200000, s)
	sHi, _ := hi.UpsetCrossSection(context.Background(), thermal, 200000, s)
	if sLo <= sHi {
		t.Errorf("low-Qcrit device should be more sensitive: %v vs %v", sLo, sHi)
	}
}

func TestStringers(t *testing.T) {
	if CMOSPlanar.String() != "planar CMOS" || FinFET.String() != "FinFET" ||
		TriGate.String() != "3-D Tri-Gate" || Technology(0).String() != "unknown" {
		t.Error("technology names wrong")
	}
	if KindGPU.String() != "GPU" || KindFPGA.String() != "FPGA" || Kind(0).String() != "unknown" {
		t.Error("kind names wrong")
	}
	if TargetControl.String() != "control" || TargetConfig.String() != "config" ||
		TargetMemory.String() != "memory" || TargetDatapath.String() != "datapath" ||
		Target(0).String() != "unknown" {
		t.Error("target names wrong")
	}
	if APUCPU.String() != "CPU" || APUGPU.String() != "GPU" ||
		APUCPUGPU.String() != "CPU+GPU" || APUConfig(0).String() != "unknown" {
		t.Error("APU config names wrong")
	}
}

func TestCatalogDistinctNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range All() {
		if seen[d.Name] {
			t.Errorf("duplicate device name %q", d.Name)
		}
		seen[d.Name] = true
	}
}

func TestFinFETShallowerThanPlanar(t *testing.T) {
	if TitanX().SensitiveDepthUm >= K20().SensitiveDepthUm {
		t.Error("FinFET charge-collection depth should be below planar CMOS")
	}
}

func TestSampleVariation(t *testing.T) {
	s := rng.New(30)
	base := K20()
	var ratios []float64
	for i := 0; i < 2000; i++ {
		sample := Sample(base, s)
		if err := sample.Validate(); err != nil {
			t.Fatal(err)
		}
		ratios = append(ratios, sample.SensitiveFraction/base.SensitiveFraction)
	}
	mean, sd := 0.0, 0.0
	for _, r := range ratios {
		mean += r
	}
	mean /= float64(len(ratios))
	for _, r := range ratios {
		sd += (r - mean) * (r - mean)
	}
	sd = math.Sqrt(sd / float64(len(ratios)))
	if math.Abs(mean-1) > 0.02 {
		t.Errorf("sample mean ratio = %v, want ~1", mean)
	}
	// ~10% part-to-part spread, as the companion studies report.
	if sd < 0.07 || sd > 0.14 {
		t.Errorf("sample spread = %v, want ~0.10", sd)
	}
}

func TestSampleNeverExceedsFullSensitivity(t *testing.T) {
	s := rng.New(31)
	d := K20()
	d.SensitiveFraction = 0.95
	for i := 0; i < 2000; i++ {
		if Sample(d, s).SensitiveFraction > 1 {
			t.Fatal("sample sensitivity exceeded 1")
		}
	}
}
