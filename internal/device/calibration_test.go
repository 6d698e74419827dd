package device

import (
	"math"
	"testing"

	"neutronsim/internal/rng"
	"neutronsim/internal/spectrum"
	"neutronsim/internal/units"
)

func beamSamplers() (fast, thermal func(*rng.Stream) units.Energy) {
	chip := spectrum.ChipIR()
	rotax := spectrum.ROTAX()
	return func(s *rng.Stream) units.Energy { return chip.Sample(s) },
		func(s *rng.Stream) units.Energy { return rotax.Sample(s) }
}

// TestBakedBoronMatchesTargets re-verifies the calibration that produced
// the catalog's Boron10PerCm2 values: the measured fast:thermal ratio of
// every device must sit near its RatioTargets entry.
func TestBakedBoronMatchesTargets(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration verification is slow")
	}
	fast, thermal := beamSamplers()
	s := rng.New(99)
	for _, d := range All() {
		target := RatioTargets[d.Name]
		if target == 0 {
			t.Fatalf("no ratio target for %s", d.Name)
		}
		got, err := MeasuredRatio(d, fast, thermal, 150000, s)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if math.Abs(got-target)/target > 0.20 {
			t.Errorf("%s: measured ratio %.2f vs target %.2f", d.Name, got, target)
		}
	}
}

func TestMeasuredRatioBoronFreeErrors(t *testing.T) {
	fast, thermal := beamSamplers()
	s := rng.New(103)
	if _, err := MeasuredRatio(BoronFree(K20()), fast, thermal, 10000, s); err == nil {
		t.Error("boron-free ratio should error (division by zero thermal sigma)")
	}
}

// TestXeonPhiLeastThermallySensitive encodes the paper's headline ordering:
// the Xeon Phi has by far the weakest thermal response relative to fast.
func TestXeonPhiLeastThermallySensitive(t *testing.T) {
	if testing.Short() {
		t.Skip("slow MC comparison")
	}
	fast, thermal := beamSamplers()
	s := rng.New(104)
	phi, err := MeasuredRatio(XeonPhi(), fast, thermal, 120000, s)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*Device{K20(), TitanX(), APU(APUCPUGPU), FPGA()} {
		r, err := MeasuredRatio(d, fast, thermal, 120000, s)
		if err != nil {
			t.Fatal(err)
		}
		if r >= phi {
			t.Errorf("%s ratio %.2f should be below XeonPhi's %.2f", d.Name, r, phi)
		}
	}
}
