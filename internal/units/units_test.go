package units

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestEnergyScales(t *testing.T) {
	tests := []struct {
		name string
		e    Energy
		ev   float64
		mev  float64
	}{
		{"one eV", EV, 1, 1e-6},
		{"one keV", KeV, 1e3, 1e-3},
		{"one MeV", MeV, 1e6, 1},
		{"one GeV", GeV, 1e9, 1e3},
		{"thermal peak", RoomTemperatureKT, 0.0253, 0.0253e-6},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := float64(tt.e); got != tt.ev {
				t.Errorf("eV = %v, want %v", got, tt.ev)
			}
			if got := tt.e.MeV(); math.Abs(got-tt.mev) > 1e-15 {
				t.Errorf("MeV() = %v, want %v", got, tt.mev)
			}
		})
	}
}

func TestEnergyClassification(t *testing.T) {
	tests := []struct {
		e       Energy
		thermal bool
		fast    bool
	}{
		{0.0253, true, false},
		{0.4, true, false},
		{0.5, false, false}, // exactly at cutoff: epithermal
		{1, false, false},
		{1e3, false, false},
		{1 * MeV, false, true},
		{100 * MeV, false, true},
	}
	for _, tt := range tests {
		if got := tt.e.IsThermal(); got != tt.thermal {
			t.Errorf("(%v).IsThermal() = %v, want %v", tt.e, got, tt.thermal)
		}
		if got := tt.e.IsFast(); got != tt.fast {
			t.Errorf("(%v).IsFast() = %v, want %v", tt.e, got, tt.fast)
		}
	}
}

func TestEnergyString(t *testing.T) {
	tests := []struct {
		e    Energy
		want string
	}{
		{0, "0 eV"},
		{0.0253, "25.3 meV"},
		{2.5, "2.5 eV"},
		{14e3, "14 keV"},
		{1.47 * MeV, "1.47 MeV"},
		{10 * GeV, "10 GeV"},
	}
	for _, tt := range tests {
		if got := tt.e.String(); got != tt.want {
			t.Errorf("(%g).String() = %q, want %q", float64(tt.e), got, tt.want)
		}
	}
}

func TestFluxConversions(t *testing.T) {
	f := FluxPerHour(13) // NYC-like fast flux
	if got := f.PerHour(); math.Abs(got-13) > 1e-12 {
		t.Errorf("round trip per-hour = %v, want 13", got)
	}
	if float64(f) <= 0 || float64(f) >= 13 {
		t.Errorf("per-second value %v out of range", float64(f))
	}
}

func TestBarnsRoundTrip(t *testing.T) {
	f := func(b float64) bool {
		b = math.Abs(b)
		cs := FromBarns(b)
		return math.Abs(cs.Barns()-b) <= 1e-9*math.Max(b, 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFITFromCrossSection(t *testing.T) {
	// sigma = 1e-9 cm², flux = 13 n/cm²/h ⇒ FIT = 1e-9*13*1e9 = 13.
	got := FITFromCrossSection(1e-9, FluxPerHour(13))
	if math.Abs(float64(got)-13) > 1e-9 {
		t.Errorf("FIT = %v, want 13", got)
	}
}

func TestMTBF(t *testing.T) {
	if got := FIT(1e9).MTBF(); got != 1 {
		t.Errorf("MTBF(1e9 FIT) = %v, want 1h", got)
	}
	if got := FIT(0).MTBF(); !math.IsInf(got, 1) {
		t.Errorf("MTBF(0) = %v, want +Inf", got)
	}
}

func TestTemperatureKT(t *testing.T) {
	kt := RoomTemperature.KT()
	if kt < 0.024 || kt > 0.026 {
		t.Errorf("room temperature kT = %v eV, want ~0.0253", float64(kt))
	}
	if ktMethane := LiquidMethaneTemp.KT(); ktMethane >= kt {
		t.Errorf("liquid methane kT %v should be below room kT %v", ktMethane, kt)
	}
}

func TestStringFormats(t *testing.T) {
	if s := Flux(5.4e6).String(); !strings.Contains(s, "5.4e+06") {
		t.Errorf("Flux.String() = %q", s)
	}
	if s := Fluence(1e11).String(); !strings.Contains(s, "1e+11") {
		t.Errorf("Fluence.String() = %q", s)
	}
	if s := CrossSection(3e-14).String(); !strings.Contains(s, "3e-14") {
		t.Errorf("CrossSection.String() = %q", s)
	}
	if s := FIT(123.4).String(); !strings.Contains(s, "123.4") {
		t.Errorf("FIT.String() = %q", s)
	}
}
