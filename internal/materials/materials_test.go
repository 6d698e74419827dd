package materials

import (
	"math"
	"testing"

	"neutronsim/internal/rng"
	"neutronsim/internal/units"
)

// hydrogenDensity is a moderator's hydrogen number density (atoms/cm³),
// the figure of merit the catalog tests check.
func hydrogenDensity(m *Material) float64 {
	for _, c := range m.components {
		if c.Element.Name == "H" {
			return c.NumberDensity
		}
	}
	return 0
}

func TestWaterComposition(t *testing.T) {
	w := Water()
	// Standard values: N(H2O) = 3.34e22 → H 6.69e22, O 3.34e22 atoms/cm³.
	if got := hydrogenDensity(w); math.Abs(got-6.69e22)/6.69e22 > 0.01 {
		t.Errorf("water hydrogen density = %v, want ~6.69e22", got)
	}
	var oxygen float64
	for _, c := range w.Components() {
		if c.Element.Name == "O" {
			oxygen = c.NumberDensity
		}
	}
	if math.Abs(oxygen-3.34e22)/3.34e22 > 0.01 {
		t.Errorf("water oxygen density = %v, want ~3.34e22", oxygen)
	}
}

func TestWaterMacroscopicScatter(t *testing.T) {
	// Σs(water) ≈ 6.69e22*20.4b + 3.34e22*3.76b ≈ 1.49 cm⁻¹.
	got := Water().MacroScatter()
	if math.Abs(got-1.49)/1.49 > 0.05 {
		t.Errorf("water Σs = %v cm⁻¹, want ~1.49", got)
	}
}

func TestWaterAbsorption(t *testing.T) {
	// Σa(water, thermal) ≈ 6.69e22*0.332b ≈ 0.022 cm⁻¹.
	got := Water().MacroAbsorb(0.0253)
	if math.Abs(got-0.022)/0.022 > 0.1 {
		t.Errorf("water Σa = %v cm⁻¹, want ~0.022", got)
	}
}

func TestMeanFreePathWater(t *testing.T) {
	// Thermal mfp in water ≈ 0.66 cm (1/1.51).
	got := 1 / Water().MacroTotal(0.0253)
	if got < 0.5 || got > 0.8 {
		t.Errorf("thermal mfp in water = %v cm, want ~0.66", got)
	}
}

func TestCadmiumBlocksThermalOnly(t *testing.T) {
	cd := CadmiumSheet()
	thermalProb := cd.AbsorptionProbability(0.0253)
	fastProb := cd.AbsorptionProbability(10 * units.MeV)
	if thermalProb < 0.9 {
		t.Errorf("Cd thermal absorption probability = %v, want > 0.9", thermalProb)
	}
	if fastProb > 0.01 {
		t.Errorf("Cd fast absorption probability = %v, want ~0 (transparent to fast)", fastProb)
	}
	// 1 mm of Cd should have huge thermal optical depth.
	depth := cd.MacroAbsorb(0.0253) * 0.1
	if depth < 5 {
		t.Errorf("1mm Cd thermal optical depth = %v, want > 5", depth)
	}
}

func TestBoratedPolyethyleneAbsorbs(t *testing.T) {
	plain := Polyethylene()
	borated := BoratedPolyethylene(0.05)
	if borated.MacroAbsorb(0.0253) < 50*plain.MacroAbsorb(0.0253) {
		t.Errorf("5%% borated PE should absorb far more than plain PE: %v vs %v",
			borated.MacroAbsorb(0.0253), plain.MacroAbsorb(0.0253))
	}
	// Still hydrogen-rich.
	if hydrogenDensity(borated) < 0.5*hydrogenDensity(plain) {
		t.Error("borated PE lost too much hydrogen")
	}
}

func TestBoratedPolyethyleneClamps(t *testing.T) {
	if m := BoratedPolyethylene(-1); m.MacroAbsorb(0.0253) > Polyethylene().MacroAbsorb(0.0253)*2 {
		t.Error("negative boron fraction should clamp to zero loading")
	}
	// Over-loading clamps at 30%.
	m1 := BoratedPolyethylene(0.3)
	m2 := BoratedPolyethylene(5)
	if math.Abs(m1.MacroAbsorb(0.0253)-m2.MacroAbsorb(0.0253)) > 1e-9 {
		t.Error("over-loaded boron fraction should clamp to 0.3")
	}
}

func TestConcreteHasHydrogen(t *testing.T) {
	c := Concrete()
	if hydrogenDensity(c) <= 0 {
		t.Error("concrete should contain bound water hydrogen")
	}
	if hydrogenDensity(c) >= hydrogenDensity(Water()) {
		t.Error("concrete should have less hydrogen than water")
	}
}

func TestBPSGBoronContent(t *testing.T) {
	b := BPSG()
	found := false
	for _, c := range b.Components() {
		if c.Element.Name == "B10" && c.NumberDensity > 1e19 {
			found = true
		}
	}
	if !found {
		t.Error("BPSG must contain a significant 10B density")
	}
	// Thermal absorption should dwarf pure silicon's.
	if b.MacroAbsorb(0.0253) < 100*SiliconBulk().MacroAbsorb(0.0253) {
		t.Error("BPSG thermal absorption should be >> silicon")
	}
}

func TestAirNearlyTransparent(t *testing.T) {
	if mfp := 1 / Air().MacroTotal(0.0253); mfp < 1000 {
		t.Errorf("thermal mfp in air = %v cm, want > 10 m", mfp)
	}
}

func TestLiquidMethaneModerator(t *testing.T) {
	m := LiquidMethane()
	if hydrogenDensity(m) <= 0 {
		t.Error("methane should be hydrogen-rich")
	}
	// CH4 at 0.42 g/cm³: N(CH4) = 1.58e22 → H = 6.3e22.
	if got := hydrogenDensity(m); math.Abs(got-6.3e22)/6.3e22 > 0.02 {
		t.Errorf("methane H density = %v, want ~6.3e22", got)
	}
}

func TestHelium3Gas(t *testing.T) {
	g := Helium3Gas(4)
	if g.MacroAbsorb(0.0253) <= 0 {
		t.Error("3He gas must absorb thermal neutrons")
	}
	// Pressure scaling: 8 atm ≈ 2× absorption of 4 atm.
	g8 := Helium3Gas(8)
	ratio := g8.MacroAbsorb(0.0253) / g.MacroAbsorb(0.0253)
	if math.Abs(ratio-2) > 0.01 {
		t.Errorf("pressure scaling ratio = %v, want 2", ratio)
	}
	// Zero/negative pressure defaults to 1 atm.
	if Helium3Gas(0).MacroAbsorb(0.0253) <= 0 {
		t.Error("defaulted pressure should still absorb")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New("bad", -1, []WeightFraction{{Hydrogen, 1}}); err == nil {
		t.Error("negative density accepted")
	}
	if _, err := New("bad", 1, nil); err == nil {
		t.Error("empty composition accepted")
	}
	if _, err := New("bad", 1, []WeightFraction{{Hydrogen, -0.5}}); err == nil {
		t.Error("negative fraction accepted")
	}
	if _, err := New("bad", 1, []WeightFraction{{Hydrogen, 0}}); err == nil {
		t.Error("zero total fraction accepted")
	}
}

func TestFractionNormalization(t *testing.T) {
	// Fractions 2:2 should behave as 0.5:0.5.
	a, err := New("a", 1, []WeightFraction{{Hydrogen, 2}, {Carbon, 2}})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := New("b", 1, []WeightFraction{{Hydrogen, 0.5}, {Carbon, 0.5}})
	if math.Abs(a.MacroScatter()-b.MacroScatter()) > 1e-9 {
		t.Error("weight fractions were not normalized")
	}
}

func TestSampleScattererWeighted(t *testing.T) {
	w := Water()
	s := rng.New(1)
	hCount := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if w.SampleScatterer(s).Name == "H" {
			hCount++
		}
	}
	// H share of Σs ≈ 6.69e22*20.4/(6.69e22*20.4+3.34e22*3.76) ≈ 0.916.
	frac := float64(hCount) / n
	if math.Abs(frac-0.916) > 0.02 {
		t.Errorf("hydrogen scatter share = %v, want ~0.916", frac)
	}
}

func TestAbsorptionProbabilityBounds(t *testing.T) {
	for _, m := range []*Material{Water(), Concrete(), CadmiumSheet(), Air(), BPSG()} {
		for _, e := range []units.Energy{0.001, 0.0253, 1, 1e3, 1e6, 100e6} {
			p := m.AbsorptionProbability(e)
			if p < 0 || p > 1 {
				t.Errorf("%s at %v: absorption probability %v out of [0,1]", m.Name(), e, p)
			}
		}
	}
}

func TestComponentsCopied(t *testing.T) {
	w := Water()
	cs := w.Components()
	cs[0].NumberDensity = -1
	if w.Components()[0].NumberDensity == -1 {
		t.Error("Components() exposed internal slice")
	}
}

func TestCatalogDensities(t *testing.T) {
	tests := []struct {
		m    *Material
		want float64
	}{
		{Water(), 1.0},
		{Concrete(), 2.3},
		{Polyethylene(), 0.94},
		{CadmiumSheet(), 8.65},
		{SiliconBulk(), 2.33},
	}
	for _, tt := range tests {
		if got := tt.m.density; got != tt.want {
			t.Errorf("%s density = %v, want %v", tt.m.Name(), got, tt.want)
		}
	}
}

func TestCadmiumResonanceFromTable(t *testing.T) {
	// With evaluated data loaded, the 0.178 eV resonance must show up in
	// the macroscopic absorption of the Cd sheet.
	cd := CadmiumSheet()
	peak := cd.MacroAbsorb(0.178)
	thermal := cd.MacroAbsorb(0.0253)
	if peak <= thermal {
		t.Errorf("Cd resonance missing: Σa(0.178)=%v vs Σa(0.0253)=%v", peak, thermal)
	}
	// Cutoff: epithermal absorption collapses.
	if cd.MacroAbsorb(1) > thermal/50 {
		t.Errorf("Cd cutoff too soft: Σa(1eV)=%v", cd.MacroAbsorb(1))
	}
}

func TestTabulatedBoronMatchesAnalytic(t *testing.T) {
	// The borated-PE absorption should be unchanged (within a few percent)
	// by switching B10 from 1/v to the table.
	m := BoratedPolyethylene(0.05)
	got := m.MacroAbsorb(0.0253)
	if got < 2.0 || got > 2.6 {
		t.Errorf("borated PE thermal Σa = %v, want ~2.3", got)
	}
}

func TestKeroseneModerator(t *testing.T) {
	k := Kerosene()
	if hydrogenDensity(k) <= 0 {
		t.Fatal("kerosene should be hydrogen-rich")
	}
	// ~7.4e22 H/cm³ (0.81 g/cm³ × 0.1526 × N_A).
	if got := hydrogenDensity(k); math.Abs(got-7.4e22)/7.4e22 > 0.05 {
		t.Errorf("kerosene H density = %v, want ~7.4e22", got)
	}
}
