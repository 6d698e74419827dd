package transport

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"neutronsim/internal/materials"
	"neutronsim/internal/physics"
	"neutronsim/internal/rng"
	"neutronsim/internal/units"
)

func fastSource(s *rng.Stream) units.Energy {
	return units.Energy(s.WattEnergy(0.988, 2.249) * 1e6)
}

func thermalSource(*rng.Stream) units.Energy { return 0.0253 }

func TestSimulateValidation(t *testing.T) {
	s := rng.New(1)
	if _, err := SimulateContext(context.Background(), nil, 10, thermalSource, s, Options{}); err == nil {
		t.Error("empty geometry accepted")
	}
	slabs := []Slab{{Material: materials.Water(), Thickness: 1}}
	if _, err := SimulateContext(context.Background(), slabs, 0, thermalSource, s, Options{}); err == nil {
		t.Error("zero neutrons accepted")
	}
	if _, err := SimulateContext(context.Background(), slabs, 10, nil, s, Options{}); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := SimulateContext(context.Background(), []Slab{{Material: materials.Water(), Thickness: 0}}, 10, thermalSource, s, Options{}); err == nil {
		t.Error("zero thickness accepted")
	}
	if _, err := SimulateContext(context.Background(), []Slab{{Thickness: 1}}, 10, thermalSource, s, Options{}); err == nil {
		t.Error("nil material accepted")
	}
}

func TestConservation(t *testing.T) {
	s := rng.New(2)
	tally, err := SimulateContext(context.Background(), []Slab{{Material: materials.Water(), Thickness: 5}}, 5000, fastSource, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	total := tally.TransmittedTotal() + tally.ReflectedTotal() + tally.Absorbed
	if total != tally.Incident {
		t.Errorf("neutrons not conserved: %d tracked vs %d incident", total, tally.Incident)
	}
}

func TestThinAirTransparent(t *testing.T) {
	s := rng.New(3)
	tally, err := SimulateContext(context.Background(), []Slab{{Material: materials.Air(), Thickness: 100}}, 2000, fastSource, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if f := tally.TransmissionFraction(); f < 0.95 {
		t.Errorf("1 m of air transmitted only %v", f)
	}
}

func TestWaterModeratesFastToThermal(t *testing.T) {
	s := rng.New(4)
	tally, err := SimulateContext(context.Background(), []Slab{{Material: materials.Water(), Thickness: 5.08}}, 20000, fastSource, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	albedo := tally.ReflectedThermalFraction()
	if albedo < 0.10 || albedo > 0.25 {
		t.Errorf("2in water thermal albedo = %v, want ~0.15", albedo)
	}
	// Some fast neutrons must still punch through 2 inches.
	if tally.Transmitted[physics.BandFast] == 0 {
		t.Error("no fast transmission through 2in water")
	}
}

func TestAlbedoSaturatesWithThickness(t *testing.T) {
	s := rng.New(5)
	thin, err := ThermalAlbedoContext(context.Background(), materials.Water(), 1, 15000, fastSource, s)
	if err != nil {
		t.Fatal(err)
	}
	thick, err := ThermalAlbedoContext(context.Background(), materials.Water(), 10, 15000, fastSource, s)
	if err != nil {
		t.Fatal(err)
	}
	veryThick, err := ThermalAlbedoContext(context.Background(), materials.Water(), 40, 15000, fastSource, s)
	if err != nil {
		t.Fatal(err)
	}
	if thin >= thick {
		t.Errorf("albedo should grow from thin (%v) to thick (%v)", thin, thick)
	}
	if math.Abs(veryThick-thick)/thick > 0.2 {
		t.Errorf("albedo should saturate: 10cm %v vs 40cm %v", thick, veryThick)
	}
}

func TestConcreteModeratesLessThanWater(t *testing.T) {
	s := rng.New(6)
	water, _ := ThermalAlbedoContext(context.Background(), materials.Water(), 30, 15000, fastSource, s)
	concrete, _ := ThermalAlbedoContext(context.Background(), materials.Concrete(), 30, 15000, fastSource, s)
	if concrete >= water {
		t.Errorf("concrete albedo %v should be below water %v", concrete, water)
	}
	if concrete < 0.05 {
		t.Errorf("concrete albedo %v too small; the paper reports ~20%% enhancement", concrete)
	}
}

func TestCadmiumBlocksThermalPassesFast(t *testing.T) {
	s := rng.New(7)
	thermalTrans, _, err := ShieldTransmission(materials.CadmiumSheet(), 0.1, 0.0253, 10000, s)
	if err != nil {
		t.Fatal(err)
	}
	if thermalTrans > 0.001 {
		t.Errorf("1mm Cd transmitted %v of thermals, want ~0", thermalTrans)
	}
	fastTrans, _, err := ShieldTransmission(materials.CadmiumSheet(), 0.1, 14*units.MeV, 10000, s)
	if err != nil {
		t.Fatal(err)
	}
	if fastTrans < 0.95 {
		t.Errorf("1mm Cd transmitted only %v of fast neutrons, want ~0.98", fastTrans)
	}
}

func TestBoratedPlasticShielding(t *testing.T) {
	s := rng.New(8)
	// 2 inches of 5% borated PE should remove essentially all thermals.
	trans, _, err := ShieldTransmission(materials.BoratedPolyethylene(0.05), 5.08, 0.0253, 10000, s)
	if err != nil {
		t.Fatal(err)
	}
	if trans > 0.001 {
		t.Errorf("2in borated PE transmitted %v of thermals", trans)
	}
	// Plain PE mostly scatters them around instead of absorbing.
	absorbing, err := SimulateContext(context.Background(), []Slab{{Material: materials.BoratedPolyethylene(0.05), Thickness: 5.08}},
		10000, thermalSource, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := SimulateContext(context.Background(), []Slab{{Material: materials.Polyethylene(), Thickness: 5.08}},
		10000, thermalSource, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if absorbing.Absorbed <= plain.Absorbed {
		t.Error("borated PE should absorb more than plain PE")
	}
}

func TestMultiSlabGeometry(t *testing.T) {
	s := rng.New(9)
	// Cd in front of water: thermal source dies in the Cd, never reaches water.
	tally, err := SimulateContext(context.Background(), []Slab{
		{Material: materials.CadmiumSheet(), Thickness: 0.1},
		{Material: materials.Water(), Thickness: 5},
	}, 5000, thermalSource, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tally.TransmittedTotal() > 5 {
		t.Errorf("thermal neutrons crossed Cd+water: %d", tally.TransmittedTotal())
	}
	if got := tally.AbsorbedByElement["Cd"]; got < 4500 {
		t.Errorf("expected Cd to take nearly all captures, got %d", got)
	}
}

func TestAbsorbedByElementHelium3(t *testing.T) {
	s := rng.New(10)
	tally, err := SimulateContext(context.Background(), []Slab{{Material: materials.Helium3Gas(4), Thickness: 2.5}},
		5000, thermalSource, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tally.Absorbed == 0 {
		t.Fatal("no captures in 3He tube model")
	}
	if tally.AbsorbedByElement["He3"] != tally.Absorbed {
		t.Errorf("all captures should be on He3: %v of %v", tally.AbsorbedByElement["He3"], tally.Absorbed)
	}
}

func TestThermalEnhancementCalibration(t *testing.T) {
	s := rng.New(11)
	// With coupling 0.5 and fast:thermal ratio 3.2 (NYC-like), 2 inches of
	// water should produce roughly the paper's +24%.
	enh, err := ThermalEnhancementContext(context.Background(), EnhancementConfig{
		Moderator:              materials.Water(),
		Thickness:              5.08,
		FastToThermalFluxRatio: 3.2,
		Coupling:               0.5,
		Neutrons:               20000,
	}, fastSource, s)
	if err != nil {
		t.Fatal(err)
	}
	if enh < 0.18 || enh > 0.30 {
		t.Errorf("water enhancement = %v, want ~0.24", enh)
	}
	// Concrete slab floor: the paper reports ~+20%.
	enhC, err := ThermalEnhancementContext(context.Background(), EnhancementConfig{
		Moderator:              materials.Concrete(),
		Thickness:              30,
		FastToThermalFluxRatio: 3.2,
		Coupling:               0.5,
		Neutrons:               20000,
	}, fastSource, s)
	if err != nil {
		t.Fatal(err)
	}
	if enhC < 0.12 || enhC > 0.28 {
		t.Errorf("concrete enhancement = %v, want ~0.2", enhC)
	}
}

func TestThermalEnhancementValidation(t *testing.T) {
	s := rng.New(12)
	cfg := EnhancementConfig{Moderator: materials.Water(), Thickness: 5}
	if _, err := ThermalEnhancementContext(context.Background(), cfg, fastSource, s); err == nil {
		t.Error("zero flux ratio accepted")
	}
	cfg.FastToThermalFluxRatio = 3
	if _, err := ThermalEnhancementContext(context.Background(), cfg, fastSource, s); err == nil {
		t.Error("zero coupling accepted")
	}
}

func TestThermalEnhancementDefaultNeutrons(t *testing.T) {
	s := rng.New(13)
	enh, err := ThermalEnhancementContext(context.Background(), EnhancementConfig{
		Moderator:              materials.Water(),
		Thickness:              5.08,
		FastToThermalFluxRatio: 3.2,
		Coupling:               0.5,
	}, fastSource, s)
	if err != nil {
		t.Fatal(err)
	}
	if enh <= 0 {
		t.Error("default neutron budget produced no enhancement")
	}
}

func TestFateString(t *testing.T) {
	for f, want := range map[Fate]string{
		FateTransmitted: "transmitted",
		FateReflected:   "reflected",
		FateAbsorbed:    "absorbed",
		Fate(0):         "unknown",
	} {
		if got := f.String(); got != want {
			t.Errorf("Fate(%d).String() = %q, want %q", f, got, want)
		}
	}
}

func TestEnergyNeverLost(t *testing.T) {
	// Reflected/transmitted neutrons must carry classifiable energies.
	s := rng.New(14)
	tally, err := SimulateContext(context.Background(), []Slab{{Material: materials.Polyethylene(), Thickness: 3}}, 5000, fastSource, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for band := range tally.Transmitted {
		if band != physics.BandThermal && band != physics.BandEpithermal && band != physics.BandFast {
			t.Errorf("unknown band %v in tally", band)
		}
	}
}

func BenchmarkWaterTransport(b *testing.B) {
	s := rng.New(1)
	slabs := []Slab{{Material: materials.Water(), Thickness: 5.08}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateContext(context.Background(), slabs, 100, fastSource, s, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// Property: neutrons are conserved for arbitrary geometries.
func TestConservationProperty(t *testing.T) {
	s := rng.New(99)
	mats := []*materials.Material{
		materials.Water(), materials.Concrete(), materials.Polyethylene(),
		materials.Air(), materials.CadmiumSheet(), materials.BoratedPolyethylene(0.05),
	}
	f := func(matIdx uint8, rawThick, rawE float64) bool {
		m := mats[int(matIdx)%len(mats)]
		thickness := 0.1 + math.Abs(math.Mod(rawThick, 20))
		e := units.Energy(0.001 + math.Abs(math.Mod(rawE, 1e8)))
		tally, err := SimulateContext(context.Background(), []Slab{{Material: m, Thickness: thickness}}, 200,
			func(*rng.Stream) units.Energy { return e }, s, Options{})
		if err != nil {
			return false
		}
		return tally.TransmittedTotal()+tally.ReflectedTotal()+tally.Absorbed == tally.Incident
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestForwardBiasValidation(t *testing.T) {
	s := rng.New(100)
	slabs := []Slab{{Material: materials.Water(), Thickness: 1}}
	if _, err := SimulateContext(context.Background(), slabs, 10, thermalSource, s, Options{ForwardBias: -0.1}); err == nil {
		t.Error("negative bias accepted")
	}
	if _, err := SimulateContext(context.Background(), slabs, 10, thermalSource, s, Options{ForwardBias: 1}); err == nil {
		t.Error("bias of 1 accepted")
	}
}

func TestForwardBiasRaisesTransmission(t *testing.T) {
	s := rng.New(101)
	slabs := []Slab{{Material: materials.Polyethylene(), Thickness: 5}}
	iso, err := SimulateContext(context.Background(), slabs, 8000, fastSource, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fwd, err := SimulateContext(context.Background(), slabs, 8000, fastSource, s, Options{ForwardBias: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if fwd.TransmissionFraction() <= iso.TransmissionFraction() {
		t.Errorf("forward bias should raise transmission: %v vs %v",
			fwd.TransmissionFraction(), iso.TransmissionFraction())
	}
}
