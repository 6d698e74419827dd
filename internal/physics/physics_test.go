package physics

import (
	"math"
	"testing"
	"testing/quick"

	"neutronsim/internal/rng"
	"neutronsim/internal/units"
)

func TestOneOverVAtReference(t *testing.T) {
	got := Boron10Capture(ReferenceThermalEnergy)
	if math.Abs(got.Barns()-Boron10ThermalSigma) > 1e-6 {
		t.Errorf("sigma at reference = %v b, want %v", got.Barns(), float64(Boron10ThermalSigma))
	}
}

func TestOneOverVScaling(t *testing.T) {
	// Quadrupling the energy should halve the cross section.
	s1 := Boron10Capture(0.0253)
	s2 := Boron10Capture(4 * 0.0253)
	if math.Abs(s1.Barns()/s2.Barns()-2) > 1e-9 {
		t.Errorf("1/v ratio = %v, want 2", s1.Barns()/s2.Barns())
	}
}

func TestOneOverVMonotone(t *testing.T) {
	f := func(raw float64) bool {
		e := units.Energy(math.Abs(math.Mod(raw, 100)) + 1e-4)
		lower := Boron10Capture(e)
		higher := Boron10Capture(e * 2)
		return lower >= higher
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOneOverVFastNegligible(t *testing.T) {
	fast := Boron10Capture(10 * units.MeV)
	th := Boron10Capture(ReferenceThermalEnergy)
	if fast.Barns() > th.Barns()/1000 {
		t.Errorf("fast capture %v b should be negligible vs thermal %v b", fast.Barns(), th.Barns())
	}
}

func TestOneOverVColdCap(t *testing.T) {
	cold := Boron10Capture(1e-12)
	if math.IsInf(float64(cold), 1) || math.IsNaN(float64(cold)) {
		t.Error("cold-neutron cross section not finite")
	}
}

func TestBoronCaptureProductsBranching(t *testing.T) {
	s := rng.New(1)
	excited := 0
	const n = 50000
	var buf [MaxCaptureProducts]Secondary
	for i := 0; i < n; i++ {
		prods := AppendBoronCaptureProducts(buf[:0], s)
		hasAlpha, hasLi := false, false
		for _, p := range prods {
			switch p.Kind {
			case Alpha:
				hasAlpha = true
				// Alpha energy is 1.47 (excited) or 1.78 (ground) MeV.
				if p.Energy.MeV() == 1.47 {
					excited++
				} else if p.Energy.MeV() != 1.78 {
					t.Fatalf("unexpected alpha energy %v", p.Energy)
				}
			case Lithium7:
				hasLi = true
			}
		}
		if !hasAlpha || !hasLi {
			t.Fatal("capture must produce an alpha and a 7Li")
		}
	}
	frac := float64(excited) / n
	if math.Abs(frac-0.94) > 0.01 {
		t.Errorf("excited branch fraction = %v, want 0.94", frac)
	}
}

func TestElasticAlpha(t *testing.T) {
	tests := []struct {
		a    float64
		want float64
	}{
		{1, 0},                     // hydrogen can stop a neutron dead
		{12, math.Pow(11.0/13, 2)}, // carbon
		{28, math.Pow(27.0/29, 2)}, // silicon
	}
	for _, tt := range tests {
		if got := ElasticAlpha(tt.a); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("ElasticAlpha(%v) = %v, want %v", tt.a, got, tt.want)
		}
	}
}

func TestScatterEnergyBounds(t *testing.T) {
	s := rng.New(2)
	e := units.Energy(2 * units.MeV)
	al := ElasticAlpha(16)
	for i := 0; i < 10000; i++ {
		ep := ScatterEnergy(e, 16, s)
		if float64(ep) < float64(e)*al-1e-9 || float64(ep) > float64(e)+1e-9 {
			t.Fatalf("scattered energy %v outside [alpha*E, E]", ep)
		}
	}
}

func TestScatterEnergyNeverIncreases(t *testing.T) {
	s := rng.New(3)
	f := func(rawE float64, rawA float64) bool {
		e := units.Energy(math.Abs(math.Mod(rawE, 1e7)) + 1)
		a := math.Abs(math.Mod(rawA, 200)) + 1
		return ScatterEnergy(e, a, s) <= e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChargeFC(t *testing.T) {
	// 1 MeV in silicon: 1e6/3.6 pairs * 1.602e-4 fC ≈ 44.5 fC.
	got := ChargeFC(1 * units.MeV)
	if math.Abs(got-44.5) > 0.1 {
		t.Errorf("charge per MeV = %v fC, want ~44.5", got)
	}
}

func TestDepositedChargeBounded(t *testing.T) {
	s := rng.New(4)
	sec := Secondary{Kind: Alpha, Energy: 1.47 * units.MeV}
	maxPossible := ChargeFC(sec.Energy)
	for i := 0; i < 10000; i++ {
		q := DepositedCharge(sec, s)
		if q < 0 || q > maxPossible {
			t.Fatalf("deposited charge %v outside [0, %v]", q, maxPossible)
		}
	}
}

func TestDepositedChargeGammaZero(t *testing.T) {
	s := rng.New(5)
	if q := DepositedCharge(Secondary{Kind: Gamma, Energy: units.MeV}, s); q != 0 {
		t.Errorf("gamma deposited %v fC, want 0", q)
	}
}

func TestDepositedChargeLithiumDenserThanAlpha(t *testing.T) {
	s := rng.New(6)
	var alphaSum, liSum float64
	const n = 20000
	for i := 0; i < n; i++ {
		alphaSum += DepositedCharge(Secondary{Kind: Alpha, Energy: units.MeV}, s)
		liSum += DepositedCharge(Secondary{Kind: Lithium7, Energy: units.MeV}, s)
	}
	if liSum <= alphaSum {
		t.Errorf("7Li should deposit more locally than alpha per unit energy: li=%v alpha=%v", liSum/n, alphaSum/n)
	}
}

func TestFastSiliconSecondary(t *testing.T) {
	s := rng.New(7)
	kinds := map[SecondaryKind]int{}
	for i := 0; i < 20000; i++ {
		sec := FastSiliconSecondary(14*units.MeV, s)
		kinds[sec.Kind]++
		if sec.Energy < 0 || sec.Energy > 14*units.MeV {
			t.Fatalf("secondary energy %v out of range", sec.Energy)
		}
	}
	if kinds[SiliconRecoil] == 0 || kinds[Alpha] == 0 || kinds[Proton] == 0 {
		t.Errorf("expected recoils, alphas and protons at 14 MeV: %v", kinds)
	}
	// Below the reaction thresholds, only recoils.
	kinds2 := map[SecondaryKind]int{}
	for i := 0; i < 5000; i++ {
		kinds2[FastSiliconSecondary(2*units.MeV, s).Kind]++
	}
	if kinds2[Alpha]+kinds2[Proton] != 0 {
		t.Errorf("sub-threshold reactions occurred: %v", kinds2)
	}
}

func TestClassify(t *testing.T) {
	tests := []struct {
		e    units.Energy
		want EnergyBand
	}{
		{0.0253, BandThermal},
		{0.49, BandThermal},
		{0.5, BandEpithermal},
		{1e3, BandEpithermal},
		{1 * units.MeV, BandFast},
		{800 * units.MeV, BandFast},
	}
	for _, tt := range tests {
		if got := Classify(tt.e); got != tt.want {
			t.Errorf("Classify(%v) = %v, want %v", tt.e, got, tt.want)
		}
	}
}

func TestSecondaryKindString(t *testing.T) {
	for k, want := range map[SecondaryKind]string{
		Alpha: "alpha", Lithium7: "7Li", Proton: "proton",
		Triton: "triton", SiliconRecoil: "Si recoil", Gamma: "gamma",
		SecondaryKind(99): "unknown",
	} {
		if got := k.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestEnergyBandString(t *testing.T) {
	if BandThermal.String() != "thermal" || BandFast.String() != "fast" ||
		BandEpithermal.String() != "epithermal" || EnergyBand(0).String() != "unknown" {
		t.Error("band names wrong")
	}
}
