package memsim

import (
	"context"
	"math"
	"strings"
	"testing"

	"neutronsim/internal/spectrum"
)

func thermalRun(t *testing.T, spec ModuleSpec, hours float64, seed uint64) *Result {
	t.Helper()
	res, err := RunContext(context.Background(), Config{
		Spec:            spec,
		Band:            ThermalBeam,
		Flux:            spectrum.ROTAXTotalFlux,
		DurationSeconds: hours * 3600,
		Seed:            seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestValidation(t *testing.T) {
	good := Config{
		Spec: DDR3Module(), Band: ThermalBeam,
		Flux: 1e6, DurationSeconds: 10,
	}
	bad := []func(*Config){
		func(c *Config) { c.Band = 0 },
		func(c *Config) { c.Flux = 0 },
		func(c *Config) { c.DurationSeconds = 0 },
		func(c *Config) { c.Spec.CapacityGB = 0 },
		func(c *Config) { c.Spec.ThermalSigmaPerGbit = 0 },
		func(c *Config) { c.Spec.BiasFraction = 0.2 },
		func(c *Config) { c.Spec.CategoryWeights = nil },
		func(c *Config) { c.Spec.SEFIBurstMin = 0 },
	}
	for i, mutate := range bad {
		cfg := good
		cfg.Spec = DDR3Module()
		mutate(&cfg)
		if _, err := RunContext(context.Background(), cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestSpecStrings(t *testing.T) {
	s := DDR3Module().String()
	for _, want := range []string{"DDR3", "4GB", "1.5V", "1866MHz", "10-11-10"} {
		if !strings.Contains(s, want) {
			t.Errorf("spec %q missing %q", s, want)
		}
	}
	if DDR4Module().Generation.String() != "DDR4" {
		t.Error("generation name")
	}
	if Generation(0).String() != "unknown" || Band(0).String() != "unknown" {
		t.Error("unknown names")
	}
	if OneToZero.String() != "1→0" || ZeroToOne.String() != "0→1" || Direction(0).String() != "unknown" {
		t.Error("direction names")
	}
	if Transient.String() != "transient" || SEFI.String() != "SEFI" || Category(0).String() != "unknown" {
		t.Error("category names")
	}
	if ThermalBeam.String() != "thermal" || FastBeam.String() != "fast" {
		t.Error("band names")
	}
}

func TestCapacities(t *testing.T) {
	if DDR3Module().Gbits() != 32 || DDR4Module().Gbits() != 64 {
		t.Error("Gbit capacities wrong")
	}
	if DDR3Module().Bits() != 4<<33 {
		t.Error("bit capacity wrong")
	}
}

func TestDDR3ThermalTaxonomy(t *testing.T) {
	res := thermalRun(t, DDR3Module(), 10, 1)
	if res.Events < 100 {
		t.Fatalf("too few events for taxonomy check: %d", res.Events)
	}
	total := float64(res.Events)
	perm := float64(res.ByCategory[Permanent]) / total
	if perm >= 0.40 {
		t.Errorf("DDR3 permanent share = %v, paper reports < 0.30", perm)
	}
	if res.ByCategory[SEFI] == 0 {
		t.Error("DDR3 should show SEFI events")
	}
	dir, bias := res.DirectionBias()
	if dir != OneToZero {
		t.Errorf("DDR3 dominant direction = %v, want 1→0", dir)
	}
	if bias < 0.93 {
		t.Errorf("DDR3 direction bias = %v, paper reports > 0.95", bias)
	}
}

func TestDDR4ThermalTaxonomy(t *testing.T) {
	res := thermalRun(t, DDR4Module(), 40, 2)
	if res.Events < 100 {
		t.Fatalf("too few events: %d", res.Events)
	}
	total := float64(res.Events)
	perm := float64(res.ByCategory[Permanent]) / total
	if perm <= 0.40 {
		t.Errorf("DDR4 permanent share = %v, paper reports > 0.50", perm)
	}
	if res.ByCategory[SEFI] == 0 {
		t.Error("DDR4 should show SEFI events")
	}
	dir, bias := res.DirectionBias()
	if dir != ZeroToOne {
		t.Errorf("DDR4 dominant direction = %v, want 0→1", dir)
	}
	if bias < 0.93 {
		t.Errorf("DDR4 direction bias = %v", bias)
	}
}

func TestDDR4OrderOfMagnitudeLower(t *testing.T) {
	r3 := thermalRun(t, DDR3Module(), 10, 3)
	r4 := thermalRun(t, DDR4Module(), 10, 4)
	if r3.SigmaPerGbit.Rate == 0 || r4.SigmaPerGbit.Rate == 0 {
		t.Fatal("zero cross sections")
	}
	ratio := r3.SigmaPerGbit.Rate / r4.SigmaPerGbit.Rate
	if ratio < 5 || ratio > 20 {
		t.Errorf("DDR3/DDR4 sigma ratio = %v, paper reports ~10x", ratio)
	}
}

func TestTransientsAndIntermittentsSingleBit(t *testing.T) {
	// "all the observed transient and intermittent errors were single bit
	// flip" — only SEFIs may contribute multi-bit events.
	res := thermalRun(t, DDR3Module(), 10, 5)
	if res.MultiBitEvents != res.ByCategory[SEFI] {
		t.Errorf("multi-bit events %d != SEFI events %d",
			res.MultiBitEvents, res.ByCategory[SEFI])
	}
	wantSingle := res.Events - res.ByCategory[SEFI]
	if res.SingleBitEvents != wantSingle {
		t.Errorf("single-bit events %d, want %d", res.SingleBitEvents, wantSingle)
	}
}

func TestClassifierRecoversTruth(t *testing.T) {
	res := thermalRun(t, DDR3Module(), 10, 6)
	for _, cat := range []Category{Transient, Intermittent, Permanent, SEFI} {
		truth := float64(res.TruthByCategory[cat])
		got := float64(res.ByCategory[cat])
		if truth == 0 {
			continue
		}
		if math.Abs(got-truth)/truth > 0.35 {
			t.Errorf("%v: classified %v vs truth %v", cat, got, truth)
		}
	}
}

func TestChipIRAbortsOnPermanents(t *testing.T) {
	res, err := RunContext(context.Background(), Config{
		Spec:                DDR3Module(),
		Band:                FastBeam,
		Flux:                spectrum.ChipIR().TotalFlux(),
		DurationSeconds:     3600,
		PermanentAbortLimit: 100,
		Seed:                7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted {
		t.Fatal("ChipIR campaign should abort on permanent pile-up")
	}
	// "after few minutes of irradiation" — well under the hour.
	if res.Passes > 1800 {
		t.Errorf("abort took %d s, want minutes", res.Passes)
	}
}

func TestThermalDoesNotAbort(t *testing.T) {
	res, err := RunContext(context.Background(), Config{
		Spec:                DDR3Module(),
		Band:                ThermalBeam,
		Flux:                spectrum.ROTAXTotalFlux,
		DurationSeconds:     2 * 3600,
		PermanentAbortLimit: 100,
		Seed:                8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted {
		t.Error("thermal campaign aborted; ROTAX runs completed in the paper")
	}
}

func TestECCAccounting(t *testing.T) {
	res, err := RunContext(context.Background(), Config{
		Spec:            DDR3Module(),
		Band:            ThermalBeam,
		Flux:            spectrum.ROTAXTotalFlux,
		DurationSeconds: 10 * 3600,
		ECC:             true,
		Seed:            9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ECCCorrected == 0 {
		t.Error("ECC corrected nothing over 10 h")
	}
	// Only SEFI words carry multi-bit corruption, so uncorrectables imply
	// SEFIs happened.
	if res.ECCUncorrectable > 0 && res.TruthByCategory[SEFI] == 0 {
		t.Error("uncorrectable errors without any SEFI")
	}
	if res.TruthByCategory[SEFI] > 0 && res.ECCUncorrectable == 0 {
		t.Error("SEFIs occurred but ECC saw no uncorrectable words")
	}
}

func TestDeterminism(t *testing.T) {
	r1 := thermalRun(t, DDR3Module(), 2, 10)
	r2 := thermalRun(t, DDR3Module(), 2, 10)
	if r1.Events != r2.Events || r1.ByCategory[Permanent] != r2.ByCategory[Permanent] {
		t.Error("campaign not reproducible")
	}
}

func TestFluenceAccounting(t *testing.T) {
	res := thermalRun(t, DDR3Module(), 1, 11)
	want := float64(spectrum.ROTAXTotalFlux) * 3600
	if math.Abs(float64(res.Fluence)-want)/want > 1e-9 {
		t.Errorf("fluence = %v, want %v", res.Fluence, want)
	}
}

func TestResultString(t *testing.T) {
	res := thermalRun(t, DDR3Module(), 1, 12)
	s := res.String()
	for _, want := range []string{"DDR3", "thermal", "events"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary %q missing %q", s, want)
		}
	}
}

func TestDirectionBiasEmpty(t *testing.T) {
	var res Result
	res.ByDirection = map[Direction]int64{}
	if d, b := res.DirectionBias(); d != 0 || b != 0 {
		t.Error("empty bias should be zero")
	}
}

// Property: classified events always balance across the taxonomy and the
// bit-count split, for arbitrary seeds and durations.
func TestClassifierBalanceProperty(t *testing.T) {
	for seed := uint64(0); seed < 12; seed++ {
		hours := 1 + float64(seed)
		res, err := RunContext(context.Background(), Config{
			Spec:            DDR3Module(),
			Band:            ThermalBeam,
			Flux:            spectrum.ROTAXTotalFlux,
			DurationSeconds: hours * 3600,
			Seed:            seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		for _, c := range []Category{Transient, Intermittent, Permanent, SEFI} {
			sum += res.ByCategory[c]
		}
		if sum != res.Events {
			t.Fatalf("seed %d: categories sum to %d, events %d", seed, sum, res.Events)
		}
		if res.SingleBitEvents+res.MultiBitEvents != res.Events {
			t.Fatalf("seed %d: bit split %d+%d != %d", seed,
				res.SingleBitEvents, res.MultiBitEvents, res.Events)
		}
		var dirSum int64
		for _, n := range res.ByDirection {
			dirSum += n
		}
		if dirSum != res.Events-res.ByCategory[SEFI] {
			t.Fatalf("seed %d: direction-classified %d != non-SEFI events %d",
				seed, dirSum, res.Events-res.ByCategory[SEFI])
		}
	}
}
