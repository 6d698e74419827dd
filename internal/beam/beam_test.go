package beam

import (
	"context"
	"math"
	"strings"
	"testing"

	"neutronsim/internal/device"
	"neutronsim/internal/physics"
	"neutronsim/internal/spectrum"
	"neutronsim/internal/units"
)

// boosted returns a copy of d with sensitivity raised so that unit-test
// campaigns collect statistics quickly. The boost multiplies thermal and
// fast interaction probabilities identically, preserving calibrated ratios.
func boosted(d *device.Device, factor float64) *device.Device {
	cp := *d
	cp.SensitiveFraction = math.Min(1, cp.SensitiveFraction*factor)
	return &cp
}

func TestRunValidation(t *testing.T) {
	valid := Config{
		Device:          device.K20(),
		WorkloadName:    "MxM",
		Beam:            spectrum.ChipIR(),
		DurationSeconds: 1,
	}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"nil device", func(c *Config) { c.Device = nil }},
		{"nil beam", func(c *Config) { c.Beam = nil }},
		{"no workload", func(c *Config) { c.WorkloadName = "" }},
		{"zero duration", func(c *Config) { c.DurationSeconds = 0 }},
		{"derating > 1", func(c *Config) { c.Derating = 2 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := valid
			tt.mutate(&cfg)
			if _, err := RunContext(context.Background(), cfg); err == nil {
				t.Error("expected error")
			}
		})
	}
	if _, err := RunContext(context.Background(), Config{
		Device:          device.K20(),
		WorkloadName:    "not-a-benchmark",
		Beam:            spectrum.ChipIR(),
		DurationSeconds: 1,
	}); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestRunConservationAndFluence(t *testing.T) {
	cfg := Config{
		Device:          boosted(device.K20(), 200),
		WorkloadName:    "MxM",
		Beam:            spectrum.ChipIR(),
		DurationSeconds: 5,
		RunSeconds:      0.05,
		Seed:            1,
	}
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.SDC + res.DUE + res.Masked; got != int64(res.Runs) {
		t.Errorf("outcomes %d != runs %d", got, res.Runs)
	}
	wantFluence := float64(spectrum.ChipIR().TotalFlux()) * 5
	if math.Abs(float64(res.Fluence)-wantFluence)/wantFluence > 0.02 {
		t.Errorf("fluence = %v, want ~%v", res.Fluence, wantFluence)
	}
	if res.Upsets == 0 || res.SDC == 0 {
		t.Errorf("boosted campaign collected no statistics: %+v", res)
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := Config{
		Device:          boosted(device.TitanX(), 200),
		WorkloadName:    "HotSpot",
		Beam:            spectrum.ChipIR(),
		DurationSeconds: 2,
		RunSeconds:      0.05,
		Seed:            7,
	}
	r1, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.SDC != r2.SDC || r1.DUE != r2.DUE || r1.Upsets != r2.Upsets {
		t.Errorf("campaigns with same seed differ: %v vs %v", r1, r2)
	}
}

func TestDeratingScalesFluence(t *testing.T) {
	base := Config{
		Device:          boosted(device.K20(), 100),
		WorkloadName:    "MxM",
		Beam:            spectrum.ChipIR(),
		DurationSeconds: 2,
		RunSeconds:      0.05,
		Seed:            3,
	}
	full, err := RunContext(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	base.Derating = 0.5
	half, err := RunContext(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(full.Fluence) / float64(half.Fluence)
	if math.Abs(ratio-2) > 1e-9 {
		t.Errorf("fluence derating ratio = %v, want 2", ratio)
	}
	// Error counts scale with fluence, so cross sections should agree
	// within statistics.
	if half.Upsets == 0 {
		t.Fatal("derated campaign collected nothing")
	}
	csRatio := full.SDCCrossSection.Rate / half.SDCCrossSection.Rate
	if csRatio < 0.5 || csRatio > 2 {
		t.Errorf("cross sections disagree across derating: ratio %v", csRatio)
	}
}

func TestBandAttribution(t *testing.T) {
	// At ROTAX, faults must be thermal/epithermal; at ChipIR, mostly fast.
	rotax, err := RunContext(context.Background(), Config{
		Device:          boosted(device.K20(), 400),
		WorkloadName:    "MxM",
		Beam:            spectrum.ROTAX(),
		DurationSeconds: 20,
		RunSeconds:      0.1,
		Seed:            5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rotax.FaultsByBand[physics.BandFast] != 0 {
		t.Errorf("fast faults at ROTAX: %v", rotax.FaultsByBand)
	}
	if rotax.FaultsByBand[physics.BandThermal] == 0 {
		t.Errorf("no thermal faults at ROTAX: %v", rotax.FaultsByBand)
	}
	chip, err := RunContext(context.Background(), Config{
		Device:          boosted(device.K20(), 400),
		WorkloadName:    "MxM",
		Beam:            spectrum.ChipIR(),
		DurationSeconds: 5,
		RunSeconds:      0.1,
		Seed:            6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if chip.FaultsByBand[physics.BandFast] == 0 {
		t.Errorf("no fast faults at ChipIR: %v", chip.FaultsByBand)
	}
}

func TestRunPairRatioK20(t *testing.T) {
	if testing.Short() {
		t.Skip("slow MC campaign")
	}
	// K20 target: total ratio ≈ 2.2, SDC ratio ≈ 2. Boosted device keeps
	// the ratio; verify within generous statistics.
	d := boosted(device.K20(), 300)
	campaign := func(sp *spectrum.Mixture, seconds float64, seed uint64) *Result {
		res, err := RunContext(context.Background(), Config{
			Device: d, WorkloadName: "MxM", Beam: sp, DurationSeconds: seconds, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	pair := Pair{Fast: campaign(spectrum.ChipIR(), 30, 11), Thermal: campaign(spectrum.ROTAX(), 240, 12)}
	ratio, lo, hi := pair.SDCRatio()
	if math.IsNaN(ratio) {
		t.Fatalf("no ratio: fast SDC %d thermal SDC %d", pair.Fast.SDC, pair.Thermal.SDC)
	}
	if ratio < 1.0 || ratio > 4.5 {
		t.Errorf("K20 SDC ratio = %v [%v, %v], want ~2", ratio, lo, hi)
	}
	if lo >= hi || lo > ratio || hi < ratio {
		t.Errorf("ratio CI malformed: %v [%v, %v]", ratio, lo, hi)
	}
}

func TestFPGAPersistenceAndReprogram(t *testing.T) {
	res, err := RunContext(context.Background(), Config{
		Device:          boosted(device.FPGA(), 2000),
		WorkloadName:    "MNIST",
		Beam:            spectrum.ROTAX(),
		DurationSeconds: 30,
		RunSeconds:      0.1,
		Seed:            9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SDC == 0 {
		t.Fatal("FPGA campaign observed no SDCs")
	}
	if res.Reprograms == 0 {
		t.Error("FPGA errors must trigger bitstream reprogramming")
	}
	// DUEs should be rare on the FPGA (no OS / control flow, §V).
	if res.DUE > res.SDC {
		t.Errorf("FPGA DUEs (%d) exceed SDCs (%d)", res.DUE, res.SDC)
	}
}

func TestMerge(t *testing.T) {
	d := boosted(device.K20(), 200)
	mk := func(wl string, seed uint64) *Result {
		res, err := RunContext(context.Background(), Config{
			Device:          d,
			WorkloadName:    wl,
			Beam:            spectrum.ChipIR(),
			DurationSeconds: 2,
			RunSeconds:      0.05,
			Seed:            seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk("MxM", 1), mk("HotSpot", 2)
	merged, err := Merge([]*Result{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if merged.SDC != a.SDC+b.SDC || merged.Fluence != a.Fluence+b.Fluence {
		t.Error("merge did not sum counts")
	}
	if merged.Workload != "average" {
		t.Errorf("merged workload label %q", merged.Workload)
	}
}

func TestMergeValidation(t *testing.T) {
	if _, err := Merge(nil); err == nil {
		t.Error("empty merge accepted")
	}
	r1 := &Result{Device: "A", Beam: "X", Fluence: 1}
	r2 := &Result{Device: "B", Beam: "X", Fluence: 1}
	if _, err := Merge([]*Result{r1, r2}); err == nil {
		t.Error("cross-device merge accepted")
	}
}

func TestResultString(t *testing.T) {
	res, err := RunContext(context.Background(), Config{
		Device:          boosted(device.K20(), 100),
		WorkloadName:    "MxM",
		Beam:            spectrum.ChipIR(),
		DurationSeconds: 1,
		RunSeconds:      0.1,
		Seed:            13,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := res.String()
	for _, want := range []string{"K20", "MxM", "ChipIR", "SDC", "DUE"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary %q missing %q", s, want)
		}
	}
}

func TestBoronFreeDeviceSeesNothingAtROTAX(t *testing.T) {
	res, err := RunContext(context.Background(), Config{
		Device:          boosted(device.BoronFree(device.K20()), 400),
		WorkloadName:    "MxM",
		Beam:            spectrum.ROTAX(),
		DurationSeconds: 10,
		RunSeconds:      0.1,
		Seed:            15,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Upsets != 0 {
		t.Errorf("boron-free device upset %d times in a thermal beam", res.Upsets)
	}
	if !math.IsInf(stats_RelWidth(res), 1) && res.SDC > 0 {
		t.Errorf("unexpected SDCs: %d", res.SDC)
	}
}

// stats_RelWidth is a tiny helper keeping the test readable.
func stats_RelWidth(r *Result) float64 {
	if r.SDC == 0 {
		return math.Inf(1)
	}
	return 0
}

func TestUnitsSanity(t *testing.T) {
	// One second at full ChipIR flux on a 1 cm² die ⇒ fluence equals flux.
	d := device.FPGA() // 1 cm²
	res, err := RunContext(context.Background(), Config{
		Device:          d,
		WorkloadName:    "MNIST",
		Beam:            spectrum.ChipIR(),
		DurationSeconds: 1,
		RunSeconds:      1,
		Seed:            17,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(res.Fluence)-float64(spectrum.ChipIR().TotalFlux())) > 1 {
		t.Errorf("1s fluence = %v", res.Fluence)
	}
	_ = units.Fluence(0)
}
