package detector

import (
	"context"
	"math"
	"testing"

	"neutronsim/internal/rng"
	"neutronsim/internal/stats"
)

func newDetector(t *testing.T, seed uint64) *Detector {
	t.Helper()
	d, err := New(Config{}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}, nil); err == nil {
		t.Error("nil stream accepted")
	}
}

func TestEfficiencyPlausible(t *testing.T) {
	d := newDetector(t, 1)
	if d.Efficiency < 0.3 || d.Efficiency > 0.99 {
		t.Errorf("4 atm ³He tube efficiency = %v, want high", d.Efficiency)
	}
	if d.ShieldLeak > 0.01 {
		t.Errorf("Cd shield leaks %v of thermals, want ~0", d.ShieldLeak)
	}
}

func TestDefaults(t *testing.T) {
	if got := (Config{}).withDefaults().EfficiencySamples; got != 20000 {
		t.Errorf("default efficiency budget = %d", got)
	}
	if math.Abs(FaceAreaCm2-76.2) > 0.01 {
		t.Errorf("face area = %v", FaceAreaCm2)
	}
}

func TestCountValidation(t *testing.T) {
	d := newDetector(t, 3)
	s := rng.New(4)
	if _, err := d.Count(0, func(int) float64 { return 1 }, s); err == nil {
		t.Error("zero hours accepted")
	}
	if _, err := d.Count(10, nil, s); err == nil {
		t.Error("nil schedule accepted")
	}
	if _, err := d.Count(10, func(int) float64 { return -2 }, s); err == nil {
		t.Error("negative (non-Gap) flux accepted")
	}
}

func TestShieldedTubeSeesOnlyBackground(t *testing.T) {
	d := newDetector(t, 5)
	s := rng.New(6)
	series, err := d.Count(200, func(int) float64 { return 5 }, s)
	if err != nil {
		t.Fatal(err)
	}
	var bare, shielded float64
	for h := 0; h < series.Hours(); h++ {
		bare += series.Bare[h]
		shielded += series.Shielded[h]
	}
	bare /= 200
	shielded /= 200
	if math.Abs(shielded-120) > 5 {
		t.Errorf("shielded mean = %v, want ~120 (background only)", shielded)
	}
	if bare <= shielded+100 {
		t.Errorf("bare tube (%v) should far exceed shielded (%v)", bare, shielded)
	}
}

func TestThermalEstimateTracksFlux(t *testing.T) {
	d := newDetector(t, 7)
	s := rng.New(8)
	series, err := d.Count(500, func(int) float64 { return 5 }, s)
	if err != nil {
		t.Fatal(err)
	}
	mean := 0.0
	for _, v := range series.ThermalEstimate {
		mean += v
	}
	mean /= float64(len(series.ThermalEstimate))
	want := 5 * FaceAreaCm2 * d.Efficiency
	if math.Abs(mean-want)/want > 0.1 {
		t.Errorf("thermal estimate mean = %v, want ~%v", mean, want)
	}
}

func TestStepSchedule(t *testing.T) {
	sched := StepSchedule(10, 0.24, 100)
	if sched(99) != 10 {
		t.Error("pre-change flux wrong")
	}
	if math.Abs(sched(100)-12.4) > 1e-12 {
		t.Error("post-change flux wrong")
	}
}

func TestWaterExperimentReproducesPaper(t *testing.T) {
	d := newDetector(t, 9)
	res, err := RunWaterExperimentContext(context.Background(), WaterExperimentConfig{Detector: d}, rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	// The transport-computed enhancement should be near the paper's 24%.
	if res.Enhancement < 0.15 || res.Enhancement > 0.35 {
		t.Errorf("water enhancement = %v, paper reports ~0.24", res.Enhancement)
	}
	if !res.Change.Significant {
		t.Fatalf("step not detected: z=%v", res.Change.ZScore)
	}
	// Detected step location within a day of the true water placement.
	if diff := res.Change.Index - res.WaterHour; diff < -24 || diff > 24 {
		t.Errorf("step detected at hour %d, water placed at %d", res.Change.Index, res.WaterHour)
	}
	// Detected magnitude should match the injected enhancement.
	if math.Abs(res.Change.RelChange-res.Enhancement) > 0.08 {
		t.Errorf("detected change %v vs enhancement %v", res.Change.RelChange, res.Enhancement)
	}
}

func TestWaterExperimentValidation(t *testing.T) {
	if _, err := RunWaterExperimentContext(context.Background(), WaterExperimentConfig{}, rng.New(1)); err == nil {
		t.Error("nil detector accepted")
	}
	d := newDetector(t, 11)
	if _, err := RunWaterExperimentContext(context.Background(), WaterExperimentConfig{Detector: d}, nil); err == nil {
		t.Error("nil stream accepted")
	}
}

func TestCountDeterministic(t *testing.T) {
	d := newDetector(t, 15)
	mk := func() Series {
		s, err := d.Count(50, func(int) float64 { return 5 }, rng.New(16))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := mk(), mk()
	for h := range a.Bare {
		if a.Bare[h] != b.Bare[h] || a.Shielded[h] != b.Shielded[h] {
			t.Fatal("non-deterministic counting")
		}
	}
}

func TestGapsRecordedAndInterpolated(t *testing.T) {
	d := newDetector(t, 40)
	s := rng.New(41)
	// Hours 10-19 are a DAQ outage.
	series, err := d.Count(100, func(h int) float64 {
		if h >= 10 && h < 20 {
			return Gap
		}
		return 5
	}, s)
	if err != nil {
		t.Fatal(err)
	}
	gaps := 0
	for _, v := range series.ThermalEstimate {
		if math.IsNaN(v) {
			gaps++
		}
	}
	if gaps != 10 {
		t.Errorf("gap count = %d, want 10", gaps)
	}
	if !math.IsNaN(series.Bare[15]) || !math.IsNaN(series.ThermalEstimate[15]) {
		t.Error("gapped hour not NaN")
	}
	interp := series.Interpolated()
	for h, v := range interp {
		if math.IsNaN(v) {
			t.Fatalf("interpolated series still has NaN at %d", h)
		}
	}
	// Interpolated values sit between the neighbors' scale.
	if interp[15] < 100 || interp[15] > 400 {
		t.Errorf("interpolated value %v implausible", interp[15])
	}
}

func TestInterpolatedEdgeGaps(t *testing.T) {
	s := Series{ThermalEstimate: []float64{math.NaN(), 5, math.NaN()}}
	got := s.Interpolated()
	if got[0] != 5 || got[2] != 5 {
		t.Errorf("edge gaps should hold nearest value: %v", got)
	}
	all := Series{ThermalEstimate: []float64{math.NaN(), math.NaN()}}
	for _, v := range all.Interpolated() {
		if v != 0 {
			t.Error("fully gapped series should fill with zeros")
		}
	}
}

func TestWaterExperimentSurvivesGaps(t *testing.T) {
	d := newDetector(t, 42)
	s := rng.New(43)
	// Run the experiment manually with a gap in the middle of the
	// background period.
	enh := 0.24
	waterHour := 9 * 24
	series, err := d.Count(14*24, func(h int) float64 {
		if h >= 100 && h < 124 {
			return Gap
		}
		if h >= waterHour {
			return 5 * (1 + enh)
		}
		return 5
	}, s)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := stats.DetectStep(series.Interpolated(), 24, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !cp.Significant {
		t.Fatalf("step not detected through the gap: %+v", cp)
	}
	if diff := cp.Index - waterHour; diff < -24 || diff > 24 {
		t.Errorf("step at %d, want ~%d", cp.Index, waterHour)
	}
}
