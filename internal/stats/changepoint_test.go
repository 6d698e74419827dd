package stats

import (
	"math"
	"testing"

	"neutronsim/internal/rng"
)

func stepSeries(n1, n2 int, m1, m2 float64, seed uint64) []float64 {
	s := rng.New(seed)
	out := make([]float64, 0, n1+n2)
	for i := 0; i < n1; i++ {
		out = append(out, float64(s.Poisson(m1)))
	}
	for i := 0; i < n2; i++ {
		out = append(out, float64(s.Poisson(m2)))
	}
	return out
}

func TestDetectStepFindsWaterLikeStep(t *testing.T) {
	// Tin-II-like series: ~200 counts/h baseline, +24% after water.
	series := stepSeries(168, 168, 200, 248, 1)
	cp, err := DetectStep(series, 12, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !cp.Significant {
		t.Fatalf("24%% step on 200 counts/h over a week should be significant: z=%v", cp.ZScore)
	}
	if cp.Index < 160 || cp.Index > 176 {
		t.Errorf("change point at %d, want ~168", cp.Index)
	}
	if math.Abs(cp.RelChange-0.24) > 0.05 {
		t.Errorf("relative change = %v, want ~0.24", cp.RelChange)
	}
}

func TestDetectStepNoChange(t *testing.T) {
	series := stepSeries(300, 0, 200, 0, 2)
	cp, err := DetectStep(series, 12, 5)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Significant {
		t.Errorf("flat series flagged significant: z=%v rel=%v", cp.ZScore, cp.RelChange)
	}
}

func TestDetectStepShortSeries(t *testing.T) {
	if _, err := DetectStep([]float64{1, 2}, 5, 5); err == nil {
		t.Error("expected error for short series")
	}
}

func TestDetectStepDownward(t *testing.T) {
	series := stepSeries(100, 100, 300, 200, 3)
	cp, err := DetectStep(series, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !cp.Significant || cp.RelChange >= 0 {
		t.Errorf("downward step missed: %+v", cp)
	}
}

func TestMovingAverageFlat(t *testing.T) {
	series := []float64{5, 5, 5, 5, 5}
	ma := MovingAverage(series, 3)
	for i, v := range ma {
		if v != 5 {
			t.Errorf("ma[%d] = %v", i, v)
		}
	}
}

func TestMovingAverageSmooths(t *testing.T) {
	series := stepSeries(100, 0, 100, 0, 6)
	ma := MovingAverage(series, 25)
	sRaw, _ := Summarize(series)
	sMa, _ := Summarize(ma)
	if sMa.Std >= sRaw.Std {
		t.Errorf("moving average did not reduce variance: %v >= %v", sMa.Std, sRaw.Std)
	}
}

func TestMovingAverageWindowOne(t *testing.T) {
	series := []float64{1, 2, 3}
	ma := MovingAverage(series, 1)
	for i := range series {
		if ma[i] != series[i] {
			t.Errorf("window-1 moving average changed data at %d", i)
		}
	}
}
