package stats

import (
	"math"
	"testing"

	"neutronsim/internal/rng"
)

func TestCompareRatesValidation(t *testing.T) {
	if _, err := CompareRates(1, 0, 1, 1); err == nil {
		t.Error("zero exposure accepted")
	}
	if _, err := CompareRates(-1, 1, 1, 1); err == nil {
		t.Error("negative count accepted")
	}
}

func TestCompareRatesEqual(t *testing.T) {
	rc, err := CompareRates(100, 1000, 100, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Significant {
		t.Errorf("identical rates flagged significant: %+v", rc)
	}
	if math.Abs(rc.Ratio-1) > 1e-12 {
		t.Errorf("ratio = %v", rc.Ratio)
	}
}

func TestCompareRatesClearDifference(t *testing.T) {
	// 20% rate increase with large counts: must be detected.
	rc, err := CompareRates(1000, 1000, 1200, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !rc.Significant {
		t.Errorf("20%% shift on 1000+1200 events not significant: p=%v", rc.PValue)
	}
	if math.Abs(rc.Ratio-1.2) > 1e-9 {
		t.Errorf("ratio = %v", rc.Ratio)
	}
}

func TestCompareRatesSmallCountsNotSignificant(t *testing.T) {
	rc, err := CompareRates(2, 100, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Significant {
		t.Errorf("tiny counts flagged significant: p=%v", rc.PValue)
	}
}

func TestCompareRatesZeroEvents(t *testing.T) {
	rc, err := CompareRates(0, 100, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if rc.PValue != 1 || !math.IsNaN(rc.Ratio) {
		t.Errorf("zero-event comparison: %+v", rc)
	}
	rc, err = CompareRates(0, 100, 5, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(rc.Ratio, 1) {
		t.Errorf("ratio = %v, want +Inf", rc.Ratio)
	}
}

func TestCompareRatesExposureNormalization(t *testing.T) {
	// Same underlying rate with different exposures must not trigger.
	rc, err := CompareRates(100, 1000, 300, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Significant {
		t.Errorf("equal rates at different exposures flagged: %+v", rc)
	}
	if math.Abs(rc.Ratio-1) > 1e-9 {
		t.Errorf("ratio = %v", rc.Ratio)
	}
}

// TestCompareRatesFalsePositiveRate: under H0 the test should reject at
// roughly the nominal 5% level.
func TestCompareRatesFalsePositiveRate(t *testing.T) {
	s := rng.New(1)
	const trials = 2000
	rejections := 0
	for i := 0; i < trials; i++ {
		a := s.Poisson(50)
		b := s.Poisson(50)
		rc, err := CompareRates(a, 1, b, 1)
		if err != nil {
			t.Fatal(err)
		}
		if rc.Significant {
			rejections++
		}
	}
	rate := float64(rejections) / trials
	if rate > 0.08 {
		t.Errorf("false-positive rate = %v, want <= ~0.05", rate)
	}
}

// TestCompareRatesPower: a 24% shift (the water effect) on a week of
// detector-scale counts must be detectable.
func TestCompareRatesPower(t *testing.T) {
	s := rng.New(2)
	const trials = 200
	detected := 0
	for i := 0; i < trials; i++ {
		// A week of hourly ~250-count observations per group.
		var a, b int64
		for h := 0; h < 168; h++ {
			a += s.Poisson(250)
			b += s.Poisson(250 * 1.24)
		}
		rc, err := CompareRates(a, 168, b, 168)
		if err != nil {
			t.Fatal(err)
		}
		if rc.Significant && rc.Ratio > 1 {
			detected++
		}
	}
	if detected < trials*95/100 {
		t.Errorf("power too low: %d/%d", detected, trials)
	}
}

func TestNormalSF(t *testing.T) {
	if got := normalSF(0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("SF(0) = %v", got)
	}
	if got := normalSF(1.96); math.Abs(got-0.025) > 1e-3 {
		t.Errorf("SF(1.96) = %v", got)
	}
}
