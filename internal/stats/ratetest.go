package stats

import (
	"errors"
	"math"
)

// RateComparison is the result of comparing two Poisson rates, used by the
// fleet log analysis to decide whether nodes near water-cooling loops
// really fail more often than dry-aisle nodes.
type RateComparison struct {
	// RateA and RateB are events per unit exposure.
	RateA, RateB float64
	// Ratio is RateB / RateA.
	Ratio float64
	// ZScore is the normal test statistic for H0: equal rates
	// (conditional binomial formulation).
	ZScore float64
	// PValue is the two-sided p-value.
	PValue float64
	// Significant is PValue < 0.05.
	Significant bool
}

// CompareRates tests whether two Poisson processes have different rates,
// given event counts and exposures. It uses the conditional test: given
// kA+kB total events, kB ~ Binomial(kA+kB, expB/(expA+expB)) under H0.
func CompareRates(eventsA int64, exposureA float64, eventsB int64, exposureB float64) (RateComparison, error) {
	if exposureA <= 0 || exposureB <= 0 {
		return RateComparison{}, errors.New("stats: non-positive exposure")
	}
	if eventsA < 0 || eventsB < 0 {
		return RateComparison{}, errors.New("stats: negative event count")
	}
	rc := RateComparison{
		RateA: float64(eventsA) / exposureA,
		RateB: float64(eventsB) / exposureB,
	}
	if rc.RateA > 0 {
		rc.Ratio = rc.RateB / rc.RateA
	} else if rc.RateB > 0 {
		rc.Ratio = math.Inf(1)
	} else {
		rc.Ratio = math.NaN()
	}
	total := eventsA + eventsB
	if total == 0 {
		rc.PValue = 1
		return rc, nil
	}
	p0 := exposureB / (exposureA + exposureB)
	mean := float64(total) * p0
	sd := math.Sqrt(float64(total) * p0 * (1 - p0))
	if sd == 0 {
		rc.PValue = 1
		return rc, nil
	}
	// Continuity-corrected normal approximation to the binomial.
	diff := float64(eventsB) - mean
	correction := 0.5
	if math.Abs(diff) < correction {
		correction = math.Abs(diff)
	}
	z := (diff - math.Copysign(correction, diff)) / sd
	rc.ZScore = z
	rc.PValue = 2 * normalSF(math.Abs(z))
	if rc.PValue > 1 {
		rc.PValue = 1
	}
	rc.Significant = rc.PValue < 0.05
	return rc, nil
}

// normalSF is the standard normal survival function.
func normalSF(z float64) float64 {
	return 0.5 * math.Erfc(z/math.Sqrt2)
}
