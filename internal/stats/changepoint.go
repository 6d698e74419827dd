package stats

import (
	"errors"
	"math"
)

// ChangePoint describes a detected step change in a count time series, as
// produced by the Tin-II detector when water is placed over it (Fig.
// "turkeypan" of the paper: counts abruptly increase by ~24%).
type ChangePoint struct {
	Index       int     // first sample of the new regime
	MeanBefore  float64 //
	MeanAfter   float64
	RelChange   float64 // (after-before)/before
	Significant bool    // |z| above the detection threshold
	ZScore      float64
}

// DetectStep scans a series for the single most likely mean-shift point by
// maximizing the two-sample z statistic over all split positions (a
// least-squares / CUSUM-equivalent formulation for a single step). minSeg
// is the minimum samples required on each side; threshold is the |z| above
// which the step is flagged significant (5.0 is a robust default for
// multi-day hourly series).
func DetectStep(series []float64, minSeg int, threshold float64) (ChangePoint, error) {
	n := len(series)
	if minSeg < 1 {
		minSeg = 1
	}
	if n < 2*minSeg {
		return ChangePoint{}, errors.New("stats: series too short for change detection")
	}
	// Prefix sums for O(n) sweep.
	prefix := make([]float64, n+1)
	prefix2 := make([]float64, n+1)
	for i, v := range series {
		prefix[i+1] = prefix[i] + v
		prefix2[i+1] = prefix2[i] + v*v
	}
	best := ChangePoint{ZScore: 0, Index: -1}
	for k := minSeg; k <= n-minSeg; k++ {
		n1, n2 := float64(k), float64(n-k)
		m1 := prefix[k] / n1
		m2 := (prefix[n] - prefix[k]) / n2
		v1 := prefix2[k]/n1 - m1*m1
		v2 := (prefix2[n]-prefix2[k])/n2 - m2*m2
		if v1 < 0 {
			v1 = 0
		}
		if v2 < 0 {
			v2 = 0
		}
		se := math.Sqrt(v1/n1 + v2/n2)
		if se == 0 {
			if m1 == m2 {
				continue
			}
			se = 1e-12
		}
		z := (m2 - m1) / se
		if math.Abs(z) > math.Abs(best.ZScore) {
			best = ChangePoint{
				Index:      k,
				MeanBefore: m1,
				MeanAfter:  m2,
				ZScore:     z,
			}
		}
	}
	if best.Index < 0 {
		return ChangePoint{}, errors.New("stats: no candidate change point")
	}
	if best.MeanBefore != 0 {
		best.RelChange = (best.MeanAfter - best.MeanBefore) / best.MeanBefore
	}
	best.Significant = math.Abs(best.ZScore) >= threshold
	return best, nil
}

// MovingAverage returns the centered moving average of the series with the
// given window (clamped at the edges). Used for plotting detector series.
func MovingAverage(series []float64, window int) []float64 {
	if window < 1 {
		window = 1
	}
	out := make([]float64, len(series))
	half := window / 2
	for i := range series {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half
		if hi >= len(series) {
			hi = len(series) - 1
		}
		sum := 0.0
		for j := lo; j <= hi; j++ {
			sum += series[j]
		}
		out[i] = sum / float64(hi-lo+1)
	}
	return out
}
