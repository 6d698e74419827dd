package stats

import (
	"errors"
	"math"
)

// Weighted is a likelihood-weighted event tally for importance-sampled
// campaigns: each event carries the exact/biased probability ratio of the
// draws that produced it, so the weighted sum is an unbiased estimate of
// the count an exact (analog) campaign would have produced. The tally
// keeps the sum of weights and the sum of squared weights — enough to
// recover the estimate, its effective sample size, and a confidence
// interval — with Kahan compensation on both, because biased campaigns
// mix many tiny weights with few large ones.
//
// The zero value is an empty tally ready for Add. Weighted is a value
// type: copy it freely, Merge shard tallies in a fixed order, and call
// Finalize once before publishing (Finalize folds the compensation terms
// into the sums, so published tallies carry none).
type Weighted struct {
	// N counts events as drawn in the biased campaign (the raw,
	// pre-reweighting count).
	N int64 `json:"n"`
	// SumW is the compensated sum of event weights — the unbiased
	// estimate of the exact-campaign count.
	SumW float64 `json:"sum_w"`
	// SumW2 is the compensated sum of squared event weights, the
	// ingredient of the effective sample size and the variance estimate.
	SumW2 float64 `json:"sum_w2"`

	// CW and CW2 are the Kahan compensation terms of SumW and SumW2. They
	// serialize too, so an un-finalized shard tally survives the
	// distributed shard protocol bit for bit; Finalize folds them into the
	// sums and zeroes them, so a published tally omits them. Go's JSON
	// encoding round-trips float64 values exactly.
	CW  float64 `json:"cw,omitempty"`
	CW2 float64 `json:"cw2,omitempty"`
}

// Add records one event with likelihood weight w.
func (t *Weighted) Add(w float64) {
	t.N++
	t.addW(w)
	t.addW2(w * w)
}

// AddUnits records k events of weight 1 in one step: the same N, and the
// same sums up to rounding, as k calls of Add(1).
func (t *Weighted) AddUnits(k int64) {
	t.N += k
	t.addW(float64(k))
	t.addW2(float64(k))
}

func (t *Weighted) addW(v float64) {
	y := v - t.CW
	s := t.SumW + y
	t.CW = (s - t.SumW) - y
	t.SumW = s
}

func (t *Weighted) addW2(v float64) {
	y := v - t.CW2
	s := t.SumW2 + y
	t.CW2 = (s - t.SumW2) - y
	t.SumW2 = s
}

// Merge folds another tally into t. Merging is deterministic for a fixed
// merge order — the shard merge in beam runs in shard order, which is how
// the engine's bit-identical-across-worker-counts invariant extends to
// weighted results. Kahan sums are not bit-associative, so re-splitting
// the same events into different shard boundaries reproduces the total
// only to rounding (the property tests bound it near 1 ulp).
func (t *Weighted) Merge(o Weighted) {
	t.N += o.N
	t.addW(o.SumW)
	t.addW(o.CW)
	t.addW2(o.SumW2)
	t.addW2(o.CW2)
}

// Finalize folds the compensation terms into the exported sums and clears
// them. Call once, after the last Add/Merge, before publishing the tally.
func (t *Weighted) Finalize() {
	t.SumW += t.CW
	t.SumW2 += t.CW2
	t.CW, t.CW2 = 0, 0
}

// Sum returns the compensated weighted event count.
func (t Weighted) Sum() float64 { return t.SumW + t.CW }

// SumSquares returns the compensated sum of squared weights.
func (t Weighted) SumSquares() float64 { return t.SumW2 + t.CW2 }

// ESS is the Kish effective sample size (Σw)²/Σw², the number of
// equal-weight events carrying the same statistical information as the
// tally. It is the quantity that gates every CI claim a biased campaign
// makes: a weighted interval is only as good as its ESS, never as good as
// its raw N. ESS ∈ (0, N] for any tally with at least one positive-weight
// event, and 0 for an empty tally.
func (t Weighted) ESS() float64 {
	s, s2 := t.Sum(), t.SumSquares()
	if t.N == 0 || s2 <= 0 {
		return 0
	}
	return s * s / s2
}

// ErrNoWeight is returned when a weighted rate estimate is requested from
// a tally whose interval cannot be formed (negative weighted sum).
var ErrNoWeight = errors.New("stats: negative weighted sum")

// EstimateWeightedRate converts a weighted event tally over an exposure
// into a rate with a 95% interval. The interval treats the tally as an
// equivalent Poisson experiment that observed ESS equal-weight events,
// each worth Sum/ESS: the Garwood bounds are computed at the (fractional)
// effective count and scaled back by the mean weight. With unit weights
// this reduces bit-for-bit to EstimateRate — the zero-bias identity the
// equivalence suite pins.
func EstimateWeightedRate(t Weighted, exposure float64) (RateEstimate, error) {
	if exposure <= 0 {
		return RateEstimate{}, errors.New("stats: non-positive exposure")
	}
	sum := t.Sum()
	if sum < 0 {
		return RateEstimate{}, ErrNoWeight
	}
	ess := t.ESS()
	// Mean weight of the equivalent equal-weight events. With no events
	// there is nothing to scale; keep 1 so the zero-count upper bound
	// stays the exact-campaign Garwood bound.
	scale := 1.0
	if ess > 0 {
		scale = sum / ess
	}
	lower, upper := PoissonBoundsFloat(ess, 0.95)
	return RateEstimate{
		Events:   t.N,
		Exposure: exposure,
		Rate:     sum / exposure,
		Lower:    lower * scale / exposure,
		Upper:    upper * scale / exposure,
	}, nil
}

// PoissonBoundsFloat computes the Garwood two-sided bounds for a Poisson
// mean at a possibly fractional observed count — fractional counts arise
// as effective sample sizes of weighted tallies. At integer counts it is
// exactly the arithmetic of PoissonConfidence.
func PoissonBoundsFloat(count, confidence float64) (lower, upper float64) {
	if confidence <= 0 || confidence >= 1 {
		confidence = 0.95
	}
	if math.IsNaN(count) || count < 0 {
		return math.NaN(), math.NaN()
	}
	alpha := 1 - confidence
	if count > 0 {
		lower = chiSquaredQuantile(alpha/2, 2*count) / 2
	}
	upper = chiSquaredQuantile(1-alpha/2, 2*count+2) / 2
	return lower, upper
}
