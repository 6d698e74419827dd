package rng

import (
	"errors"
	"fmt"
	"math"
)

// AliasTable draws from a fixed discrete distribution in O(1) time using
// Walker's alias method (Vose's linear-time construction). A draw costs one
// uniform variate and one table read, independent of the number of
// outcomes — the constant-time replacement for linear scans and
// binary searches over cumulative-weight tables in sampling hot loops.
//
// The table is immutable after construction and safe for concurrent Draw
// calls (each caller supplies its own *Stream).
type AliasTable struct {
	// prob[i] is the probability that slot i keeps its own outcome; with
	// probability 1-prob[i] the draw is redirected to alias[i]. Every slot
	// carries exactly 1/n of the total mass, which is what makes the draw
	// constant-time.
	prob  []float64
	alias []int32
}

// NewAliasTable builds an alias table over the given outcome weights.
// Weights must be finite and non-negative with a positive total;
// zero-weight outcomes are accepted and are simply never drawn.
func NewAliasTable(weights []float64) (*AliasTable, error) {
	n := len(weights)
	if n == 0 {
		return nil, errors.New("rng: alias table needs at least one weight")
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("rng: alias table size %d exceeds int32 indices", n)
	}
	// Kahan-compensated total: weight tables routinely mix magnitudes
	// spanning many decades (e.g. interaction probabilities with long
	// zero or near-zero prefixes), where a naive sum loses the small
	// contributions entirely.
	var sum, comp float64
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("rng: alias weight %d must be finite and non-negative, got %v", i, w)
		}
		y := w - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	if sum <= 0 {
		return nil, errors.New("rng: alias weights must have a positive total")
	}
	t := &AliasTable{
		prob:  append([]float64(nil), weights...),
		alias: make([]int32, n),
	}
	Vose(t.prob, t.alias, make([]int32, n), sum)
	return t, nil
}

// Vose is the repo's one alias-table construction (Vose's variant of
// Walker's method). prob holds n weights whose Kahan-compensated total
// sum the caller has checked to be positive; Vose rescales them in place
// into acceptance probabilities and writes each slot's alias, so slot i
// keeps outcome i with probability prob[i] and yields alias[i] otherwise.
// work is scratch of length n, and n must not exceed math.MaxInt32.
// Every weight is scaled to mean 1, then an under-full slot is repeatedly
// paired with an over-full one, which fixes the under-full slot and tops
// it up from the over-full outcome.
func Vose(prob []float64, alias, work []int32, sum float64) {
	// work holds both worklists: under-full slots grow up from the front,
	// over-full ones down from the back. Every pairing pops one of each
	// and pushes one back, so together they never exceed n.
	n := len(prob)
	small, large := 0, n
	push := func(i int32) {
		if prob[i] < 1 {
			work[small] = i
			small++
		} else {
			large--
			work[large] = i
		}
	}
	scale := float64(n) / sum
	for i := range prob {
		prob[i] *= scale
		push(int32(i))
	}
	for small > 0 && large < n {
		small--
		s, l := work[small], work[large]
		large++
		alias[s] = l
		prob[l] = (prob[l] + prob[s]) - 1
		push(l)
	}
	// Leftovers are exactly-full slots up to rounding; both worklists can
	// be non-empty here only through floating-point drift.
	for _, rest := range [][]int32{work[:small], work[large:]} {
		for _, i := range rest {
			prob[i], alias[i] = 1, i
		}
	}
}

// Draw returns an outcome index distributed according to the construction
// weights. It consumes exactly one uniform variate: the integer part of
// u·n picks the slot and the fractional part decides between the slot's
// own outcome and its alias.
func (t *AliasTable) Draw(s *Stream) int {
	n := len(t.prob)
	u := s.Float64() * float64(n)
	i := int(u)
	if i >= n {
		// u < 1, but u·n can round up to exactly n for large n.
		i = n - 1
	}
	if u-float64(i) < t.prob[i] {
		return i
	}
	return int(t.alias[i])
}
