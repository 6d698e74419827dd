package rng

import (
	"math"
	"testing"
)

func TestAliasTableRejectsBadWeights(t *testing.T) {
	cases := []struct {
		name    string
		weights []float64
	}{
		{"empty", nil},
		{"negative", []float64{1, -0.5}},
		{"nan", []float64{1, math.NaN()}},
		{"inf", []float64{math.Inf(1)}},
		{"all zero", []float64{0, 0, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewAliasTable(tc.weights); err == nil {
				t.Fatalf("NewAliasTable(%v) succeeded, want error", tc.weights)
			}
		})
	}
}

func TestAliasTableSingleOutcome(t *testing.T) {
	at, err := NewAliasTable([]float64{3.7})
	if err != nil {
		t.Fatal(err)
	}
	s := New(1)
	for i := 0; i < 100; i++ {
		if got := at.Draw(s); got != 0 {
			t.Fatalf("Draw = %d, want 0", got)
		}
	}
}

// TestAliasTableZeroWeightNeverDrawn: zero-weight outcomes are legal table
// entries but must never be produced.
func TestAliasTableZeroWeightNeverDrawn(t *testing.T) {
	at, err := NewAliasTable([]float64{0, 1, 0, 2, 0})
	if err != nil {
		t.Fatal(err)
	}
	s := New(2)
	for i := 0; i < 50000; i++ {
		switch at.Draw(s) {
		case 1, 3:
		default:
			t.Fatal("drew a zero-weight outcome")
		}
	}
}

// TestAliasTableExtremeDynamicRange covers weights spanning 1e-12…1e12: the
// heavy outcome must dominate and construction must not overflow or lose
// the table's invariants.
func TestAliasTableExtremeDynamicRange(t *testing.T) {
	at, err := NewAliasTable([]float64{1e-12, 1, 1e12})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(at.prob); i++ {
		p, a := at.prob[i], int(at.alias[i])
		if math.IsNaN(p) || p < 0 || p > 1 {
			t.Fatalf("slot %d prob = %v", i, p)
		}
		if a < 0 || a >= len(at.prob) {
			t.Fatalf("slot %d alias = %d", i, a)
		}
	}
	s := New(3)
	const n = 200000
	counts := [3]int{}
	for i := 0; i < n; i++ {
		counts[at.Draw(s)]++
	}
	// P(outcome 2) = 1e12/(1e12+1+1e-12): all but ~1e-12 of the mass.
	if counts[2] < n-10 {
		t.Fatalf("heavy outcome drawn %d/%d times", counts[2], n)
	}
	if counts[0] > 0 {
		t.Fatalf("1e-24-probability outcome drawn %d times", counts[0])
	}
}

// TestAliasTableDistribution checks the drawn frequencies against the
// construction weights within 4-sigma binomial tolerances.
func TestAliasTableDistribution(t *testing.T) {
	weights := []float64{1, 2, 3, 4, 0.5}
	at, err := NewAliasTable(weights)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	s := New(4)
	const n = 1000000
	counts := make([]int, len(weights))
	for i := 0; i < n; i++ {
		counts[at.Draw(s)]++
	}
	for i, w := range weights {
		p := w / total
		got := float64(counts[i]) / n
		sigma := math.Sqrt(p * (1 - p) / n)
		if math.Abs(got-p) > 4*sigma {
			t.Errorf("outcome %d frequency %v, want %v ± %v", i, got, p, 4*sigma)
		}
	}
}

// TestAliasTableMassConservation: summing each outcome's retained and
// redirected mass over the whole table must reconstruct the input
// probabilities — the structural invariant of a correct alias table.
func TestAliasTableMassConservation(t *testing.T) {
	weights := []float64{0.1, 7, 2.5, 1e-6, 4, 0, 12}
	at, err := NewAliasTable(weights)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	n := len(at.prob)
	mass := make([]float64, n)
	for i := 0; i < n; i++ {
		p, a := at.prob[i], int(at.alias[i])
		mass[i] += p / float64(n)
		mass[a] += (1 - p) / float64(n)
	}
	for i, w := range weights {
		want := w / total
		if math.Abs(mass[i]-want) > 1e-12 {
			t.Errorf("outcome %d reconstructed mass %v, want %v", i, mass[i], want)
		}
	}
}

func BenchmarkAliasTableDraw(b *testing.B) {
	weights := make([]float64, 1024)
	for i := range weights {
		weights[i] = float64(i%17) + 0.1
	}
	at, err := NewAliasTable(weights)
	if err != nil {
		b.Fatal(err)
	}
	s := New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = at.Draw(s)
	}
}
