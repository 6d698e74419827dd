package main

import "testing"

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name     string
		old, cur []float64
		lower    bool
		want     string
	}{
		{"faster latency", steady, scale(steady, 0.8), true, "improved"},
		{"slower latency", steady, scale(steady, 1.2), true, "regressed"},
		{"within bound", steady, scale(steady, 1.05), true, "no change"},
		{"lower throughput", steady, scale(steady, 0.8), false, "regressed"},
		{"spread over bound", steady, []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}, true, "unresolved"},
		{"eight wins in ten", steady, []float64{80, 80, 80, 80, 80, 80, 80, 80, 120, 120}, true, "no change"},
	} {
		if got := judge(c.old, c.cur, c.lower, 0.1).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
