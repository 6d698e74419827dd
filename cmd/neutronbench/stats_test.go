package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	var hundred []float64
	for i := 100; i >= 1; i-- {
		hundred = append(hundred, float64(i))
	}
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{hundred, 0.50, 50},
		{hundred, 0.90, 90},
		{hundred, 0.99, 99},
		{hundred, 0.001, 1},
		{[]float64{3, 1, 2}, 0.50, 2},
		{[]float64{3, 1, 2}, 0.90, 3},
		{[]float64{7}, 0.99, 7},
	} {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(%d samples, %v) = %v, want %v", len(c.xs), c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("percentile of no samples = %v, want NaN", got)
	}
	if hundred[0] != 100 {
		t.Error("percentile reordered its input")
	}
}

func TestSupportedNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 0.90, true}, // rank 90, ten beyond
		{99, 0.90, false}, // rank 90, nine beyond
		{1000, 0.99, true},
		{999, 0.99, false},
		{20, 0.50, true},
		{19, 0.50, false},
		{0, 0.50, false},
	} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestFastStretchKeepsTheBusiestSubWindows(t *testing.T) {
	// Two 5 s segments: 20 completions/s at 50 ms, then 40/s at 25 ms.
	tl := newTally()
	start := time.Unix(1000, 0)
	for _, sg := range []struct {
		every time.Duration
		ms    float64
	}{{50 * time.Millisecond, 50}, {25 * time.Millisecond, 25}} {
		tl.segs = append(tl.segs, segment{start: start, length: 5 * time.Second})
		for at := start.Add(sg.every); !at.After(start.Add(5 * time.Second)); at = at.Add(sg.every) {
			tl.doneAt = append(tl.doneAt, at)
			tl.latMs = append(tl.latMs, sg.ms)
		}
		start = start.Add(6 * time.Second)
	}
	kept, secs := fastStretch(tl)
	if len(kept) < keepSamples {
		t.Fatalf("kept %d samples, want at least %d", len(kept), keepSamples)
	}
	for _, x := range kept {
		if x != 25 {
			t.Fatalf("kept a request from the slow segment (%v ms)", x)
		}
	}
	if rps := float64(len(kept)) / secs; math.Abs(rps-40) > 2 {
		t.Errorf("throughput over kept sub-windows = %v, want 40", rps)
	}
}
