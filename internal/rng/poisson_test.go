package rng

import (
	"math"
	"testing"
)

// TestFillMatchesSequentialDraws pins Fill as the batch equivalent of
// successive Uint64 calls.
func TestFillMatchesSequentialDraws(t *testing.T) {
	s, ref := New(99), New(99)
	buf := make([]uint64, 300)
	s.Fill(buf)
	for i, got := range buf {
		if want := ref.Uint64(); got != want {
			t.Fatalf("Fill[%d] = %#x, sequential draw = %#x", i, got, want)
		}
	}
	// The stream must continue seamlessly after the batch.
	for i := 0; i < 10; i++ {
		if got, want := s.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("post-Fill draw %d mismatch", i)
		}
	}
}

// TestPoissonExpMatchesPoisson pins the dedup contract: PoissonExp with a
// correctly cached exp(-mean) consumes the stream draw-for-draw exactly
// like Poisson, in the Knuth regime, at the λ=30 handoff, and above it.
func TestPoissonExpMatchesPoisson(t *testing.T) {
	for _, mean := range []float64{0, 1e-6, 0.05, 2, 29.999, 30, 31, 400} {
		a, b := New(1234), New(1234)
		expNeg := math.Exp(-mean)
		for i := 0; i < 2000; i++ {
			got := a.PoissonExp(mean, expNeg)
			want := b.Poisson(mean)
			if got != want {
				t.Fatalf("mean=%v draw %d: PoissonExp=%d Poisson=%d", mean, i, got, want)
			}
		}
		// Both streams must be in identical states afterwards.
		if a.Uint64() != b.Uint64() {
			t.Fatalf("mean=%v: streams diverged after equal draws", mean)
		}
	}
}

// poissonRunRef is PoissonRun spelled out as single Poisson draws.
func poissonRunRef(s *Stream, mean float64, limit int) (int, int64) {
	zeros := 0
	for ; zeros < limit; zeros++ {
		if n := s.Poisson(mean); n != 0 {
			return zeros, n
		}
	}
	return zeros, 0
}

// checkPoissonRun makes calls successive PoissonRun calls and the same
// calls of the single-draw reference on two streams from seed, and
// requires the same zeros, the same nonzero draw and the same stream
// position after every call. It returns the number of nonzero draws seen.
func checkPoissonRun(t *testing.T, seed uint64, mean float64, limit, calls int) int {
	t.Helper()
	s, ref := New(seed), New(seed)
	hits := 0
	for i := range calls {
		zeros, n := s.PoissonRun(mean, limit)
		wantZeros, wantN := poissonRunRef(ref, mean, limit)
		if zeros != wantZeros || n != wantN {
			t.Fatalf("mean=%v limit=%d call %d: PoissonRun = (%d, %d), single draws give (%d, %d)",
				mean, limit, i, zeros, n, wantZeros, wantN)
		}
		if got, want := s.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("mean=%v limit=%d call %d: stream left elsewhere than by single draws", mean, limit, i)
		}
		if n != 0 {
			hits++
		}
	}
	return hits
}

// TestPoissonRunMatchesPoisson pins the empty-run scan of the beam run
// loop to a loop of single Poisson draws: the leading zeros, the nonzero
// draw that ends the run and the stream position after it, in the
// integer-compare regime (including a mean whose e^-mean rounds to 1), at
// the λ=30 handoff and above it, and for run limits from none to 10⁵.
func TestPoissonRunMatchesPoisson(t *testing.T) {
	if math.Exp(-1e-17) != 1 {
		t.Fatal("e^-1e-17 no longer rounds to 1; pick a smaller mean for that case")
	}
	for _, mean := range []float64{0, 1e-17, 1e-6, 0.0032, 0.05, 2, 29.999, 30, 31, 400} {
		hits := 0
		for _, limit := range []int{0, 1, 7, 100_000} {
			hits += checkPoissonRun(t, 7, mean, limit, 40)
		}
		if (hits == 0) != (math.Exp(-mean) == 1) {
			t.Errorf("mean=%v: %d nonzero draws; the comparison exercised the wrong path", mean, hits)
		}
	}
}
