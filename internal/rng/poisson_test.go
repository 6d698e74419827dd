package rng

import (
	"fmt"
	"math"
	"testing"
)

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

// TestPoissonRunMatchesPoisson pins the branches of PoissonRun that make
// single Poisson draws to a loop of them: no draw at all for a mean ≤ 0,
// and from the λ=30 handoff up one draw per run, with the same leading
// zeros, nonzero draw and stream position, for run limits from none to
// 10⁵. Below 30 PoissonRun draws gaps instead, which
// TestPoissonRunDistribution checks.
func TestPoissonRunMatchesPoisson(t *testing.T) {
	for _, mean := range []float64{-1, 0, 30, 31, 400} {
		hits := 0
		for _, limit := range []int{0, 1, 7, 100_000} {
			hits += checkPoissonRun(t, 7, mean, limit, 40)
		}
		if (hits == 0) != (mean <= 0) {
			t.Errorf("mean=%v: %d nonzero draws; the comparison exercised the wrong path", mean, hits)
		}
	}
}

// poissonRunHistograms drives PoissonRun over runs runs the way a shard
// loop does, its limit cycling through 1, 7, 8192 and every run left. It
// returns the histogram of the per-run counts and that of the gaps of
// empty runs before each interacting run, joined across calls.
func poissonRunHistograms(t *testing.T, s *Stream, mean float64, runs int) (counts, gaps []int64) {
	t.Helper()
	bump := func(h []int64, v int, by int64) []int64 {
		for len(h) <= v {
			h = append(h, 0)
		}
		h[v] += by
		return h
	}
	limits := []int{1, 7, 8192, 0}
	gap := 0
	for call := 0; runs > 0; call++ {
		limit := runs
		if l := limits[call%len(limits)]; l > 0 {
			limit = min(l, runs)
		}
		zeros, n := s.PoissonRun(mean, limit)
		if zeros < 0 || zeros > limit || (zeros < limit) != (n > 0) {
			t.Fatalf("mean=%v limit=%d: PoissonRun = (%d, %d)", mean, limit, zeros, n)
		}
		counts = bump(counts, 0, int64(zeros))
		runs -= zeros
		gap += zeros
		if n > 0 {
			counts = bump(counts, int(n), 1)
			gaps = bump(gaps, gap, 1)
			runs--
			gap = 0
		}
	}
	return counts, gaps
}

// chi2 tests the histogram obs of total draws against pmf: it merges
// per-value bins left to right until each expects at least 10 draws, the
// last one taking the upper tail, and returns χ² and its degrees of
// freedom.
func chi2(obs []int64, total int64, pmf func(v int) float64) (x2 float64, dof int) {
	type bin struct{ o, e float64 }
	var bins []bin
	var cur bin
	cum := 0.0
	for v := 0; ; v++ {
		p := pmf(v)
		cum += p
		cur.e += float64(total) * p
		if v < len(obs) {
			cur.o += float64(obs[v])
		}
		tail := float64(total) * (1 - cum)
		if tail < 10 || v > 1e7 {
			cur.e += max(tail, 0)
			for _, o := range obs[min(v+1, len(obs)):] {
				cur.o += float64(o)
			}
			if n := len(bins); cur.e < 10 && n > 0 {
				bins[n-1].o += cur.o
				bins[n-1].e += cur.e
			} else {
				bins = append(bins, cur)
			}
			break
		}
		if cur.e >= 10 {
			bins = append(bins, cur)
			cur = bin{}
		}
	}
	for _, b := range bins {
		x2 += (b.o - b.e) * (b.o - b.e) / b.e
	}
	return x2, len(bins) - 1
}

// chi2SF is the upper tail P(χ²_k > x), in closed form for integer k.
func chi2SF(x float64, k int) float64 {
	h := x / 2
	if k%2 == 0 {
		sum, term := 0.0, math.Exp(-h)
		for i := 0; i < k/2; i++ {
			if i > 0 {
				term *= h / float64(i)
			}
			sum += term
		}
		return sum
	}
	sum, term := math.Erfc(math.Sqrt(h)), 2*math.Sqrt(h/math.Pi)*math.Exp(-h)
	for j := 1; j <= (k-1)/2; j++ {
		sum += term
		term *= h / (float64(j) + 0.5)
	}
	return sum
}

// TestPoissonRunDistribution checks that the gap draw keeps the physics:
// over 10⁶ runs at each mean, the per-run counts PoissonRun yields are
// Poisson(mean) and the gaps of empty runs before each interacting run
// are Geometric(1−e^-mean), by χ² tests that fail below p = 10⁻⁴.
func TestPoissonRunDistribution(t *testing.T) {
	if got := chi2SF(15.137, 1); math.Abs(got-1e-4) > 1e-6 {
		t.Fatalf("chi2SF(15.137, 1) = %v, want 1e-4", got)
	}
	if got := chi2SF(18.467, 4); math.Abs(got-1e-3) > 1e-5 {
		t.Fatalf("chi2SF(18.467, 4) = %v, want 1e-3", got)
	}
	const runs = 1_000_000
	for i, mean := range []float64{1e-4, 0.05, 2, 29.9} {
		t.Run(fmt.Sprint(mean), func(t *testing.T) {
			t.Parallel()
			counts, gaps := poissonRunHistograms(t, New(uint64(500+i)), mean, runs)
			var interacting int64
			for _, g := range gaps {
				interacting += g
			}
			expNeg := math.Exp(-mean)
			for _, c := range []struct {
				name  string
				obs   []int64
				total int64
				pmf   func(v int) float64
			}{
				{"count", counts, runs, func(v int) float64 {
					lg, _ := math.Lgamma(float64(v) + 1)
					return math.Exp(float64(v)*math.Log(mean) - mean - lg)
				}},
				{"gap", gaps, interacting, func(v int) float64 {
					return -math.Expm1(-mean) * math.Pow(expNeg, float64(v))
				}},
			} {
				x2, dof := chi2(c.obs, c.total, c.pmf)
				if dof < 1 {
					t.Logf("%s: one bin, nothing to test", c.name)
					continue
				}
				p := chi2SF(x2, dof)
				t.Logf("%s: χ² = %.2f on %d dof, p = %.3g", c.name, x2, dof, p)
				if p < 1e-4 {
					t.Errorf("%s histogram is not the mean-%v law: χ² = %.2f on %d dof, p = %.3g", c.name, mean, x2, dof, p)
				}
			}
		})
	}
}
