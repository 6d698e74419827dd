package rng

import (
	"math"
	"testing"
)

// drawPrefix captures the first k outputs of a stream.
func drawPrefix(s *Stream, k int) []uint64 {
	out := make([]uint64, k)
	for i := range out {
		out[i] = s.Uint64()
	}
	return out
}

func equalPrefix(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FuzzNewSequence checks the stream-independence contract the sharded
// engine relies on: NewSequence is reproducible, distinct sequence
// selectors yield diverging streams for the same seed (and vice versa),
// and the derived variates stay inside their documented ranges.
func FuzzNewSequence(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(1))
	f.Add(uint64(1), uint64(0x6b79a7f3c5d80e25), uint64(0x6b79a7f3c5d80e26))
	f.Add(uint64(1<<63), uint64(42), uint64(43))
	f.Add(^uint64(0), ^uint64(0), uint64(7))
	f.Fuzz(func(t *testing.T, seed, seqA, seqB uint64) {
		const k = 16
		a := drawPrefix(NewSequence(seed, seqA), k)
		again := drawPrefix(NewSequence(seed, seqA), k)
		if !equalPrefix(a, again) {
			t.Fatalf("NewSequence(%d,%d) not reproducible", seed, seqA)
		}
		if seqA != seqB {
			b := drawPrefix(NewSequence(seed, seqB), k)
			if equalPrefix(a, b) {
				t.Errorf("sequences %d and %d coincide for seed %d over %d draws", seqA, seqB, seed, k)
			}
		}
		if seed != seqA { // reuse the operands as two distinct seeds
			c := drawPrefix(NewSequence(seqA, seqB), k)
			d := drawPrefix(NewSequence(seed, seqB), k)
			if equalPrefix(c, d) {
				t.Errorf("seeds %d and %d coincide on sequence %d", seqA, seed, seqB)
			}
		}
		s := NewSequence(seed, seqA)
		for i := 0; i < 8; i++ {
			if v := s.Float64(); v < 0 || v >= 1 {
				t.Fatalf("Float64 = %v out of [0,1)", v)
			}
			if v := s.Intn(17); v < 0 || v >= 17 {
				t.Fatalf("Intn(17) = %d out of range", v)
			}
			if v := s.Poisson(float64(i) * 12.5); v < 0 {
				t.Fatalf("Poisson = %d negative", v)
			}
			if v := s.Exponential(3); v < 0 {
				t.Fatalf("Exponential = %v negative", v)
			}
		}
	})
}

// FuzzSplit checks that Split yields children independent of the parent
// and of each other, deterministically.
func FuzzSplit(f *testing.F) {
	f.Add(uint64(1), uint8(0))
	f.Add(uint64(0xdeadbeef), uint8(5))
	f.Add(^uint64(0), uint8(17))
	f.Fuzz(func(t *testing.T, seed uint64, skip uint8) {
		const k = 16
		mk := func() *Stream {
			s := New(seed)
			for i := 0; i < int(skip); i++ { // vary the split point
				s.Uint64()
			}
			return s
		}
		p1 := mk()
		child := drawPrefix(p1.Split(), k)
		parentAfter := drawPrefix(p1, k)

		p2 := mk()
		childAgain := drawPrefix(p2.Split(), k)
		if !equalPrefix(child, childAgain) {
			t.Fatalf("Split not deterministic for seed %d skip %d", seed, skip)
		}
		if equalPrefix(child, parentAfter) {
			t.Errorf("child tracks parent after Split (seed %d skip %d)", seed, skip)
		}
		p3 := mk()
		first := drawPrefix(p3.Split(), k)
		second := drawPrefix(p3.Split(), k)
		if equalPrefix(first, second) {
			t.Errorf("successive Splits coincide (seed %d skip %d)", seed, skip)
		}
	})
}

// FuzzPoissonRun checks PoissonRun's invariants for any seed, any mean
// (NaN, infinities, subnormals and means either side of the λ=30 handoff
// included) and any run limit: it never panics, it returns between none
// and limit leading empty runs, a mean ≤ 0 makes every run empty, and
// below 30 a call that stops short of limit stops at an interacting run.
func FuzzPoissonRun(f *testing.F) {
	f.Add(uint64(1), math.Float64bits(0.0032), 100_000)
	f.Add(uint64(42), math.Float64bits(1e-17), 7)
	f.Add(uint64(3), math.Float64bits(29.999), 1)
	f.Add(^uint64(0), math.Float64bits(400), 0)
	f.Add(uint64(9), math.Float64bits(math.NaN()), -3)
	f.Fuzz(func(t *testing.T, seed, meanBits uint64, limit int) {
		mean, limit := math.Float64frombits(meanBits), limit%(1<<17)
		s := New(seed)
		for range 4 {
			zeros, n := s.PoissonRun(mean, limit)
			switch {
			case zeros < 0 || zeros > max(limit, 0):
				t.Fatalf("mean=%v limit=%d: %d leading empty runs", mean, limit, zeros)
			case mean <= 0 && (zeros != max(limit, 0) || n != 0):
				t.Fatalf("mean=%v limit=%d: PoissonRun = (%d, %d), want every run empty", mean, limit, zeros, n)
			case mean > 0 && mean < 30 && zeros < limit && n < 1:
				t.Fatalf("mean=%v limit=%d: stopped after %d empty runs at a count of %d", mean, limit, zeros, n)
			}
		}
	})
}
