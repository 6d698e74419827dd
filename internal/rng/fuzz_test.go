package rng

import "testing"

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

// FuzzReadAhead drives a buffered and an unbuffered stream through an
// identical, input-chosen op sequence — including mid-sequence buffer
// resizes and disables — and demands bit-identical outputs. ops bytes map
// to draw methods with data-dependent consumption, so the fuzzer explores
// refill boundaries landing inside every kind of multi-draw primitive.
func FuzzReadAhead(f *testing.F) {
	f.Add(uint64(1), uint16(1), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(uint64(42), uint16(7), []byte{2, 2, 2, 9, 1, 1, 9, 3})
	f.Add(^uint64(0), uint16(4096), []byte{6, 5, 4, 3, 2, 1, 0})
	f.Fuzz(func(t *testing.T, seed uint64, size uint16, ops []byte) {
		buffered := New(seed)
		buffered.ReadAhead(int(size%4097) + 1)
		ref := New(seed)
		for i, op := range ops {
			if len(ops) > 256 {
				break
			}
			var got, want float64
			switch op % 10 {
			case 0:
				got, want = float64(buffered.Uint64()), float64(ref.Uint64())
			case 1:
				got, want = buffered.Float64(), ref.Float64()
			case 2:
				got, want = float64(buffered.Intn(13)), float64(ref.Intn(13))
			case 3:
				got, want = float64(buffered.Poisson(3)), float64(ref.Poisson(3))
			case 4:
				got, want = buffered.Normal(), ref.Normal()
			case 5:
				got, want = buffered.Exponential(2), ref.Exponential(2)
			case 6:
				got, want = buffered.WattEnergy(0.988, 2.249), ref.WattEnergy(0.988, 2.249)
			case 7:
				got, want = float64(buffered.Split().Uint64()), float64(ref.Split().Uint64())
			case 8:
				// Resize mid-sequence; the reference stream is untouched.
				buffered.ReadAhead(int(op)%97 + 1)
				continue
			default:
				buffered.ReadAhead(0) // disable; pending values must still serve
				continue
			}
			if got != want {
				t.Fatalf("op %d (%d): buffered=%v unbuffered=%v", i, op%10, got, want)
			}
		}
	})
}
