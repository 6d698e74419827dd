package faultinject

import (
	"math"
	"slices"

	"neutronsim/internal/workload"
)

// blockWords is the sharing granularity of checkpoints: a checkpointed
// buffer is kept as blocks of this many words, and a block whose bits
// match the same block of the previous checkpoint, or are all zero,
// shares that storage; a buffer whose every block matches shares the
// previous checkpoint's whole snapshot. A checkpoint then costs only the
// blocks its step changed — one row of MxM's C, one box of LavaMD's
// forces — and one pointer per State buffer.
const blockWords = 64

var (
	zeroF64 [blockWords]float64
	zeroU32 [blockWords]uint32
)

// snapshot is one State buffer's content at one checkpoint, as the blocks
// of exactly one word type. Snapshots and their blocks are shared and
// never written.
type snapshot struct {
	f64 [][]float64
	u32 [][]uint32
}

// takeSnapshot records r's content. prev is the same buffer's previous
// snapshot, or nil; the new snapshot shares its blocks where they match,
// and is prev itself when all of them do. buf holds the block lists while
// they are built, so an unchanged buffer allocates nothing.
func takeSnapshot(r workload.Region, prev, buf *snapshot) *snapshot {
	var p snapshot
	if prev != nil {
		p = *prev
	}
	buf.f64 = appendBlocks(buf.f64[:0], r.F64, p.f64, zeroF64[:], equalF64)
	buf.u32 = appendBlocks(buf.u32[:0], r.U32, p.u32, zeroU32[:], slices.Equal[[]uint32])
	if prev != nil && sameBlocks(buf.f64, p.f64) && sameBlocks(buf.u32, p.u32) {
		return prev
	}
	s := &snapshot{}
	if r.F64 != nil {
		s.f64 = append(make([][]float64, 0, len(buf.f64)), buf.f64...)
	}
	if r.U32 != nil {
		s.u32 = append(make([][]uint32, 0, len(buf.u32)), buf.u32...)
	}
	return s
}

// sameBlocks reports whether a and b list the same blocks, storage and
// all. Blocks are never empty.
func sameBlocks[T float64 | uint32](a, b [][]T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if &a[i][0] != &b[i][0] {
			return false
		}
	}
	return true
}

// numBlocks is the number of blocks of a buffer of n words.
func numBlocks(n int) int { return (n + blockWords - 1) / blockWords }

func appendBlocks[T float64 | uint32](dst [][]T, cur []T, prev [][]T, zero []T, equal func(a, b []T) bool) [][]T {
	for b := range numBlocks(len(cur)) {
		blk := cur[b*blockWords : min((b+1)*blockWords, len(cur))]
		switch {
		case b < len(prev) && equal(blk, prev[b]):
			dst = append(dst, prev[b])
		case equal(blk, zero[:len(blk)]):
			dst = append(dst, zero[:len(blk)])
		default:
			dst = append(dst, slices.Clone(blk))
		}
	}
	return dst
}

// restore copies the snapshot into r, which has its shape and holds the
// snapshot old (nil: anything). A block old shares with s is in place
// already, so only the others are copied.
func (s *snapshot) restore(r workload.Region, old *snapshot) {
	var o snapshot
	if old != nil {
		o = *old
	}
	restoreBlocks(r.F64, s.f64, o.f64)
	restoreBlocks(r.U32, s.u32, o.u32)
}

func restoreBlocks[T float64 | uint32](dst []T, blocks, old [][]T) {
	for b, blk := range blocks {
		if b >= len(old) || &old[b][0] != &blk[0] {
			copy(dst[b*blockWords:], blk)
		}
	}
}

// fits reports whether r has the snapshot's word type and length.
func (s snapshot) fits(r workload.Region) bool {
	n := 0
	for _, blk := range s.f64 {
		n += len(blk)
	}
	for _, blk := range s.u32 {
		n += len(blk)
	}
	return (s.f64 != nil) == (r.F64 != nil) && (s.u32 != nil) == (r.U32 != nil) && n == r.Words()
}

// equalF64 compares bit patterns, so signed zeros differ and a NaN
// matches its own bits: values that compare equal but differ in bits
// could steer later steps differently.
func equalF64(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
