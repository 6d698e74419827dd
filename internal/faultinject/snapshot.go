package faultinject

import (
	"math"
	"slices"

	"neutronsim/internal/workload"
)

// blockWords is the sharing granularity of checkpoints: a checkpointed
// buffer is kept as blocks of this many words, and a block whose bits
// match the same block of the previous checkpoint, or are all zero,
// shares that storage. A checkpoint then costs only the blocks its step
// changed — one row of MxM's C, one box of LavaMD's forces.
const blockWords = 64

var (
	zeroF64 [blockWords]float64
	zeroU32 [blockWords]uint32
)

// snapshot is one State buffer's content at one checkpoint, as the blocks
// of exactly one word type. Blocks are shared and never written.
type snapshot struct {
	f64 [][]float64
	u32 [][]uint32
}

// blockLists holds the block lists of a recording's snapshots, one list
// per word type. A snapshot's list is a window of it, so a recording that
// sizes them up front allocates every list together.
type blockLists struct {
	f64 [][]float64
	u32 [][]uint32
}

// takeSnapshot records r's content, sharing blocks with prev (the same
// buffer's previous snapshot) where they match, and appends its block
// list to lists.
func takeSnapshot(r workload.Region, prev snapshot, lists *blockLists) snapshot {
	var s snapshot
	if r.F64 != nil {
		n := len(lists.f64)
		lists.f64 = appendBlocks(lists.f64, r.F64, prev.f64, zeroF64[:], equalF64)
		s.f64 = lists.f64[n:len(lists.f64):len(lists.f64)]
	}
	if r.U32 != nil {
		n := len(lists.u32)
		lists.u32 = appendBlocks(lists.u32, r.U32, prev.u32, zeroU32[:], slices.Equal[[]uint32])
		s.u32 = lists.u32[n:len(lists.u32):len(lists.u32)]
	}
	return s
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

// restore copies the snapshot into r, which has its shape.
func (s snapshot) restore(r workload.Region) {
	for b, blk := range s.f64 {
		copy(r.F64[b*blockWords:], blk)
	}
	for b, blk := range s.u32 {
		copy(r.U32[b*blockWords:], blk)
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
