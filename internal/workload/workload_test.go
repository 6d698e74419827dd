package workload

import (
	"errors"
	"math"
	"slices"
	"testing"
)

// runAll resets and runs a workload to completion, failing the test on any
// step error.
func runAll(t *testing.T, w Workload, seed uint64) []float64 {
	t.Helper()
	w.Reset(seed)
	for i := 0; i < w.Steps(); i++ {
		if err := w.Step(i); err != nil {
			t.Fatalf("%s step %d: %v", w.Name(), i, err)
		}
	}
	return w.AppendOutput(nil)
}

func TestRegistryCoversAllNames(t *testing.T) {
	for _, name := range Names() {
		w, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if w.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, w.Name())
		}
	}
}

func TestRegistryUnknown(t *testing.T) {
	if _, err := New("nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestAllWorkloadsDeterministic(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			w1, _ := New(name)
			w2, _ := New(name)
			o1 := runAll(t, w1, 42)
			o2 := runAll(t, w2, 42)
			if len(o1) == 0 {
				t.Fatal("empty output")
			}
			for i := range o1 {
				if o1[i] != o2[i] {
					t.Fatalf("outputs differ at %d: %v vs %v", i, o1[i], o2[i])
				}
			}
		})
	}
}

func TestSeedChangesOutput(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			w1, _ := New(name)
			w2, _ := New(name)
			o1 := runAll(t, w1, 1)
			o2 := runAll(t, w2, 2)
			same := true
			for i := range o1 {
				if o1[i] != o2[i] {
					same = false
					break
				}
			}
			if same {
				t.Error("different seeds produced identical outputs")
			}
		})
	}
}

func TestResetRestoresCleanState(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			w, _ := New(name)
			o1 := runAll(t, w, 7)
			// Corrupt everything, then Reset and re-run.
			for _, r := range w.Regions() {
				for i := 0; i < r.Words(); i += 3 {
					if err := r.FlipBit(i, 5); err != nil {
						t.Fatal(err)
					}
				}
			}
			o2 := runAll(t, w, 7)
			for i := range o1 {
				if o1[i] != o2[i] {
					t.Fatalf("Reset did not restore state (index %d)", i)
				}
			}
		})
	}
}

func TestRegionsNonEmpty(t *testing.T) {
	for _, name := range Names() {
		w, _ := New(name)
		w.Reset(1)
		if TotalWords(w.Regions()) == 0 {
			t.Errorf("%s exposes no injectable state", name)
		}
		for _, r := range w.Regions() {
			if r.Name == "" {
				t.Errorf("%s has an unnamed region", name)
			}
			if (r.F64 == nil) == (r.U32 == nil) {
				t.Errorf("%s region %q must have exactly one backing slice", name, r.Name)
			}
		}
	}
}

// TestMxMRegionLayout pins MxM's region split: the rows of A, then B,
// then the rows of C, whose words concatenated are A‖B‖C in order. The
// injector picks a flip's word by its flat index over Regions(), as does
// the frozen reset-and-replay reference, so a reordered split would move
// every result while the two kept agreeing.
func TestMxMRegionLayout(t *testing.T) {
	const n = 24
	m := NewMxM(n)
	m.Reset(3)
	regions := m.Regions()
	if len(regions) != 2*n+1 {
		t.Fatalf("MxM exposes %d regions, want %d", len(regions), 2*n+1)
	}
	var flat []float64
	for _, r := range regions {
		flat = append(flat, r.F64...)
	}
	if !slices.Equal(flat, slices.Concat(m.a, m.b, m.c)) {
		t.Fatal("the words of Regions(), concatenated, are not A‖B‖C")
	}
	for i, r := range regions {
		row := &m.b[0]
		switch {
		case i < n:
			row = &m.a[i*n]
		case i > n:
			row = &m.c[(i-n-1)*n]
		}
		if &r.F64[0] != row {
			t.Errorf("region %d does not view its row", i)
		}
	}
	if state := m.State(); len(state) != n || &state[0].F64[0] != &m.c[0] {
		t.Error("State() is not the rows of C")
	}
}

// TestLavaMDRegionLayout pins LavaMD's region split: the positions, the
// charges, the forces and the neighbor lists, each one region per box,
// whose words concatenated are positions‖charges‖forces‖neighbors in
// order. The injector picks a flip's word by its flat index over
// Regions(), as does the frozen reset-and-replay reference, so a
// reordered split would move every result while the two kept agreeing.
func TestLavaMDRegionLayout(t *testing.T) {
	const dim, p = 3, 8
	l := NewLavaMD(dim, p)
	l.Reset(3)
	boxes := dim * dim * dim
	regions := l.Regions()
	if len(regions) != 4*boxes {
		t.Fatalf("LavaMD exposes %d regions, want %d", len(regions), 4*boxes)
	}
	var f64 []float64
	var u32 []uint32
	for i, r := range regions {
		if (r.U32 != nil) != (i >= 3*boxes) {
			t.Fatalf("region %d (%q) has the wrong word type for its place", i, r.Name)
		}
		f64, u32 = append(f64, r.F64...), append(u32, r.U32...)
	}
	if !slices.Equal(f64, slices.Concat(l.pos, l.charge, l.force)) || !slices.Equal(u32, l.neighbors) {
		t.Fatal("the words of Regions(), concatenated, are not positions‖charges‖forces‖neighbors")
	}
	state := l.State()
	if len(state) != boxes {
		t.Fatalf("State() has %d buffers, want the %d force boxes", len(state), boxes)
	}
	for b := range boxes {
		pos, charge, forces, list := regions[b], regions[boxes+b], regions[2*boxes+b], regions[3*boxes+b]
		if &pos.F64[0] != &l.pos[3*b*p] || &charge.F64[0] != &l.charge[b*p] ||
			&forces.F64[0] != &l.force[3*b*p] || &list.U32[0] != &l.neighbors[b*lavaNeighbors] {
			t.Errorf("box %d's regions do not view its positions, charges, forces and neighbor list", b)
		}
		if &state[b].F64[0] != &forces.F64[0] || len(state[b].F64) != len(forces.F64) {
			t.Errorf("State()[%d] is not box %d's forces", b, b)
		}
	}
}

// TestBFSRegionLayout pins BFS's region split: the offsets and the edges
// of each chunk of bfsChunk nodes, then the distances, whose words
// concatenated are offsets‖edges‖dist in order; the last offsets chunk
// also holds the closing offset. It checks a node count that fills its
// chunks and one that does not. A reordered split would move every
// result, as TestMxMRegionLayout explains.
func TestBFSRegionLayout(t *testing.T) {
	for _, n := range []int{1024, 100} {
		const degree = 4
		b := NewBFS(n, degree)
		b.Reset(3)
		chunks := (n + bfsChunk - 1) / bfsChunk
		regions := b.Regions()
		if len(regions) != 2*chunks+1 {
			t.Fatalf("BFS over %d nodes exposes %d regions, want %d", n, len(regions), 2*chunks+1)
		}
		var flat []uint32
		for _, r := range regions {
			flat = append(flat, r.U32...)
		}
		if !slices.Equal(flat, slices.Concat(b.offsets, b.edges, b.dist)) {
			t.Fatalf("over %d nodes, the words of Regions(), concatenated, are not offsets‖edges‖dist", n)
		}
		for c := range chunks {
			offsets, edges := regions[c].U32, regions[chunks+c].U32
			if &offsets[0] != &b.offsets[c*bfsChunk] || &edges[0] != &b.edges[c*bfsChunk*degree] {
				t.Errorf("over %d nodes, chunk %d's regions do not view its offsets and edges", n, c)
			}
		}
		if last := regions[chunks-1].U32; &last[len(last)-1] != &b.offsets[n] {
			t.Errorf("over %d nodes, the last offsets chunk does not hold the closing offset", n)
		}
		if state := b.State(); len(state) != 1 || &state[0].U32[0] != &b.dist[0] || len(state[0].U32) != n {
			t.Errorf("over %d nodes, State() is not the distances", n)
		}
	}
}

// TestSCRegionLayout pins SC's region split: the data chunk by chunk,
// the output, the flags chunk by chunk, then the cursor, whose words
// concatenated are data‖out‖flags‖cursor in order, each chunk the range
// its step compacts. It checks an element count that fills its chunks and
// one that does not. A reordered split would move every result, as
// TestMxMRegionLayout explains.
func TestSCRegionLayout(t *testing.T) {
	for _, n := range []int{4096, 100} {
		c := NewSC(n)
		c.Reset(3)
		regions := c.Regions()
		if len(regions) != 2*c.chunks+2 {
			t.Fatalf("SC over %d elements exposes %d regions, want %d", n, len(regions), 2*c.chunks+2)
		}
		var f64 []float64
		var u32 []uint32
		for i, r := range regions {
			if (r.U32 != nil) != (i > c.chunks) {
				t.Fatalf("region %d (%q) has the wrong word type for its place", i, r.Name)
			}
			f64, u32 = append(f64, r.F64...), append(u32, r.U32...)
		}
		if !slices.Equal(f64, slices.Concat(c.data, c.out)) || !slices.Equal(u32, slices.Concat(c.flags, c.cursor)) {
			t.Fatalf("over %d elements, the words of Regions(), concatenated, are not data‖out‖flags‖cursor", n)
		}
		for i := range c.chunks {
			lo, hi := c.chunk(i)
			data, flags := regions[i].F64, regions[c.chunks+1+i].U32
			if len(data) != hi-lo || len(flags) != hi-lo || hi > lo && (&data[0] != &c.data[lo] || &flags[0] != &c.flags[lo]) {
				t.Errorf("over %d elements, chunk %d's regions do not view the range [%d,%d) step %d compacts", n, i, lo, hi, i)
			}
		}
		state := c.State()
		if len(state) != 2 || &state[0].F64[0] != &c.out[0] || &state[1].U32[0] != &c.cursor[0] {
			t.Errorf("over %d elements, State() is not the output and the cursor", n)
		}
	}
}

func TestFlipBitF64(t *testing.T) {
	r := Region{Name: "x", F64: []float64{1.0}}
	if err := r.FlipBit(0, 63); err != nil { // sign bit
		t.Fatal(err)
	}
	if r.F64[0] != -1.0 {
		t.Errorf("sign-bit flip gave %v, want -1", r.F64[0])
	}
	if err := r.FlipBit(0, 63); err != nil {
		t.Fatal(err)
	}
	if r.F64[0] != 1.0 {
		t.Error("double flip did not restore value")
	}
}

func TestFlipBitU32(t *testing.T) {
	r := Region{Name: "x", U32: []uint32{0}}
	if err := r.FlipBit(0, 31); err != nil {
		t.Fatal(err)
	}
	if r.U32[0] != 1<<31 {
		t.Errorf("got %v", r.U32[0])
	}
}

func TestFlipBitBounds(t *testing.T) {
	r := Region{Name: "x", F64: []float64{1, 2}}
	if err := r.FlipBit(2, 0); err == nil {
		t.Error("out-of-range word accepted")
	}
	if err := r.FlipBit(0, 64); err == nil {
		t.Error("out-of-range bit accepted")
	}
	if err := r.FlipBit(-1, 0); err == nil {
		t.Error("negative word accepted")
	}
	u := Region{Name: "y", U32: []uint32{0}}
	if err := u.FlipBit(0, 32); err == nil {
		t.Error("bit 32 accepted on u32 region")
	}
}

func TestBitsPerWord(t *testing.T) {
	if (Region{F64: []float64{0}}).BitsPerWord() != 64 {
		t.Error("f64 width")
	}
	if (Region{U32: []uint32{0}}).BitsPerWord() != 32 {
		t.Error("u32 width")
	}
}

func TestStepOutOfRangeErrors(t *testing.T) {
	for _, name := range Names() {
		w, _ := New(name)
		w.Reset(1)
		if err := w.Step(w.Steps()); err == nil {
			t.Errorf("%s accepted out-of-range step", name)
		}
		if err := w.Step(-1); err == nil {
			t.Errorf("%s accepted negative step", name)
		}
	}
}

func TestForDeviceKind(t *testing.T) {
	tests := []struct {
		kind string
		want int
	}{
		{"accelerator", 4},
		{"GPU", 5},
		{"APU", 3},
		{"FPGA", 2},
		{"toaster", 0},
	}
	for _, tt := range tests {
		if got := len(ForDeviceKind(tt.kind)); got != tt.want {
			t.Errorf("ForDeviceKind(%q) has %d codes, want %d", tt.kind, got, tt.want)
		}
	}
}

// --- kernel-specific correctness ---

func TestMxMCorrectness(t *testing.T) {
	m := NewMxM(3)
	m.Reset(1)
	// Overwrite with known matrices: A = I scaled by 2, B arbitrary.
	for i := range m.a {
		m.a[i] = 0
	}
	for i := 0; i < 3; i++ {
		m.a[i*3+i] = 2
	}
	for i := range m.b {
		m.b[i] = float64(i)
	}
	for i := 0; i < m.Steps(); i++ {
		if err := m.Step(i); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range m.AppendOutput(nil) {
		if v != 2*float64(i) {
			t.Fatalf("C[%d] = %v, want %v", i, v, 2*float64(i))
		}
	}
}

func TestLUDReconstructs(t *testing.T) {
	l := NewLUD(8)
	l.Reset(3)
	orig := append([]float64(nil), l.m...)
	for i := 0; i < l.Steps(); i++ {
		if err := l.Step(i); err != nil {
			t.Fatal(err)
		}
	}
	// Rebuild A = L·U and compare.
	n := 8
	lu := l.AppendOutput(nil)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			sum := 0.0
			for k := 0; k <= min(i, j); k++ {
				var lv float64
				if k == i {
					lv = 1
				} else {
					lv = lu[i*n+k]
				}
				if k <= j {
					sum += lv * lu[k*n+j]
				}
			}
			if math.Abs(sum-orig[i*n+j]) > 1e-8*math.Max(1, math.Abs(orig[i*n+j])) {
				t.Fatalf("LU reconstruction failed at (%d,%d): %v vs %v", i, j, sum, orig[i*n+j])
			}
		}
	}
}

func TestLUDDetectsCorruptPivot(t *testing.T) {
	l := NewLUD(8)
	l.Reset(3)
	l.m[0] = math.NaN()
	if err := l.Step(0); !errors.Is(err, ErrCorruptState) {
		t.Errorf("NaN pivot gave %v, want ErrCorruptState", err)
	}
}

func TestLavaMDForcesAntisymmetric(t *testing.T) {
	// Total force over a closed system should be ~0 when all particles
	// interact symmetrically (all pairs within cutoff).
	l := NewLavaMD(2, 4)
	l.Reset(5)
	for i := 0; i < l.Steps(); i++ {
		if err := l.Step(i); err != nil {
			t.Fatal(err)
		}
	}
	// Newton's third law holds pairwise only when both boxes see each
	// other; with clamped neighbor lists every pair within cutoff is
	// symmetric, so total force cancels.
	var fx, fy, fz float64
	out := l.AppendOutput(nil)
	for i := 0; i < len(out); i += 3 {
		fx += out[i]
		fy += out[i+1]
		fz += out[i+2]
	}
	if math.Abs(fx)+math.Abs(fy)+math.Abs(fz) > 1e-6 {
		t.Errorf("net force = (%v,%v,%v), want ~0", fx, fy, fz)
	}
}

func TestLavaMDDetectsCorruptNeighbor(t *testing.T) {
	l := NewLavaMD(3, 2)
	l.Reset(1)
	l.neighbors[0] = 9999
	if err := l.Step(0); !errors.Is(err, ErrCorruptState) {
		t.Errorf("corrupt neighbor gave %v", err)
	}
}

func TestHotSpotHeatsUnderPower(t *testing.T) {
	h := NewHotSpot(16, 8)
	h.Reset(2)
	before := 0.0
	for _, v := range h.temp {
		before += v
	}
	for i := 0; i < h.Steps(); i++ {
		if err := h.Step(i); err != nil {
			t.Fatal(err)
		}
	}
	after := 0.0
	for _, v := range h.AppendOutput(nil) {
		after += v
	}
	if after <= before {
		t.Errorf("powered grid did not heat: %v -> %v", before, after)
	}
}

func TestSCCompactsCorrectly(t *testing.T) {
	c := NewSC(64)
	c.Reset(9)
	want := []float64{}
	for _, v := range c.data {
		if v > 0 {
			want = append(want, v)
		}
	}
	for i := 0; i < c.Steps(); i++ {
		if err := c.Step(i); err != nil {
			t.Fatal(err)
		}
	}
	out := c.AppendOutput(nil)
	count := int(out[len(out)-1])
	if count != len(want) {
		t.Fatalf("compacted %d elements, want %d", count, len(want))
	}
	for i, v := range want {
		if out[i] != v {
			t.Fatalf("out[%d] = %v, want %v", i, out[i], v)
		}
	}
}

func TestSCDetectsCorruptCursor(t *testing.T) {
	c := NewSC(64)
	c.Reset(9)
	c.cursor[0] = 1 << 30
	// Find a chunk with at least one kept element; step it.
	for i := 0; i < c.Steps(); i++ {
		if err := c.Step(i); err != nil {
			if !errors.Is(err, ErrCorruptState) {
				t.Fatalf("got %v", err)
			}
			return
		}
	}
	t.Error("corrupt cursor never detected")
}

func TestSCDetectsCorruptFlag(t *testing.T) {
	c := NewSC(64)
	c.Reset(9)
	c.flags[3] = 7
	if err := c.Step(0); !errors.Is(err, ErrCorruptState) {
		t.Errorf("corrupt flag gave %v", err)
	}
}

func TestCEDFindsEdges(t *testing.T) {
	c := NewCED(32)
	out := runAll(t, c, 4)
	edges := 0
	for _, v := range out {
		if v == 1 {
			edges++
		} else if v != 0 {
			t.Fatalf("edge map value %v not binary", v)
		}
	}
	if edges == 0 {
		t.Error("no edges detected in synthetic scene with boxes")
	}
	if edges > len(out)/2 {
		t.Errorf("%d of %d pixels are edges; threshold too low", edges, len(out))
	}
}

func TestBFSDistances(t *testing.T) {
	b := NewBFS(64, 3)
	out := runAll(t, b, 11)
	if out[0] != 0 {
		t.Fatalf("source distance = %v", out[0])
	}
	// Ring edge guarantees reachability of every node.
	for i, d := range out {
		if d == float64(unvisited) {
			t.Fatalf("node %d unreachable", i)
		}
		if d > 64 {
			t.Fatalf("distance %v exceeds node count", d)
		}
	}
	// Distance of node 1 must be 1 (direct ring edge from source).
	if out[1] != 1 {
		t.Errorf("dist(1) = %v, want 1", out[1])
	}
}

func TestBFSDetectsCorruptEdge(t *testing.T) {
	b := NewBFS(64, 3)
	b.Reset(1)
	b.edges[0] = 1 << 20
	if err := b.Step(0); !errors.Is(err, ErrCorruptState) {
		t.Errorf("corrupt edge gave %v", err)
	}
}

func TestBFSDetectsCorruptOffsets(t *testing.T) {
	b := NewBFS(64, 3)
	b.Reset(1)
	b.offsets[1] = 1 << 30
	if err := b.Step(0); !errors.Is(err, ErrCorruptState) {
		t.Errorf("corrupt offset gave %v", err)
	}
}

func TestYOLOOutputShape(t *testing.T) {
	y := NewYOLO()
	out := runAll(t, y, 13)
	if len(out) != 11 { // argmax + 10 confidences
		t.Fatalf("output length %d", len(out))
	}
	cls := out[0]
	if cls < 0 || cls > 9 || cls != math.Trunc(cls) {
		t.Fatalf("class = %v", cls)
	}
	sum := 0.0
	for _, v := range out[1:] {
		if v < 0 || v > 1 {
			t.Fatalf("confidence %v out of [0,1]", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 0.06 { // quantized to 0.01 × 10 classes
		t.Errorf("confidences sum to %v", sum)
	}
}

func TestCNNMasksTinyPerturbations(t *testing.T) {
	// The detection-criterion output should be invariant to a low-order
	// mantissa flip in an activation — that is the masking the paper
	// relies on for CNN workloads.
	y1 := NewYOLO()
	golden := runAll(t, y1, 21)
	y2 := NewYOLO()
	y2.Reset(21)
	if err := y2.Step(0); err != nil {
		t.Fatal(err)
	}
	// Flip a low mantissa bit in an activation after the first layer.
	if err := (Region{F64: y2.a1}).FlipBit(10, 2); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < y2.Steps(); i++ {
		if err := y2.Step(i); err != nil {
			t.Fatal(err)
		}
	}
	out := y2.AppendOutput(nil)
	for i := range golden {
		if out[i] != golden[i] {
			t.Fatalf("low-order activation flip changed detection output at %d", i)
		}
	}
}

func TestMNISTOutputStable(t *testing.T) {
	m := NewMNIST()
	out := runAll(t, m, 17)
	if len(out) != 11 {
		t.Fatalf("output length %d", len(out))
	}
}

// TestMxMStepMatchesOneColumnLoop pins the four-column kernel to the
// one-column loop it replaced, bit for bit, for every remainder of n mod 4
// and on inputs carrying NaN, ±Inf and a flipped exponent bit.
func TestMxMStepMatchesOneColumnLoop(t *testing.T) {
	oneColumn := func(m *MxM, i int) []float64 {
		n := m.n
		row := make([]float64, n)
		for j := 0; j < n; j++ {
			sum := 0.0
			for k := 0; k < n; k++ {
				sum += m.a[i*n+k] * m.b[k*n+j]
			}
			row[j] = sum
		}
		return row
	}
	for _, n := range []int{2, 3, 4, 5, 6, 7, 8, 9, 24, 48} {
		for _, poison := range []string{"seeded", "nan", "inf", "exponent"} {
			m := NewMxM(n)
			m.Reset(uint64(n))
			switch poison {
			case "nan":
				m.a[n+1] = math.NaN()
			case "inf":
				m.b[n-1], m.b[len(m.b)-1] = math.Inf(1), math.Inf(-1)
			case "exponent":
				m.b[n+1] = math.Float64frombits(math.Float64bits(m.b[n+1]) ^ 1<<61)
			}
			for i := 0; i < n; i++ {
				want := oneColumn(m, i)
				if err := m.Step(i); err != nil {
					t.Fatal(err)
				}
				for j, v := range m.c[i*n : (i+1)*n] {
					if math.Float64bits(v) != math.Float64bits(want[j]) {
						t.Fatalf("n=%d %s: C[%d][%d] = %v, one-column loop gives %v", n, poison, i, j, v, want[j])
					}
				}
			}
		}
	}
}

// The kernel pin tests run each blocked kernel and the loop it replaced
// on seeded inputs, then on inputs carrying each of these poisons.
var poisons = []string{"seeded", "nan", "inf", "negzero", "exponent"}

// plant writes the poison into xs at the given words: NaN, +Inf and -Inf
// in turn, -0.0, or the value with one exponent bit flipped (the top one
// and the next in turn, so products both overflow and vanish).
func plant(poison string, xs []float64, words ...int) {
	for i, w := range words {
		switch poison {
		case "nan":
			xs[w] = math.NaN()
		case "inf":
			xs[w] = math.Inf(1 - 2*(i%2))
		case "negzero":
			xs[w] = math.Copysign(0, -1)
		case "exponent":
			xs[w] = math.Float64frombits(math.Float64bits(xs[w]) ^ 1<<(62-i%2))
		}
	}
}

// seeded fills xs with uniforms in [-1, 1).
func seeded(xs []float64, seed uint64) []float64 {
	g := splitmix(seed)
	for i := range xs {
		xs[i] = 2*g.float() - 1
	}
	return xs
}

// firstBitDiff is the first index at which got and want differ in bits,
// or -1.
func firstBitDiff(got, want []float64) int {
	for i, v := range got {
		if math.Float64bits(v) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// oneRowDense is the one-row loop denseLayer replaced.
func oneRowDense(in, w, out []float64) {
	cols := len(in)
	for r := range out {
		sum := 0.0
		base := r * cols
		for j, v := range in {
			sum += w[base+j] * v
		}
		out[r] = sum
	}
}

// TestDenseLayerMatchesOneRowLoop pins the four-row kernel to the one-row
// loop, bit for bit, at output counts of every remainder mod 4 and on
// inputs carrying NaN, ±Inf, -0.0 and a flipped exponent bit.
func TestDenseLayerMatchesOneRowLoop(t *testing.T) {
	for _, rows := range []int{1, 2, 3, 4, 5, 6, 7, 8, 10, 64} {
		for _, cols := range []int{1, 3, 17, 256} {
			for _, poison := range poisons {
				in := seeded(make([]float64, cols), uint64(rows*cols))
				w := seeded(make([]float64, rows*cols), uint64(rows+cols))
				plant(poison, in, cols/2)
				plant(poison, w, 0, len(w)-1)
				got, want := make([]float64, rows), make([]float64, rows)
				denseLayer(in, w, got)
				oneRowDense(in, w, want)
				if i := firstBitDiff(got, want); i >= 0 {
					t.Fatalf("%d×%d %s: out[%d] = %v, one-row loop gives %v", rows, cols, poison, i, got[i], want[i])
				}
			}
		}
	}
}

// TestMNISTHiddenLayerMatchesOneUnitLoop pins MNIST's hidden layer, the
// dense kernel plus an in-place ReLU, to the one-unit loop it replaced.
func TestMNISTHiddenLayerMatchesOneUnitLoop(t *testing.T) {
	for _, poison := range poisons {
		m := NewMNIST()
		m.Reset(11)
		plant(poison, m.in, 3, 200)
		plant(poison, m.w1, 5, len(m.w1)-7)
		want := make([]float64, m.hidden)
		for h := range want {
			sum := 0.0
			base := h * m.size * m.size
			for j, v := range m.in {
				sum += m.w1[base+j] * v
			}
			if sum < 0 {
				sum = 0
			}
			want[h] = sum
		}
		if err := m.Step(0); err != nil {
			t.Fatal(err)
		}
		if i := firstBitDiff(m.h, want); i >= 0 {
			t.Fatalf("%s: hidden[%d] = %v, one-unit loop gives %v", poison, i, m.h[i], want[i])
		}
	}
}

// clampedConv2D is the loop conv2D replaced: a clamp per tap.
func clampedConv2D(in []float64, n, chIn int, w []float64, chOut int, out []float64, relu bool) {
	for co := 0; co < chOut; co++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				sum := 0.0
				for ci := 0; ci < chIn; ci++ {
					for dy := -1; dy <= 1; dy++ {
						for dx := -1; dx <= 1; dx++ {
							wi := ((co*chIn+ci)*3+(dy+1))*3 + (dx + 1)
							sum += w[wi] * in[(ci*n+clamp(y+dy, n))*n+clamp(x+dx, n)]
						}
					}
				}
				if relu && sum < 0 {
					sum = 0
				}
				out[(co*n+y)*n+x] = sum
			}
		}
	}
}

// TestConv2DMatchesClampedLoop pins conv2D to the clamp-per-tap loop, bit
// for bit, at YOLO's two layer shapes and at edges of 1, 2 and 3 pixels,
// with and without the ReLU, on inputs carrying NaN, ±Inf, -0.0 and a
// flipped exponent bit at a corner, an edge and the interior.
func TestConv2DMatchesClampedLoop(t *testing.T) {
	for _, shape := range []struct{ n, chIn, chOut int }{
		{yoloSize, 1, yoloC1}, {yoloSize / 2, yoloC1, yoloC2},
		{1, 1, 1}, {1, 3, 5}, {2, 2, 3}, {2, yoloC1, yoloC2}, {3, 1, 4}, {3, 5, 7},
	} {
		n, chIn, chOut := shape.n, shape.chIn, shape.chOut
		for _, poison := range poisons {
			for _, relu := range []bool{false, true} {
				in := seeded(make([]float64, chIn*n*n), uint64(n*chIn))
				w := seeded(make([]float64, chOut*chIn*9), uint64(chOut))
				plant(poison, in, 0, n-1, len(in)/2)
				plant(poison, w, 4, len(w)-1)
				got, want := make([]float64, chOut*n*n), make([]float64, chOut*n*n)
				conv2D(in, n, chIn, w, chOut, got, relu)
				clampedConv2D(in, n, chIn, w, chOut, want, relu)
				if i := firstBitDiff(got, want); i >= 0 {
					t.Fatalf("n=%d %d→%d %s relu=%v: out[%d] = %v, clamped loop gives %v", n, chIn, chOut, poison, relu, i, got[i], want[i])
				}
			}
		}
	}
}

// TestHotSpotStepMatchesClampedLoop pins HotSpot's row-slice update to the
// clamp-per-neighbor loop it replaced, bit for bit, over every step, on
// grids carrying NaN, ±Inf, -0.0 and a flipped exponent bit at the
// corners, on the edge rows and columns and in the interior.
func TestHotSpotStepMatchesClampedLoop(t *testing.T) {
	clamped := func(h *HotSpot) []float64 {
		n := h.n
		const k = 0.2
		next := make([]float64, n*n)
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				c := h.temp[y*n+x]
				up := h.temp[clamp(y-1, n)*n+x]
				down := h.temp[clamp(y+1, n)*n+x]
				left := h.temp[y*n+clamp(x-1, n)]
				right := h.temp[y*n+clamp(x+1, n)]
				next[y*n+x] = c + k*((up+down+left+right)/4-c) + 0.1*h.power[y*n+x]
			}
		}
		return next
	}
	for _, n := range []int{4, 5, 32} {
		for _, poison := range poisons {
			h := NewHotSpot(n, 6)
			h.Reset(uint64(n))
			corners := []int{0, n - 1, n * (n - 1), n*n - 1}
			edges := []int{2, n, 2*n - 1, n*(n-1) + 2, n*n/2 + n/2}
			plant(poison, h.temp, append(corners, edges...)...)
			plant(poison, h.power, n+1, n*n-2)
			for i := range h.Steps() {
				want := clamped(h)
				if err := h.Step(i); err != nil {
					t.Fatal(err)
				}
				if j := firstBitDiff(h.temp, want); j >= 0 {
					t.Fatalf("n=%d %s step %d: temp[%d] = %v, clamped loop gives %v", n, poison, i, j, h.temp[j], want[j])
				}
			}
		}
	}
}

func TestSoftmaxHandlesNaN(t *testing.T) {
	scores := []float64{math.NaN(), 1, 2}
	softmax(scores) // must not panic; leaves raw values
	if !math.IsNaN(scores[0]) {
		t.Error("NaN should propagate for golden mismatch detection")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Performance baselines for the kernels (one full execution each).
func benchWorkload(b *testing.B, name string) {
	b.Helper()
	w, err := New(name)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		w.Reset(uint64(i))
		for s := 0; s < w.Steps(); s++ {
			if err := w.Step(s); err != nil {
				b.Fatal(err)
			}
		}
		if out := w.AppendOutput(nil); len(out) == 0 {
			b.Fatal("empty output")
		}
	}
}

func BenchmarkMxM(b *testing.B)     { benchWorkload(b, "MxM") }
func BenchmarkLUD(b *testing.B)     { benchWorkload(b, "LUD") }
func BenchmarkLavaMD(b *testing.B)  { benchWorkload(b, "LavaMD") }
func BenchmarkHotSpot(b *testing.B) { benchWorkload(b, "HotSpot") }
func BenchmarkSC(b *testing.B)      { benchWorkload(b, "SC") }
func BenchmarkCED(b *testing.B)     { benchWorkload(b, "CED") }
func BenchmarkBFS(b *testing.B)     { benchWorkload(b, "BFS") }
func BenchmarkYOLO(b *testing.B)    { benchWorkload(b, "YOLO") }
func BenchmarkMNIST(b *testing.B)   { benchWorkload(b, "MNIST") }
