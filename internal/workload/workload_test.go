package workload

import (
	"errors"
	"math"
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

func TestClassString(t *testing.T) {
	if ClassHPC.String() != "HPC" || ClassHeterogeneous.String() != "heterogeneous" ||
		ClassNeuralNetwork.String() != "neural network" || Class(0).String() != "unknown" {
		t.Error("class names wrong")
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
