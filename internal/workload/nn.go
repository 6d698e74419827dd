package workload

import (
	"fmt"
	"math"
)

// The two networks keep weights and activations in plain slices so the
// injector can flip bits in them: faults in weights model
// configuration/parameter memory corruption, faults in activations model
// datapath strikes.

// YOLO is a miniature object-detection network: two convolution+pool
// blocks feeding a detection head. It stands in for the YOLOv2 CNN the
// paper runs for autonomous-driving object detection. Output correctness
// follows the paper's criterion for CNNs: the detected class and its
// (quantized) confidence, not bit-exact tensors — CNNs mask most small
// numerical upsets.
type YOLO struct {
	size    int // input edge (32)
	classes int
	conv1   []float64 // 8 filters 3×3
	conv2   []float64 // 16 filters 3×3×8
	dense   []float64 // classes × flattened
	in      []float64
	a1      []float64 // 32×32×8
	p1      []float64 // 16×16×8
	a2      []float64 // 16×16×16
	p2      []float64 // 8×8×16
	scores  []float64
}

// YOLO's input edge and the channel counts of its two convolutions; they
// also size conv2D's stack buffers.
const yoloSize, yoloC1, yoloC2 = 32, 8, 16

// NewYOLO builds the detection network.
func NewYOLO() *YOLO {
	const size, c1, c2, classes = yoloSize, yoloC1, yoloC2, 10
	half, quarter := size/2, size/4
	return &YOLO{
		size:    size,
		classes: classes,
		conv1:   make([]float64, c1*3*3),
		conv2:   make([]float64, c2*c1*3*3),
		dense:   make([]float64, classes*quarter*quarter*c2),
		in:      make([]float64, size*size),
		a1:      make([]float64, size*size*c1),
		p1:      make([]float64, half*half*c1),
		a2:      make([]float64, half*half*c2),
		p2:      make([]float64, quarter*quarter*c2),
		scores:  make([]float64, classes),
	}
}

// Name implements Workload.
func (y *YOLO) Name() string { return "YOLO" }

// Reset initializes weights (deterministic Xavier-ish) and paints a
// synthetic road scene.
func (y *YOLO) Reset(seed uint64) {
	g := splitmix(seed)
	initWeights(y.conv1, &g, 9)
	initWeights(y.conv2, &g, 72)
	initWeights(y.dense, &g, len(y.dense)/y.classes)
	n := y.size
	for yy := 0; yy < n; yy++ {
		for x := 0; x < n; x++ {
			y.in[yy*n+x] = 0.2 + 0.1*g.float()
		}
	}
	// A bright "vehicle" blob.
	cx, cy := 8+g.intn(16), 8+g.intn(16)
	for dy := -3; dy <= 3; dy++ {
		for dx := -3; dx <= 3; dx++ {
			y.in[clamp(cy+dy, n)*n+clamp(cx+dx, n)] = 0.95
		}
	}
	zero(y.a1)
	zero(y.p1)
	zero(y.a2)
	zero(y.p2)
	zero(y.scores)
}

func zero(xs []float64) {
	for i := range xs {
		xs[i] = 0
	}
}

func initWeights(w []float64, g *splitmix, fanIn int) {
	scale := math.Sqrt(2 / float64(fanIn))
	for i := range w {
		w[i] = (2*g.float() - 1) * scale
	}
}

// Steps implements Workload: conv1, pool1, conv2, pool2, head, softmax.
func (y *YOLO) Steps() int { return 6 }

// Step runs stage i of the network.
func (y *YOLO) Step(i int) error {
	const c1, c2 = yoloC1, yoloC2
	n := y.size
	half := n / 2
	switch i {
	case 0:
		conv2D(y.in, n, 1, y.conv1, c1, y.a1, true)
	case 1:
		maxPool(y.a1, n, c1, y.p1)
	case 2:
		conv2D(y.p1, half, c1, y.conv2, c2, y.a2, true)
	case 3:
		maxPool(y.a2, half, c2, y.p2)
	case 4:
		denseLayer(y.p2, y.dense, y.scores)
	case 5:
		softmax(y.scores)
	default:
		return fmt.Errorf("YOLO: step %d out of range", i)
	}
	return nil
}

// AppendOutput implements Workload: argmax class plus per-class
// confidences quantized to 0.01 (the paper-style detection-correctness
// criterion).
func (y *YOLO) AppendOutput(dst []float64) []float64 { return appendDetection(dst, y.scores) }

// Regions implements Workload.
func (y *YOLO) Regions() []Region {
	return []Region{
		{Name: "frame", F64: y.in},
		{Name: "conv1.w", F64: y.conv1},
		{Name: "conv2.w", F64: y.conv2},
		{Name: "head.w", F64: y.dense},
		{Name: "act1", F64: y.a1},
		{Name: "act2", F64: y.a2},
		{Name: "pool2", F64: y.p2},
	}
}

// State implements Workload: the activations, including the pool1 and
// score buffers that are not injection targets.
func (y *YOLO) State() []Region {
	return []Region{
		{Name: "act1", F64: y.a1},
		{Name: "pool1", F64: y.p1},
		{Name: "act2", F64: y.a2},
		{Name: "pool2", F64: y.p2},
		{Name: "scores", F64: y.scores},
	}
}

// Uses implements Workload: each layer reads its input and weights and
// fills its output; the softmax and the output touch only the scores.
func (y *YOLO) Uses(i int) []Use {
	// Regions: frame, conv1.w, conv2.w, head.w, act1, act2, pool2.
	u := make([]Use, 7)
	switch i {
	case 0:
		u[0], u[1], u[4] = Reads, Reads, Overwrites
	case 1:
		u[4] = Reads
	case 2:
		u[2], u[5] = Reads, Overwrites
	case 3:
		u[5], u[6] = Reads, Overwrites
	case 4:
		u[3], u[6] = Reads, Reads
	}
	return u
}

// MNIST is a small fully connected classifier for handwritten digits; the
// paper runs it on the FPGA, where it is large enough to exercise the
// fabric but too small for GPUs.
type MNIST struct {
	size   int // input edge (16)
	hidden int
	w1     []float64
	w2     []float64
	in     []float64
	h      []float64
	scores []float64
}

// NewMNIST builds the classifier.
func NewMNIST() *MNIST {
	const size, hidden, classes = 16, 64, 10
	return &MNIST{
		size:   size,
		hidden: hidden,
		w1:     make([]float64, hidden*size*size),
		w2:     make([]float64, classes*hidden),
		in:     make([]float64, size*size),
		h:      make([]float64, hidden),
		scores: make([]float64, classes),
	}
}

// Name implements Workload.
func (m *MNIST) Name() string { return "MNIST" }

// Reset initializes weights and draws a synthetic digit (a bright stroke).
func (m *MNIST) Reset(seed uint64) {
	g := splitmix(seed)
	initWeights(m.w1, &g, m.size*m.size)
	initWeights(m.w2, &g, m.hidden)
	n := m.size
	for i := range m.in {
		m.in[i] = 0.05 * g.float()
	}
	// Vertical stroke with a random slant: a "1"-ish glyph.
	x := 4 + g.intn(8)
	slant := g.intn(3) - 1
	for yy := 2; yy < n-2; yy++ {
		px := clamp(x+slant*yy/8, n)
		m.in[yy*n+px] = 0.9
		m.in[yy*n+clamp(px+1, n)] = 0.6
	}
	zero(m.h)
	zero(m.scores)
}

// Steps implements Workload: hidden layer, output layer, softmax.
func (m *MNIST) Steps() int { return 3 }

// Step runs stage i.
func (m *MNIST) Step(i int) error {
	switch i {
	case 0:
		denseLayer(m.in, m.w1, m.h)
		for h, v := range m.h {
			if v < 0 {
				m.h[h] = 0
			}
		}
	case 1:
		denseLayer(m.h, m.w2, m.scores)
	case 2:
		softmax(m.scores)
	default:
		return fmt.Errorf("MNIST: step %d out of range", i)
	}
	return nil
}

// AppendOutput implements Workload (same detection criterion as YOLO).
func (m *MNIST) AppendOutput(dst []float64) []float64 { return appendDetection(dst, m.scores) }

// Regions implements Workload.
func (m *MNIST) Regions() []Region {
	return []Region{
		{Name: "digit", F64: m.in},
		{Name: "w1", F64: m.w1},
		{Name: "w2", F64: m.w2},
		{Name: "hidden", F64: m.h},
	}
}

// State implements Workload: the hidden layer and the scores.
func (m *MNIST) State() []Region {
	return []Region{
		{Name: "hidden", F64: m.h},
		{Name: "scores", F64: m.scores},
	}
}

// Uses implements Workload: the hidden layer reads the digit and w1, the
// output layer the hidden layer and w2; the softmax and the output touch
// only the scores.
func (m *MNIST) Uses(i int) []Use {
	switch i {
	case 0:
		return []Use{Reads, Reads, Unused, Overwrites}
	case 1:
		return []Use{Unused, Unused, Reads, Reads}
	}
	return []Use{Unused, Unused, Unused, Unused}
}

// Shared NN primitives -------------------------------------------------------

// conv2D applies chOut 3×3 filters over a chIn-channel square input with
// clamped borders, writing chOut feature maps; relu optionally rectifies.
// For each pixel it gathers the chIn×3×3 input patch through clamped row
// offsets and column indices tabled once per call, then takes the chOut
// filters as denseLayer rows over the patch, so every output is one sum
// from 0.0 in (ci, dy, dx) order. n ≤ yoloSize, chIn ≤ yoloC1 and
// chOut ≤ yoloC2: the tables and buffers live on the stack.
func conv2D(in []float64, n, chIn int, w []float64, chOut int, out []float64, relu bool) {
	var rowTab, colTab [3 * yoloSize]int
	var patchBuf [9 * yoloC1]float64
	var accBuf [yoloC2]float64
	for i := range n {
		for d := range 3 {
			colTab[3*i+d] = clamp(i+d-1, n)
			rowTab[3*i+d] = colTab[3*i+d] * n
		}
	}
	plane := n * n
	patch, acc := patchBuf[:9*chIn], accBuf[:chOut]
	for y := range n {
		rows := rowTab[3*y : 3*y+3]
		for x := range n {
			cols := colTab[3*x : 3*x+3]
			for ci := range chIn {
				src, dst := in[ci*plane:(ci+1)*plane], patch[9*ci:9*ci+9]
				for dy, r := range rows {
					dst[3*dy], dst[3*dy+1], dst[3*dy+2] = src[r+cols[0]], src[r+cols[1]], src[r+cols[2]]
				}
			}
			denseLayer(patch, w, acc)
			for co, sum := range acc {
				if relu && sum < 0 {
					sum = 0
				}
				out[(co*n+y)*n+x] = sum
			}
		}
	}
}

// maxPool halves each of ch n×n maps with 2×2 max pooling.
func maxPool(in []float64, n, ch int, out []float64) {
	half := n / 2
	for c := 0; c < ch; c++ {
		for y := 0; y < half; y++ {
			for x := 0; x < half; x++ {
				m := in[(c*n+2*y)*n+2*x]
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						v := in[(c*n+2*y+dy)*n+2*x+dx]
						if v > m {
							m = v
						}
					}
				}
				out[(c*half+y)*half+x] = m
			}
		}
	}
}

// denseLayer computes out = W·in with W laid out row-major
// (len(out) × len(in)), four rows at a time. Each output is still one sum
// over j = 0..len(in)-1 from 0.0, in j order, as a one-row loop gives;
// the four independent sums only interleave, which breaks each output's
// chain of dependent adds.
func denseLayer(in, w, out []float64) {
	cols := len(in)
	r := 0
	for ; r+4 <= len(out); r += 4 {
		w0, w1 := w[r*cols:(r+1)*cols], w[(r+1)*cols:(r+2)*cols]
		w2, w3 := w[(r+2)*cols:(r+3)*cols], w[(r+3)*cols:(r+4)*cols]
		var s0, s1, s2, s3 float64
		for j, v := range in {
			s0 += w0[j] * v
			s1 += w1[j] * v
			s2 += w2[j] * v
			s3 += w3[j] * v
		}
		out[r], out[r+1], out[r+2], out[r+3] = s0, s1, s2, s3
	}
	for ; r < len(out); r++ {
		sum := 0.0
		for j, v := range w[r*cols : (r+1)*cols] {
			sum += v * in[j]
		}
		out[r] = sum
	}
}

// softmax normalizes scores in place (numerically stabilized).
func softmax(scores []float64) {
	maxV := math.Inf(-1)
	for _, v := range scores {
		if v > maxV {
			maxV = v
		}
	}
	sum := 0.0
	for i, v := range scores {
		scores[i] = math.Exp(v - maxV)
		sum += scores[i]
	}
	if sum == 0 || math.IsNaN(sum) {
		return // leave raw; golden comparison will flag the corruption
	}
	for i := range scores {
		scores[i] /= sum
	}
}

// appendDetection appends the CNN correctness signature: argmax first, then
// confidences quantized to 0.01.
func appendDetection(dst, scores []float64) []float64 {
	best := 0
	for i, v := range scores {
		if v > scores[best] {
			best = i
		}
	}
	dst = append(dst, float64(best))
	for _, v := range scores {
		dst = append(dst, math.Round(v*100)/100)
	}
	return dst
}
