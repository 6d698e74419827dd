package workload

import (
	"fmt"
	"math"
)

// SC -------------------------------------------------------------------------

// SC is stream compaction, the paper's memory-bound data-manipulation
// primitive: it removes the elements failing a predicate from an array.
type SC struct {
	n      int
	chunks int
	data   []float64
	out    []float64
	flags  []uint32
	cursor []uint32 // [0] = write position; control state
}

// NewSC builds a stream-compaction workload over n elements.
func NewSC(n int) *SC {
	if n < 16 {
		n = 16
	}
	return &SC{
		n:      n,
		chunks: 16,
		data:   make([]float64, n),
		out:    make([]float64, n),
		flags:  make([]uint32, n),
		cursor: make([]uint32, 1),
	}
}

// Name implements Workload.
func (c *SC) Name() string { return "SC" }

// Reset implements Workload.
func (c *SC) Reset(seed uint64) {
	g := splitmix(seed)
	for i := range c.data {
		c.data[i] = 2*g.float() - 1
		c.out[i] = 0
		if c.data[i] > 0 {
			c.flags[i] = 1
		} else {
			c.flags[i] = 0
		}
	}
	c.cursor[0] = 0
}

// Steps implements Workload: the array is compacted chunk by chunk.
func (c *SC) Steps() int { return c.chunks }

// Step compacts chunk i. A write cursor pointing outside the output array
// is corrupted control state.
func (c *SC) Step(i int) error {
	if i < 0 || i >= c.chunks {
		return fmt.Errorf("SC: step %d out of range", i)
	}
	chunk := (c.n + c.chunks - 1) / c.chunks
	lo := i * chunk
	hi := lo + chunk
	if hi > c.n {
		hi = c.n
	}
	for j := lo; j < hi; j++ {
		if c.flags[j] == 0 {
			continue
		}
		if c.flags[j] != 1 {
			return ErrCorruptState // flags are strictly 0/1
		}
		w := c.cursor[0]
		if int(w) >= c.n {
			return ErrCorruptState
		}
		c.out[w] = c.data[j]
		c.cursor[0] = w + 1
	}
	return nil
}

// AppendOutput implements Workload: the compacted prefix plus the final
// count.
func (c *SC) AppendOutput(dst []float64) []float64 {
	return append(append(dst, c.out...), float64(c.cursor[0]))
}

// Regions implements Workload.
func (c *SC) Regions() []Region {
	return []Region{
		{Name: "data", F64: c.data},
		{Name: "out", F64: c.out},
		{Name: "flags", U32: c.flags},
		{Name: "cursor", U32: c.cursor},
	}
}

// State implements Workload: the compacted output and its write cursor.
func (c *SC) State() []Region {
	return []Region{
		{Name: "out", F64: c.out},
		{Name: "cursor", U32: c.cursor},
	}
}

// Uses implements Workload: a step reads its chunk and appends to out.
func (c *SC) Uses(i int) []Use {
	if i == c.chunks {
		return []Use{Unused, Reads, Unused, Reads}
	}
	return []Use{Reads, Reads, Reads, Reads}
}

// CED ------------------------------------------------------------------------

// CED is Canny-style edge detection on a synthetic frame: Gaussian blur,
// Sobel gradients, and hysteresis-free thresholding. The paper runs it
// concurrently on the APU's CPU and GPU.
type CED struct {
	n     int
	img   []float64
	blur  []float64
	grad  []float64
	edges []float64
}

// NewCED builds an n×n edge-detection workload.
func NewCED(n int) *CED {
	if n < 8 {
		n = 8
	}
	return &CED{
		n:     n,
		img:   make([]float64, n*n),
		blur:  make([]float64, n*n),
		grad:  make([]float64, n*n),
		edges: make([]float64, n*n),
	}
}

// Name implements Workload.
func (c *CED) Name() string { return "CED" }

// Reset paints a synthetic scene: gradient background with bright boxes
// (urban-dataset-like content without the dataset).
func (c *CED) Reset(seed uint64) {
	g := splitmix(seed)
	n := c.n
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			c.img[y*n+x] = float64(x)/float64(n)*0.3 + 0.05*g.float()
		}
	}
	for b := 0; b < 3; b++ {
		cx, cy := g.intn(n), g.intn(n)
		w := 3 + g.intn(5)
		for dy := 0; dy < w; dy++ {
			for dx := 0; dx < w; dx++ {
				x, y := clamp(cx+dx, n), clamp(cy+dy, n)
				c.img[y*n+x] = 0.9
			}
		}
	}
	for i := range c.blur {
		c.blur[i], c.grad[i], c.edges[i] = 0, 0, 0
	}
}

// Steps implements Workload: blur, gradient, threshold.
func (c *CED) Steps() int { return 3 }

// Step runs pipeline stage i.
func (c *CED) Step(i int) error {
	n := c.n
	switch i {
	case 0: // 3×3 Gaussian blur
		k := [3][3]float64{{1, 2, 1}, {2, 4, 2}, {1, 2, 1}}
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				sum := 0.0
				for dy := -1; dy <= 1; dy++ {
					for dx := -1; dx <= 1; dx++ {
						sum += k[dy+1][dx+1] * c.img[clamp(y+dy, n)*n+clamp(x+dx, n)]
					}
				}
				c.blur[y*n+x] = sum / 16
			}
		}
	case 1: // Sobel gradient magnitude
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				p := func(dx, dy int) float64 {
					return c.blur[clamp(y+dy, n)*n+clamp(x+dx, n)]
				}
				gx := -p(-1, -1) - 2*p(-1, 0) - p(-1, 1) + p(1, -1) + 2*p(1, 0) + p(1, 1)
				gy := -p(-1, -1) - 2*p(0, -1) - p(1, -1) + p(-1, 1) + 2*p(0, 1) + p(1, 1)
				c.grad[y*n+x] = math.Sqrt(gx*gx + gy*gy)
			}
		}
	case 2: // threshold
		for j, v := range c.grad {
			if v > 0.4 {
				c.edges[j] = 1
			} else {
				c.edges[j] = 0
			}
		}
	default:
		return fmt.Errorf("CED: step %d out of range", i)
	}
	return nil
}

// AppendOutput implements Workload.
func (c *CED) AppendOutput(dst []float64) []float64 { return append(dst, c.edges...) }

// Regions implements Workload.
func (c *CED) Regions() []Region {
	return []Region{
		{Name: "frame", F64: c.img},
		{Name: "blur", F64: c.blur},
		{Name: "gradient", F64: c.grad},
		{Name: "edges", F64: c.edges},
	}
}

// State implements Workload: every pipeline buffer but the input frame.
func (c *CED) State() []Region {
	return []Region{
		{Name: "blur", F64: c.blur},
		{Name: "gradient", F64: c.grad},
		{Name: "edges", F64: c.edges},
	}
}

// Uses implements Workload: each stage reads its input buffer and fills
// its output buffer.
func (c *CED) Uses(i int) []Use {
	switch i {
	case 0:
		return []Use{Reads, Overwrites, Unused, Unused}
	case 1:
		return []Use{Unused, Reads, Overwrites, Unused}
	case 2:
		return []Use{Unused, Unused, Reads, Overwrites}
	}
	return []Use{Unused, Unused, Unused, Reads}
}

// BFS ------------------------------------------------------------------------

// unvisited marks a node not yet reached by the search.
const unvisited = math.MaxUint32

// BFS is level-synchronous breadth-first search over a synthetic road-like
// graph (ring plus random shortcuts), the paper's irregular-memory-access
// code used in navigation systems.
type BFS struct {
	n       int
	degree  int
	offsets []uint32 // CSR offsets, len n+1
	edges   []uint32 // CSR targets
	dist    []uint32
	levels  int
}

// NewBFS builds a BFS workload over n nodes with the given average degree.
func NewBFS(n, degree int) *BFS {
	if n < 8 {
		n = 8
	}
	if degree < 2 {
		degree = 2
	}
	return &BFS{
		n:       n,
		degree:  degree,
		offsets: make([]uint32, n+1),
		edges:   make([]uint32, n*degree),
		dist:    make([]uint32, n),
		levels:  64,
	}
}

// Name implements Workload.
func (b *BFS) Name() string { return "BFS" }

// Reset builds the graph: each node links to its ring successor and
// degree-1 random shortcuts, giving small-world distances.
func (b *BFS) Reset(seed uint64) {
	g := splitmix(seed)
	e := 0
	for v := 0; v < b.n; v++ {
		b.offsets[v] = uint32(e)
		b.edges[e] = uint32((v + 1) % b.n)
		e++
		for k := 1; k < b.degree; k++ {
			b.edges[e] = uint32(g.intn(b.n))
			e++
		}
		b.dist[v] = unvisited
	}
	b.offsets[b.n] = uint32(e)
	b.dist[0] = 0
}

// Steps implements Workload: one frontier level per step, up to the level
// watchdog.
func (b *BFS) Steps() int { return b.levels }

// Step relaxes the frontier at distance i. Edge targets or offsets outside
// the graph are corrupted control state.
func (b *BFS) Step(i int) error {
	if i < 0 || i >= b.levels {
		return fmt.Errorf("BFS: step %d out of range", i)
	}
	level := uint32(i)
	for v := 0; v < b.n; v++ {
		if b.dist[v] != level {
			continue
		}
		lo, hi := b.offsets[v], b.offsets[v+1]
		if lo > hi || int(hi) > len(b.edges) {
			return ErrCorruptState
		}
		for e := lo; e < hi; e++ {
			t := b.edges[e]
			if int(t) >= b.n {
				return ErrCorruptState
			}
			if b.dist[t] == unvisited {
				b.dist[t] = level + 1
			}
		}
	}
	return nil
}

// AppendOutput implements Workload.
func (b *BFS) AppendOutput(dst []float64) []float64 {
	for _, d := range b.dist {
		dst = append(dst, float64(d))
	}
	return dst
}

// Regions implements Workload.
func (b *BFS) Regions() []Region {
	return []Region{
		{Name: "offsets", U32: b.offsets},
		{Name: "edges", U32: b.edges},
		{Name: "dist", U32: b.dist},
	}
}

// State implements Workload: the search writes only the distances.
func (b *BFS) State() []Region { return []Region{{Name: "dist", U32: b.dist}} }

// Uses implements Workload.
func (b *BFS) Uses(i int) []Use {
	if i == b.levels {
		return []Use{Unused, Unused, Reads}
	}
	return []Use{Reads, Reads, Reads}
}
