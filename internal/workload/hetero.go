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
	// regions is the data chunk by chunk, the output, the flags chunk by
	// chunk, then the cursor: the word order of data‖out‖flags‖cursor,
	// split by chunk so that a flip's region tells which step reads it.
	// Built once at its exact capacity.
	regions []Region
}

// NewSC builds a stream-compaction workload over n elements.
func NewSC(n int) *SC {
	if n < 16 {
		n = 16
	}
	const chunks = 16
	c := &SC{
		n:       n,
		chunks:  chunks,
		data:    make([]float64, n),
		out:     make([]float64, n),
		flags:   make([]uint32, n),
		cursor:  make([]uint32, 1),
		regions: make([]Region, 2*chunks+2),
	}
	c.regions[chunks] = Region{Name: "out", F64: c.out}
	c.regions[2*chunks+1] = Region{Name: "cursor", U32: c.cursor}
	for i := range chunks {
		lo, hi := c.chunk(i)
		c.regions[i] = Region{Name: "data", F64: c.data[lo:hi]}
		c.regions[chunks+1+i] = Region{Name: "flags", U32: c.flags[lo:hi]}
	}
	return c
}

// chunk is the element range step i compacts.
func (c *SC) chunk(i int) (lo, hi int) {
	size := (c.n + c.chunks - 1) / c.chunks
	return min(i*size, c.n), min((i+1)*size, c.n)
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
	lo, hi := c.chunk(i)
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

// Regions implements Workload: the data chunks, the output, the flag
// chunks, then the cursor.
func (c *SC) Regions() []Region { return c.regions }

// State implements Workload: the compacted output and its write cursor.
func (c *SC) State() []Region {
	return []Region{c.regions[c.chunks], c.regions[2*c.chunks+1]}
}

// Uses implements Workload: step i reads data chunk i and flags chunk i,
// and appends to the output at the cursor; the output reads the output
// and the cursor. The chunks are indexed by i alone, and the cursor,
// which steers the writes, is read at every step.
func (c *SC) Uses(i int) []Use {
	u := make([]Use, len(c.regions))
	u[c.chunks], u[2*c.chunks+1] = Reads, Reads
	if i < c.chunks {
		u[i], u[c.chunks+1+i] = Reads, Reads
	}
	return u
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
	// level is each node's distance on the input graph, as the search
	// finds it (unvisited where it never does): Reset records it, so Uses
	// can name the chunks each step reads on the golden graph.
	level []uint32
	// regions is the offsets and the edges, each one region per chunk of
	// bfsChunk nodes, then the distances: the word order of
	// offsets‖edges‖dist, split by chunk so that a flip's region tells
	// which steps read it. Built once at its exact capacity.
	regions []Region
}

// bfsChunk is the number of nodes whose offsets and edges share a region.
const bfsChunk = 16

// NewBFS builds a BFS workload over n nodes with the given average degree.
func NewBFS(n, degree int) *BFS {
	if n < 8 {
		n = 8
	}
	if degree < 2 {
		degree = 2
	}
	chunks := (n + bfsChunk - 1) / bfsChunk
	b := &BFS{
		n:       n,
		degree:  degree,
		offsets: make([]uint32, n+1),
		edges:   make([]uint32, n*degree),
		dist:    make([]uint32, n),
		levels:  64,
		level:   make([]uint32, n),
		regions: make([]Region, 2*chunks+1),
	}
	for c := range chunks {
		lo, hi := c*bfsChunk, min((c+1)*bfsChunk, n)
		if c == chunks-1 {
			b.regions[c] = Region{Name: "offsets", U32: b.offsets[lo:]}
		} else {
			b.regions[c] = Region{Name: "offsets", U32: b.offsets[lo:hi]}
		}
		b.regions[chunks+c] = Region{Name: "edges", U32: b.edges[lo*degree : hi*degree]}
	}
	b.regions[2*chunks] = Region{Name: "dist", U32: b.dist}
	return b
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
	// Record the levels the search will find: each pass expands one
	// level as Step does, until a level reaches no new node.
	copy(b.level, b.dist)
	for l, more := uint32(0), true; more; l++ {
		more = false
		for v, d := range b.level {
			if d != l {
				continue
			}
			for _, t := range b.edges[b.offsets[v]:b.offsets[v+1]] {
				if b.level[t] == unvisited {
					b.level[t], more = l+1, true
				}
			}
		}
	}
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

// Regions implements Workload: the offset chunks, the edge chunks, then
// the distances.
func (b *BFS) Regions() []Region { return b.regions }

// State implements Workload: the search writes only the distances.
func (b *BFS) State() []Region { return b.regions[len(b.regions)-1:] }

// Uses implements Workload: step i reads every distance, and the offsets
// and edges of the nodes at level i of the input graph; the output reads
// only the distances. Node v's offsets are words v and v+1, which may lie
// in the next chunk, and its edges lie in its own chunk. A corrupted
// distance, offset or edge target steers the step to other nodes, but
// the step reads that word first.
func (b *BFS) Uses(i int) []Use {
	chunks := len(b.regions) / 2
	u := make([]Use, len(b.regions))
	u[2*chunks] = Reads
	if i == b.levels {
		return u
	}
	for v, l := range b.level {
		if l == uint32(i) {
			c := v / bfsChunk
			u[c], u[min((v+1)/bfsChunk, chunks-1)], u[chunks+c] = Reads, Reads, Reads
		}
	}
	return u
}
