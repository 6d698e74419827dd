package workload

import (
	"fmt"
	"math"
)

// MxM ------------------------------------------------------------------------

// MxM is dense matrix multiplication C = A×B, the paper's representative of
// highly arithmetic compute-bound HPC codes (and CNN feature extraction).
type MxM struct {
	n       int
	a, b, c []float64
	// regions is A's n rows, then B, then C's n rows: the word order of
	// A‖B‖C, split by row so that a flip's region tells which step reads
	// it. Built once at its exact capacity, so appending to Regions()
	// copies it.
	regions []Region
}

// NewMxM builds an n×n matrix multiplication workload.
func NewMxM(n int) *MxM {
	if n < 2 {
		n = 2
	}
	m := &MxM{
		n:       n,
		a:       make([]float64, n*n),
		b:       make([]float64, n*n),
		c:       make([]float64, n*n),
		regions: make([]Region, 2*n+1),
	}
	m.regions[n] = Region{Name: "B", F64: m.b}
	for i := range n {
		m.regions[i] = Region{Name: "A", F64: m.a[i*n : (i+1)*n]}
		m.regions[n+1+i] = Region{Name: "C", F64: m.c[i*n : (i+1)*n]}
	}
	return m
}

// Name implements Workload.
func (m *MxM) Name() string { return "MxM" }

// Reset implements Workload.
func (m *MxM) Reset(seed uint64) {
	g := splitmix(seed)
	for i := range m.a {
		m.a[i] = 2*g.float() - 1
		m.b[i] = 2*g.float() - 1
		m.c[i] = 0
	}
}

// Steps implements Workload: one step per output row.
func (m *MxM) Steps() int { return m.n }

// Step computes row i of C, four columns at a time. Each element is still
// one sum over k = 0..n-1 from 0.0, in k order, so C is bit for bit the
// one-column loop's; the four independent sums only interleave, which
// breaks each element's chain of n dependent adds.
func (m *MxM) Step(i int) error {
	if i < 0 || i >= m.n {
		return fmt.Errorf("MxM: step %d out of range", i)
	}
	n := m.n
	a, c := m.a[i*n:(i+1)*n], m.c[i*n:(i+1)*n]
	j := 0
	for ; j+4 <= n; j += 4 {
		var s0, s1, s2, s3 float64
		for k, x := range a {
			b := m.b[k*n+j : k*n+j+4]
			s0 += x * b[0]
			s1 += x * b[1]
			s2 += x * b[2]
			s3 += x * b[3]
		}
		c[j], c[j+1], c[j+2], c[j+3] = s0, s1, s2, s3
	}
	for ; j < n; j++ {
		sum := 0.0
		for k, x := range a {
			sum += x * m.b[k*n+j]
		}
		c[j] = sum
	}
	return nil
}

// AppendOutput implements Workload.
func (m *MxM) AppendOutput(dst []float64) []float64 { return append(dst, m.c...) }

// Regions implements Workload: A's rows, B, then C's rows.
func (m *MxM) Regions() []Region { return m.regions }

// State implements Workload: steps write only C's rows.
func (m *MxM) State() []Region { return m.regions[m.n+1:] }

// Uses implements Workload: step i reads row i of A and all of B and
// overwrites row i of C without reading C; the output reads only C.
func (m *MxM) Uses(i int) []Use {
	n := m.n
	u := make([]Use, 2*n+1)
	if i == n {
		for r := n + 1; r < len(u); r++ {
			u[r] = Reads
		}
		return u
	}
	u[i], u[n], u[n+1+i] = Reads, Reads, Overwrites
	return u
}

// LUD ------------------------------------------------------------------------

// LUD performs an in-place Doolittle LU decomposition of a symmetric
// positive-definite matrix — the paper's dense linear-solver kernel.
type LUD struct {
	n int
	m []float64
}

// NewLUD builds an n×n decomposition workload.
func NewLUD(n int) *LUD {
	if n < 2 {
		n = 2
	}
	return &LUD{n: n, m: make([]float64, n*n)}
}

// Name implements Workload.
func (l *LUD) Name() string { return "LUD" }

// Reset fills the matrix with A·Aᵀ + n·I, which is SPD and hence safely
// factorizable without pivoting.
func (l *LUD) Reset(seed uint64) {
	g := splitmix(seed)
	n := l.n
	a := make([]float64, n*n)
	for i := range a {
		a[i] = 2*g.float() - 1
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			sum := 0.0
			for k := 0; k < n; k++ {
				sum += a[i*n+k] * a[j*n+k]
			}
			if i == j {
				sum += float64(n)
			}
			l.m[i*n+j] = sum
		}
	}
}

// Steps implements Workload: one elimination step per pivot column.
func (l *LUD) Steps() int { return l.n }

// Step eliminates column i. A vanishing pivot — which cannot occur on the
// clean SPD input — indicates corrupted state and reports ErrCorruptState.
func (l *LUD) Step(i int) error {
	n := l.n
	if i < 0 || i >= n {
		return fmt.Errorf("LUD: step %d out of range", i)
	}
	pivot := l.m[i*n+i]
	if math.Abs(pivot) < 1e-9 || math.IsNaN(pivot) || math.IsInf(pivot, 0) {
		return ErrCorruptState
	}
	for r := i + 1; r < n; r++ {
		f := l.m[r*n+i] / pivot
		l.m[r*n+i] = f
		for c := i + 1; c < n; c++ {
			l.m[r*n+c] -= f * l.m[i*n+c]
		}
	}
	return nil
}

// AppendOutput implements Workload.
func (l *LUD) AppendOutput(dst []float64) []float64 { return append(dst, l.m...) }

// Regions implements Workload.
func (l *LUD) Regions() []Region {
	return []Region{{Name: "M", F64: l.m}}
}

// State implements Workload: the decomposition is in place.
func (l *LUD) State() []Region { return l.Regions() }

// Uses implements Workload.
func (l *LUD) Uses(int) []Use { return []Use{Reads} }

// LavaMD ---------------------------------------------------------------------

// lavaNeighbors is the length of a box's neighbor list: the 27 boxes
// around it, itself included, with clamped coordinates.
const lavaNeighbors = 27

// LavaMD simulates short-range particle interactions across a 3-D grid of
// boxes, the paper's N-body / finite-difference representative.
type LavaMD struct {
	dim       int // boxes per axis
	particles int // particles per box
	pos       []float64
	charge    []float64
	force     []float64
	neighbors []uint32 // per box: lavaNeighbors indices of neighbor boxes
	// regions is the positions, the charges, the forces and the neighbor
	// lists, each one region per box: the word order of
	// positions‖charges‖forces‖neighbors, split by box so that a flip's
	// region tells which steps use it. Built once at its exact capacity.
	regions []Region
}

// NewLavaMD builds a dim³-box simulation with p particles per box.
func NewLavaMD(dim, p int) *LavaMD {
	if dim < 2 {
		dim = 2
	}
	if p < 1 {
		p = 1
	}
	boxes := dim * dim * dim
	l := &LavaMD{
		dim:       dim,
		particles: p,
		pos:       make([]float64, 3*boxes*p),
		charge:    make([]float64, boxes*p),
		force:     make([]float64, 3*boxes*p),
		neighbors: make([]uint32, boxes*lavaNeighbors),
		regions:   make([]Region, 4*boxes),
	}
	for b := range boxes {
		l.regions[b] = Region{Name: "positions", F64: l.pos[3*b*p : 3*(b+1)*p]}
		l.regions[boxes+b] = Region{Name: "charges", F64: l.charge[b*p : (b+1)*p]}
		l.regions[2*boxes+b] = Region{Name: "forces", F64: l.force[3*b*p : 3*(b+1)*p]}
		l.regions[3*boxes+b] = Region{Name: "neighbors", U32: l.neighbors[b*lavaNeighbors : (b+1)*lavaNeighbors]}
	}
	return l
}

// Name implements Workload.
func (l *LavaMD) Name() string { return "LavaMD" }

// Reset implements Workload.
func (l *LavaMD) Reset(seed uint64) {
	g := splitmix(seed)
	d := l.dim
	for b := 0; b < d*d*d; b++ {
		bx, by, bz := b%d, (b/d)%d, b/(d*d)
		for k := 0; k < l.particles; k++ {
			idx := b*l.particles + k
			l.pos[3*idx] = float64(bx) + g.float()
			l.pos[3*idx+1] = float64(by) + g.float()
			l.pos[3*idx+2] = float64(bz) + g.float()
			l.charge[idx] = 2*g.float() - 1
			l.force[3*idx] = 0
			l.force[3*idx+1] = 0
			l.force[3*idx+2] = 0
		}
		for n := range lavaNeighbors {
			l.neighbors[b*lavaNeighbors+n] = uint32(lavaNeighbor(b, n, d))
		}
	}
}

// lavaNeighbor is entry n of box b's neighbor list on a d³ grid: the box
// at offset (n%3-1, n/3%3-1, n/9-1) from b, its coordinates clamped to
// the grid. Reset fills the lists from it, and Uses names the boxes a
// step reads on the golden lists.
func lavaNeighbor(b, n, d int) int {
	bx, by, bz := b%d, (b/d)%d, b/(d*d)
	return clamp(bx+n%3-1, d) + clamp(by+n/3%3-1, d)*d + clamp(bz+n/9-1, d)*d*d
}

func clamp(v, n int) int {
	if v < 0 {
		return 0
	}
	if v >= n {
		return n - 1
	}
	return v
}

// Steps implements Workload: one step per box.
func (l *LavaMD) Steps() int { return l.dim * l.dim * l.dim }

// Step accumulates forces on the particles of box i from all neighbor
// boxes. A neighbor index pointing outside the grid is corrupted control
// state.
func (l *LavaMD) Step(i int) error {
	boxes := l.dim * l.dim * l.dim
	if i < 0 || i >= boxes {
		return fmt.Errorf("LavaMD: step %d out of range", i)
	}
	const cutoff2 = 2.25 // (1.5 box widths)²
	for k := 0; k < l.particles; k++ {
		pi := i*l.particles + k
		var fx, fy, fz float64
		for n := 0; n < lavaNeighbors; n++ {
			nb := l.neighbors[i*lavaNeighbors+n]
			if int(nb) >= boxes {
				return ErrCorruptState
			}
			for k2 := 0; k2 < l.particles; k2++ {
				pj := int(nb)*l.particles + k2
				if pj == pi {
					continue
				}
				dx := l.pos[3*pi] - l.pos[3*pj]
				dy := l.pos[3*pi+1] - l.pos[3*pj+1]
				dz := l.pos[3*pi+2] - l.pos[3*pj+2]
				r2 := dx*dx + dy*dy + dz*dz
				if r2 > cutoff2 || r2 < 1e-9 {
					continue
				}
				f := l.charge[pi] * l.charge[pj] / (r2 * math.Sqrt(r2))
				fx += f * dx
				fy += f * dy
				fz += f * dz
			}
		}
		l.force[3*pi] += fx
		l.force[3*pi+1] += fy
		l.force[3*pi+2] += fz
	}
	return nil
}

// AppendOutput implements Workload.
func (l *LavaMD) AppendOutput(dst []float64) []float64 { return append(dst, l.force...) }

// Regions implements Workload: the positions, the charges, the forces
// and the neighbor lists, each box by box.
func (l *LavaMD) Regions() []Region { return l.regions }

// State implements Workload: steps accumulate into the force boxes only.
func (l *LavaMD) State() []Region { return l.regions[2*l.Steps() : 3*l.Steps()] }

// Uses implements Workload: step i reads box i's neighbor list, the
// positions and charges of the boxes on it, and adds into box i's
// forces; the output reads only the forces. On the golden lists those
// boxes are the 8 to 27 distinct ones around box i. A corrupted list
// entry steers the step to other boxes, but the step reads that entry,
// and box i's forces and list are indexed by i alone.
func (l *LavaMD) Uses(i int) []Use {
	boxes := l.Steps()
	u := make([]Use, 4*boxes)
	if i == boxes {
		for b := range boxes {
			u[2*boxes+b] = Reads
		}
		return u
	}
	for n := range lavaNeighbors {
		nb := lavaNeighbor(i, n, l.dim)
		u[nb], u[boxes+nb] = Reads, Reads
	}
	u[2*boxes+i], u[3*boxes+i] = Reads, Reads
	return u
}

// HotSpot --------------------------------------------------------------------

// HotSpot is the 2-D thermal stencil solver: it iterates a heat-diffusion
// update over a processor floorplan's power map.
type HotSpot struct {
	n          int
	iterations int
	temp       []float64
	next       []float64
	power      []float64
}

// NewHotSpot builds an n×n grid solved for the given iteration count.
func NewHotSpot(n, iterations int) *HotSpot {
	if n < 4 {
		n = 4
	}
	if iterations < 1 {
		iterations = 1
	}
	return &HotSpot{
		n:          n,
		iterations: iterations,
		temp:       make([]float64, n*n),
		next:       make([]float64, n*n),
		power:      make([]float64, n*n),
	}
}

// Name implements Workload.
func (h *HotSpot) Name() string { return "HotSpot" }

// Reset implements Workload.
func (h *HotSpot) Reset(seed uint64) {
	g := splitmix(seed)
	for i := range h.temp {
		h.temp[i] = 45 + 10*g.float() // ambient-ish °C
		h.next[i] = 0
		h.power[i] = 0
	}
	// A few hot functional units.
	n := h.n
	for u := 0; u < 4; u++ {
		cx, cy := g.intn(n), g.intn(n)
		for dy := -2; dy <= 2; dy++ {
			for dx := -2; dx <= 2; dx++ {
				x, y := clamp(cx+dx, n), clamp(cy+dy, n)
				h.power[y*n+x] += 1.5
			}
		}
	}
}

// Steps implements Workload: one diffusion iteration per step.
func (h *HotSpot) Steps() int { return h.iterations }

// Step applies one explicit diffusion update. The new grid is built in the
// scratch buffer and copied back, so temp stays the same buffer.
func (h *HotSpot) Step(i int) error {
	if i < 0 || i >= h.iterations {
		return fmt.Errorf("HotSpot: step %d out of range", i)
	}
	n := h.n
	for y := range n {
		row := h.temp[y*n : (y+1)*n]
		up, down := h.temp[clamp(y-1, n)*n:][:n], h.temp[clamp(y+1, n)*n:][:n]
		power, next := h.power[y*n:][:n], h.next[y*n:][:n]
		next[0] = diffuse(row[0], up[0], down[0], row[0], row[1], power[0])
		for x := 1; x < n-1; x++ {
			next[x] = diffuse(row[x], up[x], down[x], row[x-1], row[x+1], power[x])
		}
		next[n-1] = diffuse(row[n-1], up[n-1], down[n-1], row[n-2], row[n-1], power[n-1])
	}
	copy(h.temp, h.next)
	return nil
}

// diffuse is one cell's explicit update from its temperature c, its four
// neighbors' and its power.
func diffuse(c, up, down, left, right, power float64) float64 {
	const k = 0.2
	return c + k*((up+down+left+right)/4-c) + 0.1*power
}

// AppendOutput implements Workload.
func (h *HotSpot) AppendOutput(dst []float64) []float64 { return append(dst, h.temp...) }

// Regions implements Workload.
func (h *HotSpot) Regions() []Region {
	return []Region{
		{Name: "temperature", F64: h.temp},
		{Name: "power", F64: h.power},
	}
}

// State implements Workload: the temperatures (next is scratch every
// step rewrites before reading).
func (h *HotSpot) State() []Region { return []Region{{Name: "temperature", F64: h.temp}} }

// Uses implements Workload.
func (h *HotSpot) Uses(i int) []Use {
	if i == h.iterations {
		return []Use{Reads, Unused}
	}
	return []Use{Reads, Reads}
}
