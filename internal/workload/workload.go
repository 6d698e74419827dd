// Package workload implements the nine benchmark codes the paper runs on
// its devices (§III-B): four HPC kernels (MxM, LUD, LavaMD, HotSpot), three
// heterogeneous codes (SC, CED, BFS), and two neural networks (YOLO,
// MNIST).
//
// Each workload executes in discrete steps between which the fault injector
// may flip bits in its exposed memory regions; its final output is compared
// bit-exactly against a golden run to detect SDCs, while corrupted control
// state and runaway iteration surface as errors (the DUE path).
package workload

import (
	"errors"
	"fmt"
	"math"
)

// ErrCorruptState marks detectably corrupted control state, the analogue
// of a crash or illegal access. A workload returning it from Step is what
// the beam harness classifies as a DUE (the application "dies or gets
// stuck", §III-C); faults in control logic are the other source of DUEs.
var ErrCorruptState = errors.New("workload: corrupt control state")

// Workload is a deterministic, stepwise, fault-injectable kernel.
type Workload interface {
	// Name is the benchmark's short name (e.g. "MxM").
	Name() string
	// Reset (re)initializes all inputs and state from the seed.
	Reset(seed uint64)
	// Steps is the number of execution steps after Reset.
	Steps() int
	// Step runs step i (0-based). It returns ErrCorruptState when
	// injected faults break control flow, and an error for an i outside
	// [0, Steps()).
	Step(i int) error
	// AppendOutput appends the result signature used for golden
	// comparison to dst and returns the extended slice, so a replay loop
	// can reuse one buffer. For the CNNs this is the quantized detection
	// output (class + confidence), matching how the paper judges CNN
	// correctness.
	AppendOutput(dst []float64) []float64
	// Regions exposes the mutable state for fault injection.
	Regions() []Region
	// State returns every buffer Step writes that carries data across a
	// step boundary, injectable or not; a scratch buffer each step fully
	// rewrites before reading it may be left out. Step must never write
	// an injectable region outside State: the fault injector checkpoints
	// State at each step boundary of the golden run and copies those
	// checkpoints into State where a faulty run skips steps, so it
	// restores only State and undoes its own bit flips everywhere else.
	//
	// State lists the injectable buffers it holds in the order Regions
	// lists them. Regions and State return the same buffers, in the same
	// order, for the workload's whole lifetime; callers must not modify
	// the returned slices.
	State() []Region
	// Uses reports how step i uses each of Regions(), in order; i ==
	// Steps() stands for AppendOutput, which never overwrites. It
	// describes step i when every region it declares Reads holds its
	// golden content, the content the fault-free run from the same Reset
	// gives it before step i: the step then touches no region it declares
	// Unused, and writes every word of a region it declares Overwrites
	// before it reads any. Whatever any region holds, a step writes no
	// injectable region it declares Unused, and only State regions may be
	// declared Overwrites.
	//
	// The fault injector lands each bit flip in memory when it is drawn,
	// and runs a step only when the step reads a region that may differ
	// from the golden run, so a declaration may overstate Reads but must
	// never understate it. A step that a corrupted index steers elsewhere
	// (a LavaMD neighbor entry, a BFS edge target or distance, SC's
	// cursor) reads that index, so it runs, and reads whatever the
	// corrupted run holds where it is steered.
	Uses(i int) []Use
}

// Use is how one step uses one injectable region.
type Use uint8

// Region uses.
const (
	// Unused: the step neither reads nor writes the region.
	Unused Use = iota
	// Reads: the step may read the region, or write part of it.
	Reads
	// Overwrites: the step writes every word of the region before it
	// reads any.
	Overwrites
)

// Region is one injectable memory region. Exactly one of F64 or U32 is
// non-nil. U32 regions hold control-ish state (indices, flags) whose
// corruption tends toward DUEs; F64 regions hold data.
type Region struct {
	Name string
	F64  []float64
	U32  []uint32
}

// Words returns the number of injectable words in the region.
func (r Region) Words() int {
	if r.F64 != nil {
		return len(r.F64)
	}
	return len(r.U32)
}

// BitsPerWord returns the word width in bits.
func (r Region) BitsPerWord() int {
	if r.F64 != nil {
		return 64
	}
	return 32
}

// FlipBit flips one bit of one word in place. It returns an error for
// out-of-range coordinates.
func (r Region) FlipBit(word, bit int) error {
	if word < 0 || word >= r.Words() {
		return fmt.Errorf("workload: word %d out of range [0,%d)", word, r.Words())
	}
	if bit < 0 || bit >= r.BitsPerWord() {
		return fmt.Errorf("workload: bit %d out of range [0,%d)", bit, r.BitsPerWord())
	}
	if r.F64 != nil {
		r.F64[word] = math.Float64frombits(math.Float64bits(r.F64[word]) ^ (1 << uint(bit)))
		return nil
	}
	r.U32[word] ^= 1 << uint(bit)
	return nil
}

// TotalWords sums injectable words over a region set.
func TotalWords(regions []Region) int {
	n := 0
	for _, r := range regions {
		n += r.Words()
	}
	return n
}

// InputSeed is the one input every beam campaign runs each code on. At
// the beam a code runs one input again and again, and every run's output
// is compared with one golden copy computed before irradiation, so a
// campaign's seed drives only its beam streams. It is 42 because the
// injection ablations (A2, A6) already measure that input: their AVFs and
// the campaigns' masking then describe the same input.
const InputSeed = 42

// Registry ------------------------------------------------------------------

// New constructs a workload by name. Names match the paper's benchmark
// list: MxM, LUD, LavaMD, HotSpot, SC, CED, BFS, YOLO, MNIST.
func New(name string) (Workload, error) {
	switch name {
	case "MxM":
		return NewMxM(24), nil
	case "LUD":
		return NewLUD(32), nil
	case "LavaMD":
		return NewLavaMD(3, 8), nil
	case "HotSpot":
		return NewHotSpot(32, 16), nil
	case "SC":
		return NewSC(4096), nil
	case "CED":
		return NewCED(48), nil
	case "BFS":
		return NewBFS(1024, 4), nil
	case "YOLO":
		return NewYOLO(), nil
	case "MNIST":
		return NewMNIST(), nil
	default:
		return nil, fmt.Errorf("workload: unknown benchmark %q", name)
	}
}

// Names lists all benchmarks in the paper's order.
func Names() []string {
	return []string{"MxM", "LUD", "LavaMD", "HotSpot", "SC", "CED", "BFS", "YOLO", "MNIST"}
}

// ForDeviceKind returns the benchmark names the paper runs on a device
// class (§III-B): HPC codes on Xeon Phi and GPUs (plus YOLO on GPUs),
// heterogeneous codes on the APU, and the CNNs on the FPGA.
func ForDeviceKind(kind string) []string {
	switch kind {
	case "accelerator": // Xeon Phi
		return []string{"MxM", "LUD", "LavaMD", "HotSpot"}
	case "GPU":
		return []string{"MxM", "LUD", "LavaMD", "HotSpot", "YOLO"}
	case "APU":
		return []string{"SC", "CED", "BFS"}
	case "FPGA":
		return []string{"MNIST", "YOLO"}
	default:
		return nil
	}
}

// splitmix is a tiny deterministic generator for input initialization; the
// workloads must not depend on package rng to keep the dependency graph
// one-directional (rng is for the simulators).
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	x := uint64(*s)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// float returns a uniform value in [0, 1).
func (s *splitmix) float() float64 {
	return float64(s.next()>>11) / (1 << 53)
}

// intn returns a uniform int in [0, n).
func (s *splitmix) intn(n int) int {
	return int(s.next() % uint64(n))
}
