// Package faultinject turns device-level radiation faults into workload
// outcomes, applying the beam-experiment classification of the paper
// (§III-C): an output mismatch against a fault-free golden copy is an SDC;
// an application that dies or gets stuck is a DUE; anything else is masked.
package faultinject

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"neutronsim/internal/device"
	"neutronsim/internal/rng"
	"neutronsim/internal/workload"
)

// Outcome classifies the effect of injected faults on one run.
type Outcome int

// Outcomes.
const (
	OutcomeMasked Outcome = iota + 1
	OutcomeSDC
	OutcomeDUE
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeMasked:
		return "masked"
	case OutcomeSDC:
		return "SDC"
	case OutcomeDUE:
		return "DUE"
	default:
		return "unknown"
	}
}

// Timed is a device fault scheduled before a workload step.
type Timed struct {
	Step  int
	Fault device.Fault
}

// Config tunes the injector.
type Config struct {
	// ControlDUEProb is the probability that a control-logic fault
	// actually brings the run down (the rest are architecturally masked).
	// It applies identically to both neutron bands, preserving the
	// calibrated band ratios. Default 0.6.
	ControlDUEProb float64
}

func (c Config) withDefaults() Config {
	if c.ControlDUEProb <= 0 {
		c.ControlDUEProb = 0.6
	}
	return c
}

// Result is the classified outcome of one injected run.
type Result struct {
	Outcome Outcome
	// Err is the step error for DUEs caused by the workload itself
	// (hang / corrupt state); nil for control-logic DUEs.
	Err error
	// FlippedBits is the number of state bits actually flipped.
	FlippedBits int
}

// GoldenRun is one workload's fault-free execution from one seed: its
// output, a checkpoint of its State before every step, and where each
// region's next use lies. It is never written after RecordGolden returns,
// so any number of injectors — every shard of a campaign — can replay
// against one.
type GoldenRun struct {
	name   string
	seed   uint64
	output []float64
	// checkpoints[k] holds the content of every State buffer before step
	// k, sharing unchanged blocks with checkpoint k-1.
	checkpoints [][]snapshot
	// readOnly[r] reports whether Regions()[r] lies outside State: no
	// step writes it, so a replay restores it by undoing the bits it
	// flipped there instead of copying it.
	readOnly []bool
	// observe[k][r] is the first step at or after k that uses region r,
	// which is where a bit flipped in r before step k first matters
	// (len(checkpoints) when only the output reads it). It is -1 when
	// that use overwrites r, or nothing uses r again: the flip never
	// matters.
	observe [][]int
}

// RecordGolden resets w from seed, runs it to completion without faults,
// and records the golden run. It fails if a step fails or if w breaks the
// State contract: a step that writes an injectable region outside State,
// or buffers that move while the workload runs.
func RecordGolden(w workload.Workload, seed uint64) (*GoldenRun, error) {
	if w == nil {
		return nil, errors.New("faultinject: nil workload")
	}
	steps := w.Steps()
	if steps < 1 {
		return nil, fmt.Errorf("faultinject: %s has no steps", w.Name())
	}
	w.Reset(seed)
	regions, state := w.Regions(), w.State()
	g := &GoldenRun{name: w.Name(), seed: seed, readOnly: readOnly(regions, state), checkpoints: make([][]snapshot, steps)}
	var err error
	if g.observe, err = observe(w, steps, len(regions)); err != nil {
		return nil, err
	}
	before := make([]uint64, len(regions))
	for i, r := range regions {
		if g.readOnly[i] {
			before[i] = checksum(r)
		}
	}
	// Every checkpoint's snapshots and block lists are allocated together.
	nf, nu := 0, 0
	for _, r := range state {
		nf, nu = nf+numBlocks(len(r.F64)), nu+numBlocks(len(r.U32))
	}
	lists := blockLists{f64: make([][]float64, 0, steps*nf), u32: make([][]uint32, 0, steps*nu)}
	snaps, prev := make([]snapshot, steps*len(state)), make([]snapshot, len(state))
	for k := range steps {
		cp := snaps[k*len(state) : (k+1)*len(state) : (k+1)*len(state)]
		for j, r := range state {
			cp[j] = takeSnapshot(r, prev[j], &lists)
		}
		g.checkpoints[k], prev = cp, cp
		if err := w.Step(k); err != nil {
			return nil, fmt.Errorf("faultinject: golden run failed at step %d: %w", k, err)
		}
	}
	if !slices.EqualFunc(w.Regions(), regions, sameBuffer) || !slices.EqualFunc(w.State(), state, sameBuffer) {
		return nil, fmt.Errorf("faultinject: %s moved its buffers during the golden run", g.name)
	}
	for i, r := range regions {
		if g.readOnly[i] && checksum(r) != before[i] {
			return nil, fmt.Errorf("faultinject: %s steps write region %q, which State omits", g.name, r.Name)
		}
	}
	g.output = w.AppendOutput(nil)
	return g, nil
}

// observe derives GoldenRun.observe from w's Uses declarations, walking
// back from the output.
func observe(w workload.Workload, steps, regions int) ([][]int, error) {
	obs := make([][]int, steps+1)
	for k := steps; k >= 0; k-- {
		uses := w.Uses(k)
		if len(uses) != regions {
			return nil, fmt.Errorf("faultinject: %s declares %d region uses at step %d, want %d", w.Name(), len(uses), k, regions)
		}
		obs[k] = make([]int, regions)
		for r, u := range uses {
			switch {
			case u == workload.Reads:
				obs[k][r] = k
			case u == workload.Unused && k < steps:
				obs[k][r] = obs[k+1][r]
			case u == workload.Unused, u == workload.Overwrites && k < steps:
				obs[k][r] = -1
			default: // an unknown use, or an output that overwrites
				return nil, fmt.Errorf("faultinject: %s declares use %d of region %d at step %d", w.Name(), u, r, k)
			}
		}
	}
	return obs[:steps], nil
}

// NewInjector resets w from the golden run's seed and returns an injector
// that replays w against g. w must be a fresh instance of the recorded
// workload: same name and same buffer shapes.
func (g *GoldenRun) NewInjector(w workload.Workload, cfg Config) (*Injector, error) {
	if w == nil {
		return nil, errors.New("faultinject: nil workload")
	}
	regions, state := w.Regions(), w.State()
	if w.Name() != g.name || w.Steps() != len(g.checkpoints) ||
		!slices.Equal(readOnly(regions, state), g.readOnly) ||
		!slices.EqualFunc(g.checkpoints[0], state, snapshot.fits) {
		return nil, fmt.Errorf("faultinject: %s workload does not match the golden %s run", w.Name(), g.name)
	}
	w.Reset(g.seed)
	return g.injector(w, regions, state, cfg), nil
}

func (g *GoldenRun) injector(w workload.Workload, regions, state []workload.Region, cfg Config) *Injector {
	return &Injector{w: w, golden: g, cfg: cfg.withDefaults(), regions: regions, words: workload.TotalWords(regions), state: state}
}

// Injector replays one live workload instance under injected faults. A
// faulty run starts from the golden checkpoint at the first step that can
// see one of its flips rather than from Reset: the steps before it would
// recompute that checkpoint bit for bit. It is not safe for concurrent
// use; use one Injector per goroutine.
type Injector struct {
	w      workload.Workload
	golden *GoldenRun
	cfg    Config
	// regions (words in total) and state are w's buffers, fetched once:
	// they stay put for the workload's lifetime.
	regions []workload.Region
	words   int
	state   []workload.Region
	// scratch, flips and out are the reusable data-fault, bit-flip and
	// output buffers of Run; keeping them on the injector makes repeated
	// injections allocation-free once their capacity has grown to the
	// campaign's fault-count high-water mark.
	scratch []Timed
	flips   []flip
	out     []float64
	// undo lists the bits flipped in read-only regions since the last
	// restore. Flipping them again restores those regions exactly.
	undo []flip
}

// flip is one drawn bit flip, to be applied before step at (-1: never).
type flip struct{ region, word, bit, at int }

// NewInjector records w's golden run from seed (RecordGolden) and returns
// an injector replaying w itself against it.
func NewInjector(w workload.Workload, seed uint64, cfg Config) (*Injector, error) {
	g, err := RecordGolden(w, seed)
	if err != nil {
		return nil, err
	}
	return g.injector(w, w.Regions(), w.State(), cfg), nil
}

// Steps is the replayed workload's step count.
func (inj *Injector) Steps() int { return len(inj.golden.checkpoints) }

// Run replays the workload under the faults, each landing before its step,
// and classifies the outcome.
func (inj *Injector) Run(faults []Timed, s *rng.Stream) Result {
	// Control-logic faults act at the architecture level, independent of
	// the program state: each takes the run down with ControlDUEProb.
	dataFaults := inj.scratch[:0]
	for _, f := range faults {
		if f.Fault.Target == device.TargetControl {
			if s.Bernoulli(inj.cfg.ControlDUEProb) {
				return Result{Outcome: OutcomeDUE}
			}
			continue // masked control fault
		}
		dataFaults = append(dataFaults, f)
	}
	inj.scratch = dataFaults
	if len(dataFaults) == 0 {
		return Result{Outcome: OutcomeMasked}
	}
	// Fault lists are tiny (λ is tuned toward ~1 fault per run), so a
	// stable insertion sort beats sort.SliceStable and allocates nothing.
	for i := 1; i < len(dataFaults); i++ {
		for j := i; j > 0 && dataFaults[j].Step < dataFaults[j-1].Step; j-- {
			dataFaults[j], dataFaults[j-1] = dataFaults[j-1], dataFaults[j]
		}
	}
	// Every flip is drawn in fault order, exactly when the step-by-step
	// replay would draw it: the faults landing before any step could see
	// a flip are drawn up front, the rest as the replay reaches their
	// steps. A flip is deferred to the first step that uses its region
	// (observe), so the replay resumes from the golden checkpoint there:
	// the steps before it cannot see any flip and would recompute that
	// checkpoint bit for bit.
	steps := len(inj.golden.checkpoints)
	inj.flips = inj.flips[:0]
	resume, next, live := steps, 0, false
	for ; next < len(dataFaults); next++ {
		k := clampStep(dataFaults[next].Step, steps)
		if k > resume {
			break
		}
		for _, f := range inj.draw(dataFaults[next].Fault, k, s) {
			if f.at >= 0 {
				resume, live = min(resume, f.at), true
			}
		}
	}
	flipped := len(inj.flips)
	if !live {
		return Result{Outcome: OutcomeMasked, FlippedBits: flipped}
	}
	resume = min(resume, steps-1) // output-only flips still need a final state
	inj.restore(resume)
	for i := resume; i < steps; i++ {
		for ; next < len(dataFaults) && clampStep(dataFaults[next].Step, steps) == i; next++ {
			flipped += len(inj.draw(dataFaults[next].Fault, i, s))
		}
		inj.flipAt(i)
		if err := inj.w.Step(i); err != nil {
			return Result{Outcome: OutcomeDUE, Err: err, FlippedBits: flipped}
		}
	}
	inj.flipAt(steps)
	inj.out = inj.w.AppendOutput(inj.out[:0])
	if !slices.Equal(inj.out, inj.golden.output) {
		return Result{Outcome: OutcomeSDC, FlippedBits: flipped}
	}
	return Result{Outcome: OutcomeMasked, FlippedBits: flipped}
}

// restore puts the live workload into its golden state before step k:
// read-only regions by undoing the flips of earlier runs, every buffer a
// step writes by copying checkpoint k.
func (inj *Injector) restore(k int) {
	for _, f := range inj.undo {
		_ = inj.regions[f.region].FlipBit(f.word, f.bit) // in range: it was flipped once
	}
	inj.undo = inj.undo[:0]
	for j, r := range inj.state {
		inj.golden.checkpoints[k][j].restore(r)
	}
}

func clampStep(step, steps int) int {
	if step < 0 {
		return 0
	}
	if step >= steps {
		return steps - 1
	}
	return step
}

// draw picks the words and bits a fault landing before step k flips —
// memory faults prefer large storage regions, datapath faults are uniform
// over all words — appends them to inj.flips, each due at the first step
// that uses its region, and returns the appended flips.
func (inj *Injector) draw(f device.Fault, k int, s *rng.Stream) []flip {
	if inj.words == 0 {
		return nil
	}
	bits := f.Bits
	if bits < 1 {
		bits = 1
	}
	n := len(inj.flips)
	// Pick the word for the first bit; MBU bits land in adjacent words.
	word := s.Intn(inj.words)
	for b := 0; b < bits; b++ {
		idx := word + b
		if idx >= inj.words {
			idx = inj.words - 1 - (idx - inj.words)
			if idx < 0 {
				idx = 0
			}
		}
		ri, off := locate(inj.regions, idx)
		if ri < 0 {
			continue
		}
		bit := s.Intn(inj.regions[ri].BitsPerWord())
		inj.flips = append(inj.flips, flip{region: ri, word: off, bit: bit, at: inj.golden.observe[k][ri]})
	}
	return inj.flips[n:]
}

// flipAt applies the flips due before step i.
func (inj *Injector) flipAt(i int) {
	for _, f := range inj.flips {
		if f.at != i {
			continue
		}
		_ = inj.regions[f.region].FlipBit(f.word, f.bit) // in range by construction
		if inj.golden.readOnly[f.region] {
			inj.undo = append(inj.undo, f)
		}
	}
}

// locate maps a global word index onto its region index and local offset;
// the index is -1 past the last region.
func locate(regions []workload.Region, idx int) (int, int) {
	for i := range regions {
		w := regions[i].Words()
		if idx < w {
			return i, idx
		}
		idx -= w
	}
	return -1, 0
}

// readOnly classifies injectable regions: a region is read-only when it
// is not one of the State buffers. State lists the injectable buffers it
// holds in Regions order, so one forward pass over regions finds them.
func readOnly(regions, state []workload.Region) []bool {
	ro := make([]bool, len(regions))
	for i := range ro {
		ro[i] = true
	}
	next := 0
	for _, s := range state {
		for i := next; i < len(regions); i++ {
			if sameBuffer(regions[i], s) {
				ro[i], next = false, i+1
				break
			}
		}
	}
	return ro
}

// sameBuffer reports whether two regions view the same buffer.
func sameBuffer(a, b workload.Region) bool {
	switch {
	case len(a.F64) != len(b.F64) || len(a.U32) != len(b.U32) || (a.F64 == nil) != (b.F64 == nil):
		return false
	case len(a.F64) > 0:
		return &a.F64[0] == &b.F64[0]
	case len(a.U32) > 0:
		return &a.U32[0] == &b.U32[0]
	}
	return true
}

// checksum is an FNV-1a hash of a region's words.
func checksum(r workload.Region) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range r.F64 {
		h = (h ^ math.Float64bits(v)) * 1099511628211
	}
	for _, v := range r.U32 {
		h = (h ^ uint64(v)) * 1099511628211
	}
	return h
}

// AVF is the architecture vulnerability profile measured by single-fault
// injection: the fraction of injected faults producing each outcome.
type AVF struct {
	Runs   int
	Masked int
	SDC    int
	DUE    int
}

// SDCFraction returns SDC/Runs.
func (a AVF) SDCFraction() float64 {
	if a.Runs == 0 {
		return 0
	}
	return float64(a.SDC) / float64(a.Runs)
}

// DUEFraction returns DUE/Runs.
func (a AVF) DUEFraction() float64 {
	if a.Runs == 0 {
		return 0
	}
	return float64(a.DUE) / float64(a.Runs)
}

// MaskedFraction returns Masked/Runs.
func (a AVF) MaskedFraction() float64 {
	if a.Runs == 0 {
		return 0
	}
	return float64(a.Masked) / float64(a.Runs)
}

// MeasureAVF injects n independent single faults (uniformly timed data
// faults of the given template) and tallies outcomes. It is the
// software-fault-injection companion the paper's related work references
// (AVF/PVF studies).
func MeasureAVF(inj *Injector, template device.Fault, n int, s *rng.Stream) (AVF, error) {
	if n <= 0 {
		return AVF{}, errors.New("faultinject: run count must be positive")
	}
	steps := len(inj.golden.checkpoints)
	avf := AVF{Runs: n}
	for i := 0; i < n; i++ {
		f := Timed{Step: s.Intn(steps), Fault: template}
		switch inj.Run([]Timed{f}, s).Outcome {
		case OutcomeSDC:
			avf.SDC++
		case OutcomeDUE:
			avf.DUE++
		default:
			avf.Masked++
		}
	}
	return avf, nil
}
