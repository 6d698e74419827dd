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

// controlDUEProb is the probability that a control-logic fault actually
// brings the run down (the rest are architecturally masked). It applies
// identically to both neutron bands, preserving the calibrated band
// ratios.
const controlDUEProb = 0.6

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
// output, a checkpoint of its State at every step boundary, and how each
// step uses each region. It is never written after RecordGolden returns,
// so any number of injectors — every shard of a campaign — can replay
// against one.
type GoldenRun struct {
	name   string
	seed   uint64
	output []float64
	// checkpoints[k] holds the content of every State buffer before step
	// k, and checkpoints[Steps()] after the last step, sharing unchanged
	// snapshots and blocks with the checkpoint before it.
	checkpoints [][]*snapshot
	// stateOf[r] is the index in State of Regions()[r], or -1 when the
	// region lies outside State: no step writes it, so a replay restores
	// it by undoing the bits it flipped there instead of copying it.
	stateOf []int32
	// regionOf[j] is the index in Regions of State()[j], or -1 when that
	// buffer is not injectable. Steps do not declare their uses of those.
	regionOf []int32
	// uses[k*len(stateOf)+r] is how step k uses region r; k = Steps()
	// stands for the output.
	uses []workload.Use
}

// RecordGolden resets w from seed, runs it to completion without faults,
// and records the golden run. It fails if a step fails, if w declares a
// use it cannot make, or if w breaks the State contract: a step that
// writes an injectable region outside State, or buffers that move while
// the workload runs.
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
	g := &GoldenRun{name: w.Name(), seed: seed, checkpoints: make([][]*snapshot, steps+1)}
	g.stateOf, g.regionOf = layout(regions, state)
	var err error
	if g.uses, err = useTable(w, steps, g.stateOf); err != nil {
		return nil, err
	}
	before := make([]uint64, len(regions))
	for r, reg := range regions {
		if g.stateOf[r] < 0 {
			before[r] = checksum(reg)
		}
	}
	// Every checkpoint's snapshot pointers are allocated together.
	snaps, prev := make([]*snapshot, (steps+1)*len(state)), make([]*snapshot, len(state))
	var buf snapshot
	for k := 0; k <= steps; k++ {
		cp := snaps[k*len(state) : (k+1)*len(state) : (k+1)*len(state)]
		for j, r := range state {
			cp[j] = takeSnapshot(r, prev[j], &buf)
		}
		g.checkpoints[k], prev = cp, cp
		if k == steps {
			break
		}
		if err := w.Step(k); err != nil {
			return nil, fmt.Errorf("faultinject: golden run failed at step %d: %w", k, err)
		}
	}
	if !slices.EqualFunc(w.Regions(), regions, sameBuffer) || !slices.EqualFunc(w.State(), state, sameBuffer) {
		return nil, fmt.Errorf("faultinject: %s moved its buffers during the golden run", g.name)
	}
	for r, reg := range regions {
		if g.stateOf[r] < 0 && checksum(reg) != before[r] {
			return nil, fmt.Errorf("faultinject: %s steps write region %q, which State omits", g.name, reg.Name)
		}
	}
	g.output = w.AppendOutput(nil)
	return g, nil
}

// useTable reads w's Uses declarations, step by step, into one table.
// Each step must declare one known use per region, Overwrites only of a
// State region, and the output none.
func useTable(w workload.Workload, steps int, stateOf []int32) ([]workload.Use, error) {
	table := make([]workload.Use, 0, (steps+1)*len(stateOf))
	for k := 0; k <= steps; k++ {
		uses := w.Uses(k)
		if len(uses) != len(stateOf) {
			return nil, fmt.Errorf("faultinject: %s declares %d region uses at step %d, want %d", w.Name(), len(uses), k, len(stateOf))
		}
		for r, u := range uses {
			if u > workload.Overwrites || u == workload.Overwrites && (k == steps || stateOf[r] < 0) {
				return nil, fmt.Errorf("faultinject: %s declares use %d of region %d at step %d", w.Name(), u, r, k)
			}
		}
		table = append(table, uses...)
	}
	return table, nil
}

// NewInjector resets w from the golden run's seed and returns an injector
// that replays w against g. w must be a fresh instance of the recorded
// workload: same name and same buffer shapes.
func (g *GoldenRun) NewInjector(w workload.Workload) (*Injector, error) {
	if w == nil {
		return nil, errors.New("faultinject: nil workload")
	}
	regions, state := w.Regions(), w.State()
	if stateOf, _ := layout(regions, state); w.Name() != g.name || w.Steps() != len(g.checkpoints)-1 ||
		!slices.Equal(stateOf, g.stateOf) ||
		!slices.EqualFunc(g.checkpoints[0], state, (*snapshot).fits) {
		return nil, fmt.Errorf("faultinject: %s workload does not match the golden %s run", w.Name(), g.name)
	}
	w.Reset(g.seed)
	return g.injector(w, regions, state), nil
}

func (g *GoldenRun) injector(w workload.Workload, regions, state []workload.Region) *Injector {
	return &Injector{
		w: w, golden: g, regions: regions, words: workload.TotalWords(regions), state: state,
		held: make([]*snapshot, len(state)), dirtied: make([]bool, len(regions)),
	}
}

// Injector replays one live workload instance under injected faults. A
// faulty run executes only the steps that read a buffer one of its flips
// may have changed; it carries the live workload over every other
// stretch of steps by copying the golden checkpoint at its end, since
// those steps would recompute it bit for bit. It is not safe for
// concurrent use; use one Injector per goroutine.
type Injector struct {
	w      workload.Workload
	golden *GoldenRun
	// regions (words in total) and state are w's buffers, fetched once:
	// they stay put for the workload's lifetime.
	regions []workload.Region
	words   int
	state   []workload.Region
	// scratch and out are the reusable data-fault and output buffers of
	// Run; keeping them, and the slices below, on the injector makes
	// repeated injections allocation-free once their capacity has grown
	// to the campaign's high-water mark.
	scratch []Timed
	out     []float64
	// undo lists the bits flipped in read-only regions since the last run
	// began. Flipping them again restores those regions exactly.
	undo []flip
	// held[j] is the snapshot State()[j] holds bit for bit, or nil when
	// it may hold anything else; a sync copies only the blocks it does
	// not share with the checkpoint.
	held []*snapshot
	// dirty lists the regions whose content may differ from the golden
	// run's at the replay's step boundary, and dirtied marks them. hot
	// reports that a State buffer outside Regions may differ: steps do
	// not declare their reads of those, so every step from there runs.
	dirty   []int32
	dirtied []bool
	hot     bool
}

// flip is one bit flipped in a region.
type flip struct{ region, word, bit int }

// NewInjector records w's golden run from seed (RecordGolden) and returns
// an injector replaying w itself against it.
func NewInjector(w workload.Workload, seed uint64) (*Injector, error) {
	g, err := RecordGolden(w, seed)
	if err != nil {
		return nil, err
	}
	return g.injector(w, w.Regions(), w.State()), nil
}

// Steps is the replayed workload's step count.
func (inj *Injector) Steps() int { return len(inj.golden.checkpoints) - 1 }

// Run replays the workload under the faults, each landing before its step,
// and classifies the outcome.
func (inj *Injector) Run(faults []Timed, s *rng.Stream) Result {
	// Control-logic faults act at the architecture level, independent of
	// the program state: each takes the run down with controlDUEProb.
	dataFaults := inj.scratch[:0]
	for _, f := range faults {
		if f.Fault.Target == device.TargetControl {
			if s.Bernoulli(controlDUEProb) {
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
	// The replay walks the step boundaries as the step-by-step reference
	// does, and wherever it stands, the live buffers hold what the
	// reference holds there: each fault's flips land in memory when the
	// walk reaches its step, in fault order, so a DUE cuts the draws
	// short where the reference's does, and a step that runs reads
	// exactly what the reference's reads, wherever a corrupted index
	// steers it. A step that reads no dirty region would recompute the
	// golden run's results, so the walk skips it; synced reports whether
	// the clean State buffers have been brought to the current boundary,
	// which only a step that runs and the output need.
	inj.begin()
	steps := inj.Steps()
	flipped, next, synced := 0, 0, false
	for i := 0; i < steps; {
		for ; next < len(dataFaults) && clampStep(dataFaults[next].Step, steps) == i; next++ {
			flipped += inj.draw(dataFaults[next].Fault, i, s)
		}
		if !inj.hot {
			stop := steps
			if next < len(dataFaults) {
				stop = clampStep(dataFaults[next].Step, steps)
			}
			if j := inj.skip(i, stop); j > i {
				i, synced = j, false
				continue
			}
		}
		if !synced {
			inj.sync(i)
			synced = true
		}
		err := inj.w.Step(i)
		inj.wrote(i) // a failed step may have written too
		if err != nil {
			return Result{Outcome: OutcomeDUE, Err: err, FlippedBits: flipped}
		}
		i++
	}
	if !inj.hot && !inj.reads(steps) {
		return Result{Outcome: OutcomeMasked, FlippedBits: flipped}
	}
	if !synced {
		inj.sync(steps)
	}
	inj.out = inj.w.AppendOutput(inj.out[:0])
	if !slices.Equal(inj.out, inj.golden.output) {
		return Result{Outcome: OutcomeSDC, FlippedBits: flipped}
	}
	return Result{Outcome: OutcomeMasked, FlippedBits: flipped}
}

// begin starts a run from the golden state before step 0: it undoes the
// last run's flips in read-only regions and forgets its dirty regions.
// The State buffers that run changed already hold no snapshot.
func (inj *Injector) begin() {
	for _, f := range inj.undo {
		_ = inj.regions[f.region].FlipBit(f.word, f.bit) // in range: it was flipped once
	}
	inj.undo = inj.undo[:0]
	for _, r := range inj.dirty {
		inj.dirtied[r] = false
	}
	inj.dirty, inj.hot = inj.dirty[:0], false
}

// sync brings every clean State buffer to checkpoint k. A dirty buffer
// already holds what the reference holds at step k.
func (inj *Injector) sync(k int) {
	for j, r := range inj.golden.regionOf {
		if r < 0 || !inj.dirtied[r] {
			inj.place(j, k)
		}
	}
}

// place copies checkpoint k into State buffer j, block by block where the
// buffer does not already hold that block.
func (inj *Injector) place(j, k int) {
	if snap := inj.golden.checkpoints[k][j]; inj.held[j] != snap {
		snap.restore(inj.state[j], inj.held[j])
		inj.held[j] = snap
	}
}

// reads reports whether step k (the output at k = Steps()) reads a dirty
// region.
func (inj *Injector) reads(k int) bool {
	uses := inj.golden.uses[k*len(inj.regions):]
	for _, r := range inj.dirty {
		if uses[r] == workload.Reads {
			return true
		}
	}
	return false
}

// skip advances from step i over the steps that read no dirty region, up
// to stop, and returns the step it stopped at. The reference runs those
// steps as the golden run does, so a dirty region one of them overwrites
// holds its golden content after it: the region turns clean, and the
// next sync copies it.
func (inj *Injector) skip(i, stop int) int {
	for ; i < stop && !inj.reads(i); i++ {
		uses := inj.golden.uses[i*len(inj.regions):]
		dirty := inj.dirty[:0]
		for _, r := range inj.dirty {
			if uses[r] == workload.Overwrites {
				inj.dirtied[r] = false
			} else {
				dirty = append(dirty, r)
			}
		}
		inj.dirty = dirty
	}
	return i
}

// wrote marks dirty every State buffer step i may have written: each
// region it declares other than Unused, and every buffer outside Regions.
func (inj *Injector) wrote(i int) {
	uses := inj.golden.uses[i*len(inj.regions):]
	for j, r := range inj.golden.regionOf {
		switch {
		case r < 0:
			inj.held[j], inj.hot = nil, true
		case uses[r] != workload.Unused:
			inj.mark(r)
		}
	}
}

// mark records that region r may differ from the golden run.
func (inj *Injector) mark(r int32) {
	if j := inj.golden.stateOf[r]; j >= 0 {
		inj.held[j] = nil
	}
	if !inj.dirtied[r] {
		inj.dirtied[r] = true
		inj.dirty = append(inj.dirty, r)
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

// draw lands the bit flips of fault f in memory before step k and returns
// how many it flipped. The first bit's word is uniform over all
// injectable words, so large regions take most faults; MBU bits land in
// adjacent words. A clean State buffer takes checkpoint k before its
// first flip, so it then holds what the reference holds.
func (inj *Injector) draw(f device.Fault, k int, s *rng.Stream) int {
	if inj.words == 0 {
		return 0
	}
	word, flipped := s.Intn(inj.words), 0
	for b := range max(f.Bits, 1) {
		idx := word + b
		if idx >= inj.words {
			idx = max(inj.words-1-(idx-inj.words), 0)
		}
		r, off := locate(inj.regions, idx)
		if r < 0 {
			continue
		}
		bit := s.Intn(inj.regions[r].BitsPerWord())
		switch j := inj.golden.stateOf[r]; {
		case j < 0:
			inj.undo = append(inj.undo, flip{region: r, word: off, bit: bit})
		case !inj.dirtied[r]:
			inj.place(int(j), k)
		}
		_ = inj.regions[r].FlipBit(off, bit) // in range by construction
		inj.mark(int32(r))
		flipped++
	}
	return flipped
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

// layout maps each region to its index in State and each State buffer to
// its region, -1 where there is none. State lists the injectable buffers
// it holds in Regions order, so one forward pass over regions finds them.
func layout(regions, state []workload.Region) (stateOf, regionOf []int32) {
	stateOf, regionOf = make([]int32, len(regions)), make([]int32, len(state))
	for r := range stateOf {
		stateOf[r] = -1
	}
	next := 0
	for j, s := range state {
		regionOf[j] = -1
		for r := next; r < len(regions); r++ {
			if sameBuffer(regions[r], s) {
				stateOf[r], regionOf[j], next = int32(j), int32(r), r+1
				break
			}
		}
	}
	return stateOf, regionOf
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
	steps := inj.Steps()
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
