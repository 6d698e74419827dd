package faultinject

import (
	"errors"
	"math"
	"math/bits"
	"slices"
	"sync"
	"testing"

	"neutronsim/internal/device"
	"neutronsim/internal/rng"
	"neutronsim/internal/workload"
)

// resetReplay is a frozen copy of the injector before checkpointed replay:
// every faulty run Resets the workload and re-executes it from step 0,
// flipping bits before their steps. Injector.Run must classify every fault
// schedule exactly as it does — same outcome, same error, same flipped-bit
// count, same stream draws — so it lives in the test, where it cannot
// drift along with the production code.
type resetReplay struct {
	w      workload.Workload
	seed   uint64
	golden []float64
}

func newResetReplay(t *testing.T, w workload.Workload, seed uint64) *resetReplay {
	t.Helper()
	r := &resetReplay{w: w, seed: seed}
	w.Reset(seed)
	for i := 0; i < w.Steps(); i++ {
		if err := w.Step(i); err != nil {
			t.Fatal(err)
		}
	}
	r.golden = w.AppendOutput(nil)
	return r
}

func (r *resetReplay) run(faults []Timed, s *rng.Stream) Result {
	var dataFaults []Timed
	for _, f := range faults {
		if f.Fault.Target == device.TargetControl {
			if s.Bernoulli(controlDUEProb) {
				return Result{Outcome: OutcomeDUE}
			}
			continue
		}
		dataFaults = append(dataFaults, f)
	}
	if len(dataFaults) == 0 {
		return Result{Outcome: OutcomeMasked}
	}
	for i := 1; i < len(dataFaults); i++ {
		for j := i; j > 0 && dataFaults[j].Step < dataFaults[j-1].Step; j-- {
			dataFaults[j], dataFaults[j-1] = dataFaults[j-1], dataFaults[j]
		}
	}
	r.w.Reset(r.seed)
	steps := r.w.Steps()
	flipped, next := 0, 0
	for i := 0; i < steps; i++ {
		for next < len(dataFaults) && clampStep(dataFaults[next].Step, steps) == i {
			flipped += r.apply(dataFaults[next].Fault, s)
			next++
		}
		if err := r.w.Step(i); err != nil {
			return Result{Outcome: OutcomeDUE, Err: err, FlippedBits: flipped}
		}
	}
	for ; next < len(dataFaults); next++ {
		flipped += r.apply(dataFaults[next].Fault, s)
	}
	out := r.w.AppendOutput(nil)
	if len(out) != len(r.golden) {
		return Result{Outcome: OutcomeSDC, FlippedBits: flipped}
	}
	for i := range out {
		if out[i] != r.golden[i] {
			return Result{Outcome: OutcomeSDC, FlippedBits: flipped}
		}
	}
	return Result{Outcome: OutcomeMasked, FlippedBits: flipped}
}

func (r *resetReplay) apply(f device.Fault, s *rng.Stream) int {
	regions := r.w.Regions()
	total := workload.TotalWords(regions)
	if total == 0 {
		return 0
	}
	bits := max(f.Bits, 1)
	flipped := 0
	word := s.Intn(total)
	for b := 0; b < bits; b++ {
		idx := word + b
		if idx >= total {
			idx = max(total-1-(idx-total), 0)
		}
		for i := range regions {
			if n := regions[i].Words(); idx >= n {
				idx -= n
				continue
			}
			if regions[i].FlipBit(idx, s.Intn(regions[i].BitsPerWord())) == nil {
				flipped++
			}
			break
		}
	}
	return flipped
}

// randomSchedule draws a fault schedule covering what campaigns produce
// and the edges they can reach: one to four faults, memory, datapath,
// control and configuration targets, MBUs, and steps before 0 or past the
// last step.
func randomSchedule(g *rng.Stream, steps int) []Timed {
	targets := []device.Target{device.TargetMemory, device.TargetDatapath, device.TargetControl, device.TargetConfig}
	faults := make([]Timed, 1+g.Intn(4))
	for i := range faults {
		step := g.Intn(steps)
		switch g.Intn(10) {
		case 0:
			step = -1 - g.Intn(3)
		case 1:
			step = steps + g.Intn(3)
		}
		faults[i] = Timed{Step: step, Fault: device.Fault{
			Target: targets[g.Intn(len(targets))],
			Bits:   g.Intn(4), // 0 exercises the at-least-one-bit floor
		}}
	}
	return faults
}

// TestCheckpointedRunMatchesResetReplay is the identity gate for
// checkpointed replay: on all nine workloads, over random fault schedules
// run back to back on one injector (so each run starts from whatever state
// the previous faulty run left behind), Run must agree with the frozen
// Reset-and-replay reference on every result field and on the stream
// position after each run.
func TestCheckpointedRunMatchesResetReplay(t *testing.T) {
	runs := 400
	if testing.Short() {
		runs = 60
	}
	build := map[string]func() workload.Workload{
		"outputOnly": func() workload.Workload { return &outputOnly{} },
		"steered":    func() workload.Workload { return &steered{} },
	}
	for _, name := range workload.Names() {
		build[name] = func() workload.Workload { w, _ := workload.New(name); return w }
	}
	for name, mk := range build {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			refW := mk()
			ref := newResetReplay(t, refW, 42)
			inj, err := NewInjector(mk(), 42)
			if err != nil {
				t.Fatal(err)
			}
			steps := refW.Steps()
			gen := rng.New(99)
			s1, s2 := rng.New(5), rng.New(5)
			outcomes := map[Outcome]int{}
			for i := 0; i < runs; i++ {
				faults := randomSchedule(gen, steps)
				want := ref.run(append([]Timed(nil), faults...), s1)
				got := inj.Run(append([]Timed(nil), faults...), s2)
				if got.Outcome != want.Outcome || got.FlippedBits != want.FlippedBits || !errors.Is(got.Err, want.Err) {
					t.Fatalf("run %d %v: got %+v, want %+v", i, faults, got, want)
				}
				if a, b := s1.Uint64(), s2.Uint64(); a != b {
					t.Fatalf("run %d: stream diverged from the reference", i)
				}
				outcomes[got.Outcome]++
			}
			if outcomes[OutcomeMasked] == 0 || outcomes[OutcomeSDC]+outcomes[OutcomeDUE] == 0 {
				t.Errorf("schedules exercised too little: %v", outcomes)
			}
		})
	}
}

// stepCounter counts the steps a replay executes.
type stepCounter struct {
	workload.Workload
	steps int
}

func (c *stepCounter) Step(i int) error {
	c.steps++
	return c.Workload.Step(i)
}

// replayedSteps replays single-bit faults at uniform steps, split over
// injectors on one golden run of build(), each drawing its faults from
// its own stream (rng.New(17), rng.New(18), …), and returns the steps
// replayed per fault.
func replayedSteps(t *testing.T, build func() workload.Workload, faults, injectors int) float64 {
	t.Helper()
	g, err := RecordGolden(build(), 42)
	if err != nil {
		t.Fatal(err)
	}
	counters := make([]*stepCounter, injectors)
	var wg sync.WaitGroup
	for i := range counters {
		counters[i] = &stepCounter{Workload: build()}
		inj, err := g.NewInjector(counters[i])
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := rng.New(17 + uint64(i))
			for range faults / injectors {
				inj.Run([]Timed{{Step: s.Intn(inj.Steps()), Fault: dataFault(1)}}, s)
			}
		}()
	}
	wg.Wait()
	steps := 0
	for _, w := range counters {
		steps += w.steps
	}
	return float64(steps) / float64(faults)
}

// TestMxMReplaysFromTheRowItReads pins the saving of MxM's row regions:
// a flip in a row of A runs only the step that reads that row, one in a
// row of C that a later step overwrites is dropped, and one in a row of C
// already written replays no step. Over single-bit faults at uniform
// steps that averages 4.29 replayed steps per fault, nearly all of them
// for flips in B, which every later step reads. Replaying every step
// from the first that reads a flip averaged 5.78, and declaring A and C
// whole, as one region each, 12.5.
func TestMxMReplaysFromTheRowItReads(t *testing.T) {
	build := func() workload.Workload { return workload.NewMxM(24) }
	if perFault := replayedSteps(t, build, 100_000, 1); perFault > 4.5 {
		t.Errorf("MxM replays %.2f steps per single-bit fault, want at most 4.5", perFault)
	}
}

// TestLavaMDReplaysFromTheBoxItReads pins the saving of LavaMD's box
// regions: a flip in box b's positions or charges runs only the later
// steps whose boxes neighbor b, one in box b's forces or list runs step b
// at most, one in a list already used is dropped, and one in forces
// already summed replays no step. Over single-bit faults at uniform steps
// that averages 2.84 replayed steps per fault. Replaying every step from
// the first that reads a flip, with the positions and charges whole,
// averaged 7.30, and declaring the forces and the lists whole too, 12.7.
// Every replayed step runs LavaMD's pair loop, so two injectors share the
// faults.
func TestLavaMDReplaysFromTheBoxItReads(t *testing.T) {
	build := func() workload.Workload { return workload.NewLavaMD(3, 8) }
	if perFault := replayedSteps(t, build, 100_000, 2); perFault > 3 {
		t.Errorf("LavaMD replays %.2f steps per single-bit fault, want at most 3.0", perFault)
	}
}

// TestBFSReplaysFromTheChunksItReads pins the saving of BFS's chunk
// regions: a flip in the offsets or edges of a chunk runs nothing until
// a step expands one of the chunk's nodes, and nothing at all once the
// search has passed them, while a flip in the distances runs every later
// step. Over single-bit faults at uniform steps that averages 8.00
// replayed steps per fault; declaring the offsets and edges whole, and
// replaying every step from the first that reads a flip, averaged 29.07.
func TestBFSReplaysFromTheChunksItReads(t *testing.T) {
	build := func() workload.Workload { return workload.NewBFS(1024, 4) }
	if perFault := replayedSteps(t, build, 50_000, 2); perFault > 8.5 {
		t.Errorf("BFS replays %.2f steps per single-bit fault, want at most 8.5", perFault)
	}
}

// TestSCReplaysFromTheChunkItReads pins the saving of SC's chunk
// regions: a flip in data or flags chunk c waits for step c and is
// dropped once step c has run, while a flip in the output or the cursor
// runs every later step. Over single-bit faults at uniform steps that
// averages 4.07 replayed steps per fault; declaring the data and flags
// whole, and replaying every step from the first that reads a flip,
// averaged 7.59.
func TestSCReplaysFromTheChunkItReads(t *testing.T) {
	build := func() workload.Workload { return workload.NewSC(4096) }
	if perFault := replayedSteps(t, build, 50_000, 1); perFault > 4.5 {
		t.Errorf("SC replays %.2f steps per single-bit fault, want at most 4.5", perFault)
	}
}

// BenchmarkInjectorRun measures one single-bit data-fault replay per op at
// a uniform step, the dominant cost of a device assessment. It reports
// the steps replayed per op too: that count repeats exactly from run to
// run, where ns/op swings with the host.
func BenchmarkInjectorRun(b *testing.B) {
	for _, name := range workload.Names() {
		b.Run(name, func(b *testing.B) {
			live, err := workload.New(name)
			if err != nil {
				b.Fatal(err)
			}
			w := &stepCounter{Workload: live}
			inj, err := NewInjector(w, 42)
			if err != nil {
				b.Fatal(err)
			}
			steps := w.Steps()
			s := rng.New(1)
			faults := make([]Timed, 1)
			w.steps = 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				faults[0] = Timed{Step: s.Intn(steps), Fault: dataFault(1)}
				if inj.Run(faults, s).Outcome == 0 {
					b.Fatalf("unclassified outcome at op %d", i)
				}
			}
			b.ReportMetric(float64(w.steps)/float64(b.N), "steps/op")
		})
	}
}

// TestSharedGoldenRunMatchesPrivateInjector checks that injectors built
// from one GoldenRun, replaying concurrently (as a campaign's shards do),
// classify every schedule exactly like an injector with its own recording.
func TestSharedGoldenRunMatchesPrivateInjector(t *testing.T) {
	for _, name := range []string{"HotSpot", "SC", "YOLO"} {
		t.Run(name, func(t *testing.T) {
			w, _ := workload.New(name)
			g, err := RecordGolden(w, 42)
			if err != nil {
				t.Fatal(err)
			}
			replay := func(inj *Injector) []Result {
				gen, s := rng.New(7), rng.New(8)
				out := make([]Result, 150)
				for i := range out {
					out[i] = inj.Run(randomSchedule(gen, w.Steps()), s)
				}
				return out
			}
			want := replay(newInjector(t, name))
			results := make([][]Result, 3)
			done := make(chan struct{})
			for i := range results {
				live, _ := workload.New(name)
				inj, err := g.NewInjector(live)
				if err != nil {
					t.Fatal(err)
				}
				go func() {
					defer func() { done <- struct{}{} }()
					results[i] = replay(inj)
				}()
			}
			for range results {
				<-done
			}
			for i, got := range results {
				if !slices.Equal(got, want) {
					t.Errorf("injector %d on the shared golden run diverged", i)
				}
			}
		})
	}
}

// leaky is MxM with a State that omits C, a buffer its steps write.
type leaky struct{ *workload.MxM }

func (leaky) State() []workload.Region { return nil }

// mover reallocates an injectable buffer on every step.
type mover struct {
	*workload.MxM
	extra []float64
}

func (m *mover) Step(i int) error {
	m.extra = make([]float64, 4)
	return m.MxM.Step(i)
}

func (m *mover) Regions() []workload.Region {
	return append(m.MxM.Regions(), workload.Region{Name: "extra", F64: m.extra})
}

// noSteps has nothing to replay.
type noSteps struct{ *workload.MxM }

func (noSteps) Steps() int { return 0 }

// shortUses declares uses for fewer regions than it exposes.
type shortUses struct{ *workload.MxM }

func (shortUses) Uses(int) []workload.Use { return []workload.Use{workload.Reads} }

// outputOverwrites declares an output that overwrites a region.
type outputOverwrites struct{ *workload.MxM }

func (o outputOverwrites) Uses(i int) []workload.Use {
	u := o.MxM.Uses(i)
	if i == o.Steps() {
		u[len(u)-1] = workload.Overwrites
	}
	return u
}

// readOnlyOverwrites declares that step 0 overwrites row 0 of A, a
// region outside State that no step writes.
type readOnlyOverwrites struct{ *workload.MxM }

func (o readOnlyOverwrites) Uses(i int) []workload.Use {
	u := o.MxM.Uses(i)
	if i == 0 {
		u[0] = workload.Overwrites
	}
	return u
}

func TestRecordGoldenRejectsBrokenStateContract(t *testing.T) {
	for name, w := range map[string]workload.Workload{
		"state omits a written region":       leaky{workload.NewMxM(6)},
		"buffers move":                       &mover{MxM: workload.NewMxM(6), extra: make([]float64, 4)},
		"no steps":                           noSteps{workload.NewMxM(6)},
		"uses for too few regions":           shortUses{workload.NewMxM(6)},
		"output overwrites a region":         outputOverwrites{workload.NewMxM(6)},
		"a region outside State overwritten": readOnlyOverwrites{workload.NewMxM(6)},
		"nil workload":                       nil,
	} {
		if _, err := RecordGolden(w, 1); err == nil {
			t.Errorf("%s: recorded without error", name)
		}
	}
}

func TestGoldenRunRejectsMismatchedWorkload(t *testing.T) {
	g, err := RecordGolden(workload.NewMxM(6), 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range map[string]workload.Workload{
		"other kernel": workload.NewLUD(6),
		"other size":   workload.NewMxM(7),
		"nil":          nil,
	} {
		if _, err := g.NewInjector(w); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := g.NewInjector(workload.NewMxM(6)); err != nil {
		t.Errorf("fresh instance of the recorded workload rejected: %v", err)
	}
}

// TestSnapshotComparesBits pins the comparison behind checkpoint block
// and snapshot sharing: values that compare equal but differ in bits
// (signed zeros) would steer later steps differently, so they must not
// match, and a NaN must match its own bits.
func TestSnapshotComparesBits(t *testing.T) {
	negZero, nan := math.Copysign(0, -1), math.NaN()
	if equalF64([]float64{0}, []float64{negZero}) {
		t.Error("+0 and -0 compared equal")
	}
	if !equalF64([]float64{1, nan}, []float64{1, nan}) {
		t.Error("identical NaN bits compared unequal")
	}
	// A -0 block must not be stored as the shared zero block.
	r := workload.Region{F64: make([]float64, 3*blockWords+5)}
	var buf snapshot
	zero := takeSnapshot(r, nil, &buf)
	if takeSnapshot(r, zero, &buf) != zero {
		t.Error("an unchanged buffer does not share its previous snapshot")
	}
	r.F64[blockWords+1] = negZero
	next := takeSnapshot(r, zero, &buf)
	if !holds(next, r) || holds(zero, r) {
		t.Error("a signed zero was lost by block sharing")
	}
	if &next.f64[0][0] != &zero.f64[0][0] || &next.f64[1][0] == &zero.f64[1][0] {
		t.Error("unchanged blocks not shared, or a changed block shared")
	}
	r.F64[blockWords+1] = 0
	next.restore(r, nil)
	if !holds(next, r) || r.F64[blockWords+1] != 0 || !math.Signbit(r.F64[blockWords+1]) {
		t.Error("restore did not bring back the signed zero")
	}
	if zero.fits(workload.Region{U32: make([]uint32, len(r.F64))}) || zero.fits(workload.Region{F64: r.F64[1:]}) {
		t.Error("snapshot fits a region of another type or length")
	}
}

// TestUsesDeclarationsHold checks every Unused and Overwrites claim of the
// nine workloads against their code: from the golden state before step i,
// exponent-bit flips in a region the step declares Unused must leave the
// step's results untouched (and stay in place), and flips in a region it
// declares Overwrites must vanish. The output (i == Steps()) must ignore
// flips in every region it declares Unused.
func TestUsesDeclarationsHold(t *testing.T) {
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			inj := newInjector(t, name)
			g, w := inj.golden, inj.w
			steps := inj.Steps()
			gen := rng.New(3)
			var flips []flip
			flipSome := func(r int) {
				reg := inj.regions[r]
				flips = flips[:0]
				for range 16 {
					f := flip{region: r, word: gen.Intn(reg.Words()), bit: gen.Intn(32)}
					if reg.F64 != nil {
						f.bit = 62 // the top exponent bit: any read of the word shows
					}
					_ = reg.FlipBit(f.word, f.bit)
					flips = append(flips, f)
				}
			}
			unflip := func() {
				for _, f := range flips {
					_ = inj.regions[f.region].FlipBit(f.word, f.bit)
				}
			}
			fresh, _ := workload.New(name)
			fresh.Reset(42)
			for i := 0; i <= steps; i++ {
				for r, u := range w.Uses(i) {
					if u == workload.Reads {
						continue
					}
					inj.restore(min(i, steps-1))
					if i == steps {
						if err := w.Step(steps - 1); err != nil {
							t.Fatal(err)
						}
						flipSome(r)
						if !slices.Equal(w.AppendOutput(nil), g.output) {
							t.Errorf("output reads region %q, declared Unused", inj.regions[r].Name)
						}
						unflip()
						continue
					}
					flipSome(r)
					err := w.Step(i)
					if u == workload.Unused {
						unflip()
					}
					if err != nil {
						t.Fatalf("step %d failed with region %q flipped (declared %v): %v", i, inj.regions[r].Name, u, err)
					}
					if i+1 < steps && !slices.EqualFunc(g.checkpoints[i+1], inj.state, holds) ||
						i+1 == steps && !slices.Equal(w.AppendOutput(nil), g.output) {
						t.Errorf("step %d results depend on region %q, declared use %v", i, inj.regions[r].Name, u)
					}
					for rr, reg := range inj.regions {
						if g.stateOf[rr] < 0 && checksum(reg) != checksum(fresh.Regions()[rr]) {
							t.Errorf("step %d left read-only region %q changed (region %q declared %v)", i, reg.Name, inj.regions[r].Name, u)
						}
					}
				}
			}
		})
	}
}

// TestStepsWriteOnlyDeclaredRegions checks the write half of the Uses
// contract, which holds whatever the regions hold: from the golden state
// before each step of the nine workloads, exponent-bit flips in one
// region the step declares Reads may send it anywhere, but if the step
// returns without error, every State region it declares Unused must
// still hold its golden content bit for bit. A replay skips the steps
// that read no flipped region, so a write there would go unseen.
func TestStepsWriteOnlyDeclaredRegions(t *testing.T) {
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			inj := newInjector(t, name)
			g, w := inj.golden, inj.w
			gen := rng.New(4)
			for i := range inj.Steps() {
				uses := w.Uses(i)
				for r, u := range uses {
					if u != workload.Reads {
						continue
					}
					inj.restore(i)
					reg := inj.regions[r]
					flips := make([]flip, 16)
					for k := range flips {
						flips[k] = flip{region: r, word: gen.Intn(reg.Words()), bit: gen.Intn(32)}
						if reg.F64 != nil {
							flips[k].bit = 62 // the top exponent bit
						}
						_ = reg.FlipBit(flips[k].word, flips[k].bit)
					}
					err := w.Step(i)
					if g.stateOf[r] < 0 {
						for _, f := range flips {
							_ = reg.FlipBit(f.word, f.bit)
						}
					}
					if err != nil {
						continue
					}
					for j, buf := range inj.state {
						if rr := g.regionOf[j]; rr >= 0 && uses[rr] == workload.Unused && !holds(g.checkpoints[i][j], buf) {
							t.Errorf("step %d wrote region %d (%q), declared Unused, with region %d (%q) flipped", i, rr, buf.Name, r, reg.Name)
						}
					}
				}
			}
		})
	}
}

// restore puts the live workload into its golden state before step k,
// whatever was done to it.
func (inj *Injector) restore(k int) {
	inj.begin()
	clear(inj.held)
	inj.sync(k)
}

// outputOnly has a region that only the output reads after step 0, so
// flips landing there later are due after the last step.
type outputOnly struct{ in, acc []float64 }

func (*outputOnly) Name() string                           { return "outputOnly" }
func (*outputOnly) Steps() int                             { return 3 }
func (o *outputOnly) AppendOutput(dst []float64) []float64 { return append(dst, o.acc...) }
func (o *outputOnly) State() []workload.Region             { return []workload.Region{{Name: "acc", F64: o.acc}} }

func (o *outputOnly) Reset(seed uint64) {
	if o.in == nil {
		o.in, o.acc = make([]float64, 8), make([]float64, 8)
	}
	for i := range o.in {
		o.in[i], o.acc[i] = float64(seed+uint64(i)), 0
	}
}

func (o *outputOnly) Step(i int) error {
	if i == 0 {
		for j, v := range o.in {
			o.acc[j] = 2 * v
		}
	}
	return nil
}

func (o *outputOnly) Regions() []workload.Region {
	return []workload.Region{{Name: "in", F64: o.in}, {Name: "acc", F64: o.acc}}
}

func (o *outputOnly) Uses(i int) []workload.Use {
	switch i {
	case 0:
		return []workload.Use{workload.Reads, workload.Overwrites}
	case o.Steps():
		return []workload.Use{workload.Unused, workload.Reads}
	}
	return []workload.Use{workload.Unused, workload.Unused}
}

// steered is a workload whose steps a corrupted index sends to a region
// no step declares. Step i sums region A or region B, whichever the
// parity of idx[i]'s bits names, into acc[i]. B holds A's words and then
// zeros, so both sums agree, and every golden index names A: step i
// declares A, idx and acc[i], which it overwrites, and a lone flip in
// idx is masked. A flip in B shows only when a steered step reads it: a
// replay that held that flip back until a step declared B, or lost track
// of what a step wrote or overwrote, would disagree with the reference.
// B takes most of the words, so random schedules often flip it before a
// steered step reads it.
type steered struct{ a, b, idx, acc []uint32 }

const steeredSteps = 6

func (*steered) Name() string { return "steered" }
func (*steered) Steps() int   { return steeredSteps }

func (w *steered) Reset(seed uint64) {
	if w.a == nil {
		w.a, w.b = make([]uint32, 2), make([]uint32, 16)
		w.idx, w.acc = make([]uint32, steeredSteps), make([]uint32, steeredSteps)
	}
	w.a[0], w.a[1] = uint32(seed), uint32(seed)*2654435761
	clear(w.b)
	copy(w.b, w.a)
	for i := range w.idx {
		w.idx[i], w.acc[i] = 3<<i, 0 // two bits set: A
	}
}

func (w *steered) Step(i int) error {
	src := w.a
	if bits.OnesCount32(w.idx[i])%2 == 1 {
		src = w.b
	}
	var sum uint32
	for _, v := range src {
		sum += v
	}
	w.acc[i] = sum
	return nil
}

func (w *steered) AppendOutput(dst []float64) []float64 {
	for _, v := range w.acc {
		dst = append(dst, float64(v))
	}
	return dst
}

// Regions is A, B, idx, then acc one word per step, so that B and idx
// are adjacent words and one MBU can flip both.
func (w *steered) Regions() []workload.Region {
	regions := []workload.Region{{Name: "A", U32: w.a}, {Name: "B", U32: w.b}, {Name: "idx", U32: w.idx}}
	for i := range w.acc {
		regions = append(regions, workload.Region{Name: "acc", U32: w.acc[i : i+1]})
	}
	return regions
}

func (w *steered) State() []workload.Region { return w.Regions()[3:] }

func (w *steered) Uses(i int) []workload.Use {
	u := make([]workload.Use, 3+steeredSteps)
	if i == steeredSteps {
		for k := range steeredSteps {
			u[3+k] = workload.Reads
		}
		return u
	}
	u[0], u[2], u[3+i] = workload.Reads, workload.Reads, workload.Overwrites
	return u
}

// holds reports whether r holds the snapshot's content bit for bit.
func holds(s *snapshot, r workload.Region) bool {
	if !s.fits(r) {
		return false
	}
	for b, blk := range s.f64 {
		if !equalF64(r.F64[b*blockWords:b*blockWords+len(blk)], blk) {
			return false
		}
	}
	for b, blk := range s.u32 {
		if !slices.Equal(r.U32[b*blockWords:b*blockWords+len(blk)], blk) {
			return false
		}
	}
	return true
}
