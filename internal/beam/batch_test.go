package beam

import (
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"neutronsim/internal/device"
	"neutronsim/internal/engine"
	"neutronsim/internal/faultinject"
	"neutronsim/internal/plan"
	"neutronsim/internal/rng"
	"neutronsim/internal/spectrum"
	"neutronsim/internal/workload"
)

// scalarRunShard is a frozen copy of the pre-batch run loop: one neutron
// per iteration, one uniform at a time, drawn straight off an unbuffered
// stream, with every tally written directly. The batched loop in beam.go
// must reproduce its shard tallies bit for bit — this reference is the
// "pre-batch golden" the batching acceptance criterion compares against,
// kept in the test so it can never drift along with the production code.
func scalarRunShard(t *testing.T, cfg Config, sh engine.Shard, pl *plan.CampaignPlan, lambda float64) shardTally {
	t.Helper()
	w, err := workload.New(cfg.WorkloadName)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faultinject.NewInjector(w, cfg.Seed, cfg.Inject)
	if err != nil {
		t.Fatal(err)
	}
	s := sh.Stream
	steps := w.Steps()
	expNegLambda := math.Exp(-lambda)
	poisson := func() int64 {
		if lambda <= 0 {
			return 0
		}
		if lambda >= 30 {
			return s.Poisson(lambda)
		}
		var k int64
		p := 1.0
		for {
			p *= s.Float64()
			if p <= expNegLambda {
				return k
			}
			k++
		}
	}
	var tc shardTally
	var faults, persistent []faultinject.Timed
	wCarried := 1.0
	weighted := pl.IsBiased()
	if weighted {
		tc.Weighted = new(weightedShardTally)
	}
	for run := 0; run < sh.Count; run++ {
		nInt := poisson()
		tc.Interactions += nInt
		wRun := 1.0
		faults = faults[:0]
		faults = append(faults, persistent...)
		for k := int64(0); k < nInt; k++ {
			var f device.Fault
			var upset bool
			if weighted {
				en, w := pl.SampleInteractionWeighted(s)
				tc.Weighted.Draws.Add(w)
				wRun *= w
				f, upset = cfg.Device.InteractionUpset(en, s)
				if upset {
					tc.Weighted.UpsetsByBand[f.Band].Add(w)
				}
			} else {
				en := pl.SampleInteraction(s)
				f, upset = cfg.Device.InteractionUpset(en, s)
			}
			if !upset {
				continue
			}
			tc.Upsets++
			tc.ByBand[f.Band]++
			tf := faultinject.Timed{Step: s.Intn(steps), Fault: f}
			faults = append(faults, tf)
			if f.Target == device.TargetConfig {
				tf.Step = 0
				persistent = append(persistent, tf)
			}
		}
		wOut := wCarried * wRun
		if len(faults) == 0 {
			tc.Masked++
			if weighted {
				tc.Weighted.Masked.Add(wOut)
			}
		} else {
			outcomeBand := faults[0].Fault.Band
			switch inj.Run(faults, s).Outcome {
			case faultinject.OutcomeSDC:
				tc.SDC++
				if weighted {
					tc.Weighted.SDC.Add(wOut)
				}
				if len(persistent) > 0 {
					persistent = persistent[:0]
					tc.Reprograms++
				}
			case faultinject.OutcomeDUE:
				tc.DUE++
				if weighted {
					tc.Weighted.DUE.Add(wOut)
					tc.Weighted.DUEByBand[outcomeBand].Add(wOut)
				}
				if len(persistent) > 0 {
					persistent = persistent[:0]
					tc.Reprograms++
				}
			default:
				tc.Masked++
				if weighted {
					tc.Weighted.Masked.Add(wOut)
				}
			}
		}
		if len(persistent) == 0 {
			wCarried = 1
		} else {
			wCarried *= wRun
		}
	}
	return tc
}

// TestBatchedRunLoopMatchesScalarReference is the draw-sequence-identity
// gate for the batched run loop: over devices with and without persistent
// configuration faults, both spectra, exact and biased plans, and λ
// regimes from event-starved to interaction-rich, the batched shard
// runner must produce shard tallies reflect.DeepEqual to the frozen
// scalar reference — including the unexported Kahan compensation state of
// every weighted tally.
func TestBatchedRunLoopMatchesScalarReference(t *testing.T) {
	type tcase struct {
		name   string
		dev    func() *device.Device
		spec   spectrum.Spectrum
		bias   *plan.Bias
		lambda float64
		runs   int
	}
	fpga := func() *device.Device {
		d := device.FPGA()
		d.SensitiveFraction = 0.3 // force upsets, exercising the persistent-fault carry
		return d
	}
	k20 := func() *device.Device {
		d := device.K20()
		d.SensitiveFraction = 0.3
		return d
	}
	cases := []tcase{
		{"K20/ChipIR/auto-tuned", k20, spectrum.ChipIR(), nil, 0.05, 2000},
		{"K20/ROTAX/interaction-rich", k20, spectrum.ROTAX(), nil, 2, 800},
		{"FPGA/ChipIR/persistent-faults", fpga, spectrum.ChipIR(), nil, 0.8, 1200},
		{"FPGA/ROTAX/zero-lambda", fpga, spectrum.ROTAX(), nil, 0, 600},
		{"K20/ChipIR/biased-identity", k20, spectrum.ChipIR(), &plan.Bias{}, 0.5, 1000},
		{"K20/ROTAX/biased-thermal", k20, spectrum.ROTAX(), &plan.Bias{Thermal: 12}, 0.5, 1000},
		{"FPGA/ChipIR/biased-persistent", fpga, spectrum.ChipIR(), &plan.Bias{Thermal: 6, Fast: 0.5}, 0.8, 1200},
		{"K20/ChipIR/huge-lambda", k20, spectrum.ChipIR(), nil, 40, 50},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			d := c.dev()
			cfg := Config{
				Device:       d,
				WorkloadName: "MxM",
				Beam:         c.spec,
				Seed:         11,
				Bias:         c.bias,
			}.withDefaults()
			var pl *plan.CampaignPlan
			var err error
			if c.bias != nil {
				pl, err = plan.CompileBiased(d, c.spec, 4000, rng.New(2), *c.bias)
				if err != nil {
					t.Fatal(err)
				}
			} else {
				pl = plan.Compile(d, c.spec, 4000, rng.New(2))
			}
			// Identical shard decompositions with independently derived
			// streams: the batched runner buffers its stream, the scalar
			// reference draws unbuffered.
			var events atomic.Int64
			got := runShard(cfg, engine.Shard{Index: 3, Count: c.runs, Stream: engine.StreamForShard(cfg.Seed, 3)}, pl, injectorFor(t, cfg), c.lambda, &events)
			want := scalarRunShard(t, cfg, engine.Shard{Index: 3, Count: c.runs, Stream: engine.StreamForShard(cfg.Seed, 3)}, pl, c.lambda)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("batched shard tally diverged from scalar reference:\n got %+v\nwant %+v", got, want)
			}
			if want.Interactions == 0 && c.lambda > 0 {
				t.Error("reference drew no interactions; comparison is vacuous")
			}
			// The events counter is flushed in batches but must still total
			// exactly the shard's SDC+DUE count by shard completion.
			if events.Load() != got.SDC+got.DUE {
				t.Errorf("events counter = %d, want sdc+due = %d", events.Load(), got.SDC+got.DUE)
			}
		})
	}
}
