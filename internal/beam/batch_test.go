package beam

import (
	"math"
	"reflect"
	"testing"

	"neutronsim/internal/device"
	"neutronsim/internal/engine"
	"neutronsim/internal/faultinject"
	"neutronsim/internal/plan"
	"neutronsim/internal/rng"
	"neutronsim/internal/spectrum"
	"neutronsim/internal/stats"
	"neutronsim/internal/workload"
)

// scalarRunShard is a frozen copy of the pre-batch run loop: one Poisson
// draw per run, one uniform at a time, drawn straight off an unbuffered
// stream, with every tally written directly. It is the statistical oracle
// of the run loop in beam.go, which draws the empty runs as geometric
// gaps: where a run can be empty the two must agree in distribution, and
// where none can be (λ = 0, or λ ≥ 30, where both make one Poisson draw
// per run) bit for bit. It is kept in the test so it can never drift
// along with the production code.
func scalarRunShard(t *testing.T, cfg Config, sh engine.Shard, pl *plan.CampaignPlan, lambda float64) shardTally {
	t.Helper()
	w, err := workload.New(cfg.WorkloadName)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faultinject.NewInjector(w, workload.InputSeed)
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
				en, w := pl.WeightedSampler().Sample(s)
				tc.Weighted.Draws.Add(w)
				wRun *= w
				f, upset = cfg.Device.InteractionUpset(en, s)
				if upset {
					tc.Weighted.UpsetsByBand[f.Band].Add(w)
				}
			} else {
				en := pl.Sampler().Sample(s)
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

// TestBatchedRunLoopMatchesScalarReference gates the run loop against the
// frozen scalar reference over devices with and without persistent
// configuration faults, both spectra, exact and biased plans, and λ
// regimes from event-starved to interaction-rich. Where the loop draws
// the same stream as the reference (λ = 0, λ ≥ 30) its shard tally must
// be reflect.DeepEqual to the reference's, including the Kahan
// compensation state of every weighted tally. Elsewhere it draws gaps
// instead of per-run counts, so both sides run refShards shards from
// independent streams, and every tally field's shard mean must agree
// within 4 standard errors.
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
	const refShards = 200
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
			shard := func(i int) engine.Shard {
				return engine.Shard{Index: i, Count: c.runs, Stream: engine.StreamForShard(cfg.Seed, i)}
			}
			inj := injectorFor(t, cfg)
			if c.lambda <= 0 || c.lambda >= 30 {
				got := runShard(cfg, shard(3), pl, inj, c.lambda)
				want := scalarRunShard(t, cfg, shard(3), pl, c.lambda)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("shard tally diverged from scalar reference:\n got %+v\nwant %+v", got, want)
				}
				if want.Interactions == 0 && c.lambda > 0 {
					t.Error("reference drew no interactions; comparison is vacuous")
				}
				return
			}
			var got, want [][]float64
			for i := range refShards {
				got = append(got, tallyFields(runShard(cfg, shard(i), pl, inj, c.lambda)))
				want = append(want, tallyFields(scalarRunShard(t, cfg, shard(refShards+i), pl, c.lambda)))
			}
			worst := 0.0
			for f := range got[0] {
				mg, sg := meanSE(got, f)
				mw, sw := meanSE(want, f)
				if sg == 0 && sw == 0 {
					if mg != mw {
						t.Errorf("tally field %d: constant %v, reference constant %v", f, mg, mw)
					}
					continue
				}
				z := (mg - mw) / math.Hypot(sg, sw)
				worst = max(worst, math.Abs(z))
				if math.Abs(z) > 4 {
					t.Errorf("tally field %d: shard mean %.6g against the reference's %.6g (z = %.2f)", f, mg, mw, z)
				}
			}
			t.Logf("worst |z| over %d tally fields: %.2f", len(got[0]), worst)
			if mean, _ := meanSE(want, 5); mean == 0 {
				t.Error("reference drew no interactions; comparison is vacuous")
			}
		})
	}
}

// tallyFields flattens a shard tally into the fields the statistical
// reference compares: the integer tallies in declaration order
// (Interactions is index 5), the upsets by band, and the N, weighted sum
// and sum of squared weights of every weighted tally.
func tallyFields(tc shardTally) []float64 {
	out := []float64{float64(tc.SDC), float64(tc.DUE), float64(tc.Masked), float64(tc.Upsets), float64(tc.Reprograms), float64(tc.Interactions)}
	for _, n := range tc.ByBand {
		out = append(out, float64(n))
	}
	if w := tc.Weighted; w != nil {
		sums := append([]stats.Weighted{w.Draws, w.SDC, w.DUE, w.Masked}, w.UpsetsByBand[:]...)
		for _, t := range append(sums, w.DUEByBand[:]...) {
			out = append(out, float64(t.N), t.Sum(), t.SumSquares())
		}
	}
	return out
}

// meanSE returns the mean of field f over the rows and its standard error.
func meanSE(rows [][]float64, f int) (mean, se float64) {
	for _, r := range rows {
		mean += r[f]
	}
	mean /= float64(len(rows))
	var ss float64
	for _, r := range rows {
		ss += (r[f] - mean) * (r[f] - mean)
	}
	return mean, math.Sqrt(ss / float64(len(rows)-1) / float64(len(rows)))
}
