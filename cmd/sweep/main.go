// Command sweep maps the COTS design space at the heart of the paper: how
// the ¹⁰B content and the critical charge of a part set its thermal and
// fast neutron sensitivity. It evaluates a grid of hypothetical devices
// against both beamlines and emits one row per design point.
//
// Usage:
//
//	sweep [-boron-min 1e12] [-boron-max 1e15] [-boron-steps 7]
//	      [-qcrit-min 1] [-qcrit-max 16] [-qcrit-steps 5]
//	      [-samples 60000] [-shards N] [-seed N] [-csv file]
//	      [-bias-thermal F] [-bias-epithermal F] [-bias-fast F]
//	      [-train-out data.json] [-surrogate-out model.json]
//	      [-cpuprofile cpu.pb.gz] [-memprofile mem.pb.gz]
//
// The -bias-* flags switch the cross-section estimator to importance
// sampling: each design point compiles a biased campaign plan per beamline
// and estimates σ from likelihood-weighted interaction draws, so the rare
// band gathers far more upset statistics from the same sample count. The
// output format is unchanged. See DESIGN.md §14.
//
// -train-out exports the evaluated grid as a surrogate training dataset
// and -surrogate-out fits and writes a content-hash-versioned surrogate
// model of the grid, ready for neutrond -surrogate. See DESIGN.md §17.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"neutronsim/internal/engine"
	"neutronsim/internal/plan"
	"neutronsim/internal/rng"
	"neutronsim/internal/spectrum"
	"neutronsim/internal/surrogate"
	"neutronsim/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		telemetry.Log().Error("sweep: fatal", "error", err)
		os.Exit(1)
	}
}

// point is one design-space evaluation.
type point struct {
	boron, qcrit            float64
	sigmaThermal, sigmaFast float64
}

func run(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	boronMin := fs.Float64("boron-min", 1e12, "minimum ¹⁰B areal density (at/cm²)")
	boronMax := fs.Float64("boron-max", 1e15, "maximum ¹⁰B areal density (at/cm²)")
	boronSteps := fs.Int("boron-steps", 7, "boron grid points (log-spaced)")
	qcritMin := fs.Float64("qcrit-min", 1, "minimum critical charge (fC)")
	qcritMax := fs.Float64("qcrit-max", 16, "maximum critical charge (fC)")
	qcritSteps := fs.Int("qcrit-steps", 5, "Qcrit grid points (log-spaced)")
	samples := fs.Int("samples", 60000, "Monte Carlo energies per cross section")
	shards := fs.Int("shards", runtime.GOMAXPROCS(0), "concurrent design-point evaluators (never affects results)")
	biasThermal := fs.Float64("bias-thermal", 0, "thermal-band oversampling factor (0 = exact estimator)")
	biasEpithermal := fs.Float64("bias-epithermal", 0, "epithermal-band oversampling factor (0 = exact estimator)")
	biasFast := fs.Float64("bias-fast", 0, "fast-band oversampling factor (0 = exact estimator)")
	seed := fs.Uint64("seed", 1, "simulation seed")
	csvPath := fs.String("csv", "", "also write the grid as CSV")
	trainOut := fs.String("train-out", "", "also write the grid as a surrogate training dataset (JSON)")
	surrogateOut := fs.String("surrogate-out", "", "fit a surrogate model on the grid and write it (JSON)")
	obs := telemetry.BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := obs.Start("sweep"); err != nil {
		return err
	}
	defer obs.Close()
	if *boronMin <= 0 || *boronMax < *boronMin || *boronSteps < 1 {
		return fmt.Errorf("invalid boron grid")
	}
	if *qcritMin <= 0 || *qcritMax < *qcritMin || *qcritSteps < 1 {
		return fmt.Errorf("invalid qcrit grid")
	}
	if *samples <= 0 {
		return fmt.Errorf("samples must be positive")
	}
	pool := *shards
	if pool < 1 {
		pool = 1
	}

	var bias *plan.Bias
	if *biasThermal != 0 || *biasEpithermal != 0 || *biasFast != 0 {
		bias = &plan.Bias{Thermal: *biasThermal, Epithermal: *biasEpithermal, Fast: *biasFast}
		if err := bias.Validate(); err != nil {
			return err
		}
	}

	points := buildGrid(*boronMin, *boronMax, *boronSteps, *qcritMin, *qcritMax, *qcritSteps)
	if err := evaluate(points, *samples, pool, *seed, bias); err != nil {
		return err
	}

	fmt.Printf("%14s %10s %16s %16s %14s\n",
		"boron [at/cm²]", "Qcrit [fC]", "σ_thermal [cm²]", "σ_fast [cm²]", "thermal:fast")
	var csv strings.Builder
	csv.WriteString("boron_at_cm2,qcrit_fc,sigma_thermal_cm2,sigma_fast_cm2,thermal_to_fast\n")
	for _, p := range points {
		ratio := math.NaN()
		if p.sigmaFast > 0 {
			ratio = p.sigmaThermal / p.sigmaFast
		}
		fmt.Printf("%14.3g %10.3g %16.3g %16.3g %14.3g\n",
			p.boron, p.qcrit, p.sigmaThermal, p.sigmaFast, ratio)
		fmt.Fprintf(&csv, "%g,%g,%g,%g,%g\n", p.boron, p.qcrit, p.sigmaThermal, p.sigmaFast, ratio)
	}
	if *csvPath != "" {
		// Atomic temp+rename: a plotting script or a watcher re-reading the
		// grid mid-sweep never sees a truncated file.
		if err := telemetry.WriteFileAtomic(*csvPath, []byte(csv.String()), 0o644); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s\n", *csvPath)
	}
	if *trainOut != "" || *surrogateOut != "" {
		ds := dataset(points, *samples, *seed, bias)
		if *trainOut != "" {
			if err := ds.Save(*trainOut); err != nil {
				return err
			}
			fmt.Printf("wrote %s (%d rows)\n", *trainOut, len(ds.Rows))
		}
		if *surrogateOut != "" {
			m, err := surrogate.Train(ds, surrogate.TrainConfig{})
			if err != nil {
				return err
			}
			if err := m.Save(*surrogateOut); err != nil {
				return err
			}
			fmt.Printf("wrote %s (model %.12s…, certified rel err %.4f)\n",
				*surrogateOut, m.Hash, m.CertifiedRelErr)
		}
	}
	return obs.Close()
}

// dataset converts an evaluated grid into surrogate training rows, two
// per design point (ROTAX then ChipIR), in the same traversal order as
// surrogate.EvaluateGrid.
func dataset(points []*point, samples int, seed uint64, bias *plan.Bias) *surrogate.Dataset {
	var b plan.Bias
	if bias != nil {
		b = *bias
	}
	rotax := spectrum.ROTAX()
	chip := spectrum.ChipIR()
	ds := surrogate.NewDataset(samples, seed)
	for _, p := range points {
		ds.Add(p.boron, p.qcrit, rotax, b, p.sigmaThermal)
		ds.Add(p.boron, p.qcrit, chip, b, p.sigmaFast)
	}
	return ds
}

// buildGrid enumerates the log-spaced design points.
func buildGrid(bMin, bMax float64, bSteps int, qMin, qMax float64, qSteps int) []*point {
	logStep := func(lo, hi float64, steps, i int) float64 {
		if steps == 1 {
			return lo
		}
		return lo * math.Exp(math.Log(hi/lo)*float64(i)/float64(steps-1))
	}
	var out []*point
	for bi := 0; bi < bSteps; bi++ {
		for qi := 0; qi < qSteps; qi++ {
			out = append(out, &point{
				boron: logStep(bMin, bMax, bSteps, bi),
				qcrit: logStep(qMin, qMax, qSteps, qi),
			})
		}
	}
	return out
}

// evaluate fills in the cross sections on the sharded engine, one design
// point per shard. Each point draws from its own split RNG stream, so the
// result is independent of scheduling and of the worker count. With a
// non-nil bias, each point compiles a biased campaign plan per beamline
// (the calibration set doubles as the estimator's energy sample) and uses
// the likelihood-weighted estimator instead of the analog one.
func evaluate(points []*point, samples, workers int, seed uint64, bias *plan.Bias) error {
	evalStart := time.Now()
	evaluated := telemetry.Default.Counter("sweep.points_evaluated")
	// One compiled spectrum per beamline for the whole grid; the per-point
	// device comes from surrogate.DesignDevice, the single definition of
	// the sweep design geometry shared with neutrond's xsection executor
	// and the surrogate training grid.
	chip := spectrum.ChipIR()
	rotax := spectrum.ROTAX()
	// Pre-split one stream per point for scheduling-independent results.
	root := rng.New(seed)
	streams := make([]*rng.Stream, len(points))
	for i := range streams {
		streams[i] = root.Split()
	}
	cfg := engine.Config{
		Workers:   workers,
		Grain:     1,
		Name:      "sweep",
		StreamFor: func(shard int) *rng.Stream { return streams[shard] },
		OnShardDone: func(_ engine.Shard, done, total int) {
			telemetry.ReportProgress(telemetry.ProgressUpdate{
				Component: "sweep",
				Done:      float64(done),
				Total:     float64(total),
				Elapsed:   time.Since(evalStart),
			})
		},
	}
	_, err := engine.Map(context.Background(), cfg, len(points), 1,
		func(_ context.Context, sh engine.Shard) (struct{}, error) {
			p := points[sh.Index]
			d := surrogate.DesignDevice(p.boron, p.qcrit)
			sigma := func(sp spectrum.Spectrum) (float64, error) {
				if bias == nil {
					s, err := d.UpsetCrossSection(sp.Sample, samples, sh.Stream)
					return float64(s), err
				}
				cp, err := plan.CompileBiased(d, sp, samples, sh.Stream, *bias)
				if err != nil {
					return 0, err
				}
				s, _, err := cp.UpsetCrossSectionWeighted(d, samples, sh.Stream)
				return float64(s), err
			}
			sigmaT, err := sigma(rotax)
			if err != nil {
				return struct{}{}, err
			}
			sigmaF, err := sigma(chip)
			if err != nil {
				return struct{}{}, err
			}
			p.sigmaThermal = sigmaT
			p.sigmaFast = sigmaF
			evaluated.Inc()
			return struct{}{}, nil
		})
	return err
}
