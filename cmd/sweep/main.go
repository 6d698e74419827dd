// Command sweep maps the COTS design space at the heart of the paper: how
// the ¹⁰B content and the critical charge of a part set its thermal and
// fast neutron sensitivity. It evaluates a grid of hypothetical devices
// against both beamlines with surrogate.EvaluateGrid and prints one row
// per design point.
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
// -train-out writes the same grid as a surrogate training dataset, and
// -surrogate-out fits a content-hash-versioned surrogate model on it,
// ready for neutrond -surrogate. See DESIGN.md §17.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"

	"neutronsim/internal/plan"
	"neutronsim/internal/surrogate"
	"neutronsim/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		telemetry.Log().Error("sweep: fatal", "error", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	boronMin := fs.Float64("boron-min", 1e12, "minimum ¹⁰B areal density (at/cm²)")
	boronMax := fs.Float64("boron-max", 1e15, "maximum ¹⁰B areal density (at/cm²)")
	boronSteps := fs.Int("boron-steps", 7, "boron grid points (log-spaced)")
	qcritMin := fs.Float64("qcrit-min", 1, "minimum critical charge (fC)")
	qcritMax := fs.Float64("qcrit-max", 16, "maximum critical charge (fC)")
	qcritSteps := fs.Int("qcrit-steps", 5, "Qcrit grid points (log-spaced)")
	samples := fs.Int("samples", surrogate.DefaultSamples, "Monte Carlo energies per cross section")
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

	grid := surrogate.GridConfig{
		BoronMin: *boronMin, BoronMax: *boronMax, BoronSteps: *boronSteps,
		QcritMin: *qcritMin, QcritMax: *qcritMax, QcritSteps: *qcritSteps,
		Samples: *samples, Seed: *seed, Workers: *shards,
	}
	if *biasThermal != 0 || *biasEpithermal != 0 || *biasFast != 0 {
		grid.Bias = &plan.Bias{Thermal: *biasThermal, Epithermal: *biasEpithermal, Fast: *biasFast}
	}
	ds, err := surrogate.EvaluateGrid(grid)
	if err != nil {
		return err
	}

	fmt.Printf("%14s %10s %16s %16s %14s\n",
		"boron [at/cm²]", "Qcrit [fC]", "σ_thermal [cm²]", "σ_fast [cm²]", "thermal:fast")
	var csv strings.Builder
	csv.WriteString("boron_at_cm2,qcrit_fc,sigma_thermal_cm2,sigma_fast_cm2,thermal_to_fast\n")
	// Each design point is a ROTAX row followed by a ChipIR row.
	for i := 0; i < len(ds.Rows); i += 2 {
		boron, qcrit := ds.Rows[i].BoronPerCm2, ds.Rows[i].QcritFC
		thermal, fast := ds.Rows[i].SigmaCm2, ds.Rows[i+1].SigmaCm2
		ratio := math.NaN()
		if fast > 0 {
			ratio = thermal / fast
		}
		fmt.Printf("%14.3g %10.3g %16.3g %16.3g %14.3g\n", boron, qcrit, thermal, fast, ratio)
		fmt.Fprintf(&csv, "%g,%g,%g,%g,%g\n", boron, qcrit, thermal, fast, ratio)
	}
	if *csvPath != "" {
		// Atomic temp+rename: a plotting script or a watcher re-reading the
		// grid mid-sweep never sees a truncated file.
		if err := telemetry.WriteFileAtomic(*csvPath, []byte(csv.String()), 0o644); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s\n", *csvPath)
	}
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
	return obs.Close()
}
