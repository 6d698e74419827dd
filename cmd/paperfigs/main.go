// Command paperfigs regenerates every table and figure of the paper from
// the simulators, printing aligned text tables and optionally writing CSV
// data and SVG figures.
//
// Usage:
//
//	paperfigs [-experiment all|E1..E16|A1..A7] [-scale quick|full] [-seed N]
//	          [-csv dir] [-svg dir] [-ablations]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"neutronsim/internal/experiments"
	"neutronsim/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		telemetry.Log().Error("paperfigs: fatal", "error", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("paperfigs", flag.ContinueOnError)
	experiment := fs.String("experiment", "all", "experiment id (E1..E16, A1..A7) or 'all'")
	scaleName := fs.String("scale", "quick", "statistics budget: quick or full")
	seed := fs.Uint64("seed", 42, "campaign seed")
	csvDir := fs.String("csv", "", "directory to write CSV files into (optional)")
	svgDir := fs.String("svg", "", "directory to write SVG figures into (optional)")
	ablations := fs.Bool("ablations", false, "with -experiment all, also run the A1..A7 ablations")
	obs := telemetry.BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := obs.Start("paperfigs"); err != nil {
		return err
	}
	defer obs.Close()
	var scale experiments.Scale
	switch *scaleName {
	case "quick":
		scale = experiments.Quick
	case "full":
		scale = experiments.Full
	default:
		return fmt.Errorf("unknown scale %q (want quick or full)", *scaleName)
	}
	var todo []experiments.Descriptor
	if *experiment == "all" {
		todo = experiments.All()
		if *ablations {
			todo = append(todo, experiments.AllAblations()...)
		}
	} else {
		for _, id := range strings.Split(*experiment, ",") {
			d, err := lookup(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			todo = append(todo, d)
		}
	}
	for _, dir := range []string{*csvDir, *svgDir} {
		if dir == "" {
			continue
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	allStart := time.Now()
	for i, d := range todo {
		start := time.Now()
		tbl, err := d.Run(scale, *seed)
		if err != nil {
			return fmt.Errorf("%s: %w", d.ID, err)
		}
		telemetry.Count("paperfigs.experiments_run", 1)
		telemetry.ReportProgress(context.Background(), telemetry.ProgressUpdate{
			Component: "paperfigs",
			Phase:     d.ID,
			Done:      float64(i + 1),
			Total:     float64(len(todo)),
			Elapsed:   time.Since(allStart),
		})
		fmt.Printf("%s(%s scale, %.1fs) — paper artifact: %s\n\n",
			tbl.Format(), scale, time.Since(start).Seconds(), d.Artifact)
		if *csvDir != "" {
			path := filepath.Join(*csvDir, strings.ToLower(d.ID)+".csv")
			if err := os.WriteFile(path, []byte(tbl.CSV()), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n\n", path)
		}
		if *svgDir != "" {
			for _, fig := range tbl.Figures {
				svg, err := fig.Figure.SVG()
				if err != nil {
					return fmt.Errorf("%s figure %s: %w", d.ID, fig.Name, err)
				}
				path := filepath.Join(*svgDir,
					strings.ToLower(d.ID)+"_"+fig.Name+".svg")
				if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n\n", path)
			}
		}
	}
	return obs.Close()
}

// lookup resolves an experiment or ablation id.
func lookup(id string) (experiments.Descriptor, error) {
	if d, err := experiments.ByID(id); err == nil {
		return d, nil
	}
	for _, d := range experiments.AllAblations() {
		if d.ID == id {
			return d, nil
		}
	}
	return experiments.Descriptor{}, fmt.Errorf("unknown experiment %q", id)
}
