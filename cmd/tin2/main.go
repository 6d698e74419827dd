// Command tin2 simulates the Tin-II thermal-neutron detector: background
// counting followed by two inches of water placed over the detector, with
// step detection on the hourly series (the paper's Fig. "turkeypan").
//
// Usage:
//
//	tin2 [-days-before 9] [-days-after 5] [-flux 5] [-seed N] [-plot]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"neutronsim/internal/detector"
	"neutronsim/internal/rng"
	"neutronsim/internal/stats"
	"neutronsim/internal/telemetry"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		telemetry.Log().Error("tin2: fatal", "error", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("tin2", flag.ContinueOnError)
	daysBefore := fs.Int("days-before", 9, "background days before water placement")
	daysAfter := fs.Int("days-after", 5, "days after water placement")
	flux := fs.Float64("flux", 5, "ambient thermal flux (n/cm²/h)")
	seed := fs.Uint64("seed", 1, "simulation seed")
	plot := fs.Bool("plot", false, "print an ASCII plot of the daily means")
	obs := telemetry.BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := obs.Start("tin2"); err != nil {
		return err
	}
	defer obs.Close()
	s := rng.New(*seed)
	det, err := detector.New(detector.Config{}, s)
	if err != nil {
		return err
	}
	fmt.Printf("Tin-II: efficiency %.2f, Cd shield leak %.2g, face %v cm²\n",
		det.Efficiency, det.ShieldLeak, detector.FaceAreaCm2)
	res, err := detector.RunWaterExperimentContext(ctx, detector.WaterExperimentConfig{
		Detector:               det,
		BaseThermalFluxPerHour: *flux,
		DaysBefore:             *daysBefore,
		DaysAfter:              *daysAfter,
	}, s)
	if err != nil {
		return err
	}
	fmt.Printf("transport-computed water enhancement: %.1f%% (paper: ~24%%)\n", res.Enhancement*100)
	fmt.Printf("water placed at hour %d\n\n", res.WaterHour)
	days := res.Series.Hours() / 24
	maxMean := 0.0
	means := make([]float64, days)
	for d := 0; d < days; d++ {
		means[d] = stats.Mean(res.Series.ThermalEstimate[d*24 : (d+1)*24])
		if means[d] > maxMean {
			maxMean = means[d]
		}
	}
	fmt.Printf("%-5s %-22s %s\n", "day", "thermal counts/h", "")
	for d := 0; d < days; d++ {
		bar := ""
		if *plot && maxMean > 0 {
			bar = strings.Repeat("#", int(means[d]/maxMean*50))
		}
		marker := ""
		if (d+1)*24 > res.WaterHour && d*24 <= res.WaterHour {
			marker = "  <- water placed"
		}
		fmt.Printf("%-5d %-22.1f %s%s\n", d+1, means[d], bar, marker)
	}
	fmt.Println()
	if res.Change.Significant {
		fmt.Printf("detected step: hour %d, +%.1f%% (z=%.1f)\n",
			res.Change.Index, res.Change.RelChange*100, res.Change.ZScore)
	} else {
		fmt.Printf("no significant step detected (z=%.1f)\n", res.Change.ZScore)
	}
	return obs.Close()
}
