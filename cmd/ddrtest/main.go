// Command ddrtest runs the paper's DDR correct-loop campaign on a DDR3 or
// DDR4 module under the ROTAX thermal beam (or ChipIR fast beam) and
// prints the error taxonomy and per-Gbit cross section.
//
// Usage:
//
//	ddrtest [-module ddr3|ddr4] [-band thermal|fast] [-hours 10] [-ecc]
//	        [-seed N] [-shards N]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"

	"neutronsim/internal/memsim"
	"neutronsim/internal/spectrum"
	"neutronsim/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		telemetry.Log().Error("ddrtest: fatal", "error", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ddrtest", flag.ContinueOnError)
	module := fs.String("module", "ddr3", "module under test: ddr3 or ddr4")
	band := fs.String("band", "thermal", "beam: thermal (ROTAX) or fast (ChipIR)")
	hours := fs.Float64("hours", 10, "beam hours")
	ecc := fs.Bool("ecc", false, "enable SECDED accounting")
	seed := fs.Uint64("seed", 1, "campaign seed")
	shards := fs.Int("shards", runtime.GOMAXPROCS(0), "concurrent campaign shard executors (never affects results)")
	obs := telemetry.BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := obs.Start("ddrtest"); err != nil {
		return err
	}
	defer obs.Close()
	var spec memsim.ModuleSpec
	switch *module {
	case "ddr3":
		spec = memsim.DDR3Module()
	case "ddr4":
		spec = memsim.DDR4Module()
	default:
		return fmt.Errorf("unknown module %q", *module)
	}
	cfg := memsim.Config{
		Spec:            spec,
		DurationSeconds: *hours * 3600,
		ECC:             *ecc,
		Seed:            *seed,
		Shards:          *shards,
	}
	switch *band {
	case "thermal":
		cfg.Band = memsim.ThermalBeam
		cfg.Flux = spectrum.ROTAXTotalFlux
	case "fast":
		cfg.Band = memsim.FastBeam
		cfg.Flux = spectrum.ChipIR().TotalFlux()
		cfg.PermanentAbortLimit = 100
	default:
		return fmt.Errorf("unknown band %q", *band)
	}
	res, err := memsim.RunContext(context.Background(), cfg)
	if err != nil {
		return err
	}
	fmt.Printf("module: %s\n", spec)
	fmt.Printf("beam:   %s, %v, %d passes", cfg.Band, cfg.Flux, res.Passes)
	if res.Aborted {
		fmt.Printf(" (ABORTED on permanent-fault pile-up, as at ChipIR)")
	}
	fmt.Println()
	fmt.Printf("fluence: %v\n\n", res.Fluence)
	fmt.Printf("events: %d (σ/Gbit = %.3g cm², 95%% CI [%.3g, %.3g])\n",
		res.Events, res.SigmaPerGbit.Rate, res.SigmaPerGbit.Lower, res.SigmaPerGbit.Upper)
	total := float64(res.Events)
	for _, c := range []memsim.Category{memsim.Transient, memsim.Intermittent, memsim.Permanent, memsim.SEFI} {
		share := 0.0
		if total > 0 {
			share = float64(res.ByCategory[c]) / total
		}
		fmt.Printf("  %-12s %6d  (%.1f%%)\n", c, res.ByCategory[c], share*100)
	}
	dir, bias := res.DirectionBias()
	fmt.Printf("dominant flip direction: %v (%.1f%% of events)\n", dir, bias*100)
	fmt.Printf("single-bit events: %d, multi-bit events: %d\n",
		res.SingleBitEvents, res.MultiBitEvents)
	if *ecc {
		fmt.Printf("SECDED: corrected %d words, uncorrectable %d words\n",
			res.ECCCorrected, res.ECCUncorrectable)
	}
	return obs.Close()
}
