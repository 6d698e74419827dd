package neutronsim

import (
	"context"
	"fmt"

	"neutronsim/internal/beam"
	"neutronsim/internal/checkpoint"
	"neutronsim/internal/core"
	"neutronsim/internal/detector"
	"neutronsim/internal/device"
	"neutronsim/internal/fit"
	"neutronsim/internal/fleet"
	"neutronsim/internal/jobsim"
	"neutronsim/internal/memsim"
	"neutronsim/internal/plan"
	"neutronsim/internal/report"
	"neutronsim/internal/rng"
	"neutronsim/internal/spectrum"
	"neutronsim/internal/units"
	"neutronsim/internal/workload"
)

// Core types re-exported as the public API surface.
type (
	// Device is a chip sensitivity model.
	Device = device.Device
	// Assessment is a device's measured fast/thermal sensitivity.
	Assessment = core.Assessment
	// Budget sets simulated beam time for an assessment.
	Budget = core.Budget
	// Bias opts campaigns into importance-sampled transport with per-band
	// oversampling factors (see Budget.Bias).
	Bias = plan.Bias
	// RatioRow is one line of the cross-section ratio table.
	RatioRow = core.RatioRow
	// ShareRow is one line of the thermal-FIT-share table.
	ShareRow = core.ShareRow
	// Location holds a site's natural neutron fluxes.
	Location = fit.Location
	// Environment is a located device's surroundings.
	Environment = fit.Environment
	// FITReport is a per-band FIT decomposition.
	FITReport = fit.Report
	// Sigmas are measured device cross sections.
	Sigmas = fit.Sigmas
	// Supercomputer describes a Top-10 machine.
	Supercomputer = fit.Supercomputer
	// SupercomputerFIT is a projected DDR thermal-FIT row.
	SupercomputerFIT = fit.SupercomputerFIT
	// ModuleSpec describes a DRAM module under test.
	ModuleSpec = memsim.ModuleSpec
	// MemoryResult is a DRAM correct-loop campaign outcome.
	MemoryResult = memsim.Result
	// BeamResult is one beam campaign outcome.
	BeamResult = beam.Result
	// Detector is a Tin-II instance.
	Detector = detector.Detector
	// WaterExperimentResult is the Fig. "turkeypan" reproduction.
	WaterExperimentResult = detector.WaterExperimentResult
	// FIT is a failure rate in failures per 10⁹ device-hours.
	FIT = units.FIT
	// CrossSection is a device cross section in cm².
	CrossSection = units.CrossSection
	// MemoryGeneration distinguishes DDR3 from DDR4.
	MemoryGeneration = memsim.Generation
)

// Memory generations.
const (
	DDR3 = memsim.DDR3
	DDR4 = memsim.DDR4
)

// Devices returns the full device catalog (including the three APU
// configurations).
func Devices() []*Device { return device.All() }

// DeviceByName looks a catalog device up by name.
func DeviceByName(name string) (*Device, error) {
	for _, d := range device.All() {
		if d.Name == name {
			return d, nil
		}
	}
	return nil, fmt.Errorf("neutronsim: unknown device %q", name)
}

// Workloads lists the benchmark names.
func Workloads() []string { return workload.Names() }

// Assess measures a device's fast and thermal sensitivity with matched
// ChipIR/ROTAX campaigns. Pass nil workloads for the paper's default
// assignment and DefaultBudget or QuickBudget for the beam time.
func Assess(d *Device, workloads []string, b Budget, seed uint64) (*Assessment, error) {
	return core.Assess(d, workloads, b, seed)
}

// AssessContext is Assess with a caller context, so long assessments can be
// canceled (e.g. on SIGINT) and observed per campaign.
func AssessContext(ctx context.Context, d *Device, workloads []string, b Budget, seed uint64) (*Assessment, error) {
	return core.AssessContext(ctx, d, workloads, b, seed)
}

// DefaultBudget gives production-quality campaign statistics (hundreds of
// errors per campaign).
func DefaultBudget() Budget {
	return Budget{FastSeconds: 2 * 3600, ThermalSeconds: 40 * 3600, Boost: 1}
}

// QuickBudget trades precision for speed while preserving all ratios.
func QuickBudget() Budget { return core.QuickBudget() }

// RatioTable builds the paper's Fig. cs_ratio table.
func RatioTable(as []*Assessment) []RatioRow { return core.RatioTable(as) }

// ShareTable builds the thermal-FIT-share table across environments.
func ShareTable(as []*Assessment, envs []Environment) ([]ShareRow, error) {
	return core.ShareTable(as, envs)
}

// NYC is the sea-level reference site.
func NYC() Location { return fit.NYC() }

// Leadville is the 10,151 ft reference site.
func Leadville() Location { return fit.Leadville() }

// AtAltitude scales the reference fluxes to an altitude in meters.
func AtAltitude(name string, meters float64) Location { return fit.AtAltitude(name, meters) }

// DataCenter is a concrete-slab, water-cooled machine room (+44% thermal).
func DataCenter(l Location) Environment { return fit.DataCenter(l) }

// ComputeFIT folds measured cross sections and an environment into FIT
// rates.
func ComputeFIT(s Sigmas, env Environment) (FITReport, error) { return fit.Compute(s, env) }

// DDR3Module and DDR4Module return the paper's memory DUTs.
func DDR3Module() ModuleSpec { return memsim.DDR3Module() }

// DDR4Module returns the paper's 8 GB DDR4 DUT.
func DDR4Module() ModuleSpec { return memsim.DDR4Module() }

// RunMemoryCampaign runs a thermal-beam correct-loop campaign on a module
// for the given number of hours.
func RunMemoryCampaign(spec ModuleSpec, hours float64, ecc bool, seed uint64) (*MemoryResult, error) {
	return memsim.RunContext(context.Background(), memsim.Config{
		Spec:            spec,
		Band:            memsim.ThermalBeam,
		Flux:            spectrum.ROTAXTotalFlux,
		DurationSeconds: hours * 3600,
		ECC:             ecc,
		Seed:            seed,
	})
}

// NewDetector builds a Tin-II thermal-neutron detector.
func NewDetector(seed uint64) (*Detector, error) {
	return detector.New(detector.Config{}, rng.New(seed))
}

// RunWaterExperiment reproduces the paper's water-over-detector
// measurement: counting before and after two inches of water are placed
// over Tin-II, with change detection on the hourly series.
func RunWaterExperiment(seed uint64) (*WaterExperimentResult, error) {
	d, err := NewDetector(seed)
	if err != nil {
		return nil, err
	}
	return detector.RunWaterExperiment(detector.WaterExperimentConfig{Detector: d}, rng.New(seed+1))
}

// Top10 returns the June-2019 Top-10 supercomputers.
func Top10() []Supercomputer { return fit.Top10() }

// ProjectTop10 projects whole-system DDR thermal FIT rates for the given
// machines using per-generation cross sections.
func ProjectTop10(machines []Supercomputer, sigmaPerGbit map[MemoryGeneration]CrossSection, eccResidual float64) ([]SupercomputerFIT, error) {
	return fit.ProjectTop10(machines, sigmaPerGbit, eccResidual)
}

// Fleet and checkpointing types.
type (
	// FleetConfig drives a production-fleet error-log simulation.
	FleetConfig = fleet.Config
	// NodeClass is a group of identical nodes sharing an environment.
	NodeClass = fleet.NodeClass
	// FleetLog is a simulated error log with exposure bookkeeping.
	FleetLog = fleet.Log
	// FleetReport is the field-data analysis of a FleetLog.
	FleetReport = fleet.Report
	// WeatherDay is one day of weather for checkpoint scheduling.
	WeatherDay = checkpoint.Day
	// CheckpointPlan is a weather-aware checkpoint schedule.
	CheckpointPlan = checkpoint.Plan
)

// SimulateFleet runs a fleet error-log simulation (the field-study
// pipeline of §II).
func SimulateFleet(cfg FleetConfig) (*FleetLog, error) {
	return fleet.SimulateContext(context.Background(), cfg)
}

// SimulateFleetContext is SimulateFleet with a caller context; cancellation
// stops the simulation at the next day boundary.
func SimulateFleetContext(ctx context.Context, cfg FleetConfig) (*FleetLog, error) {
	return fleet.SimulateContext(ctx, cfg)
}

// AnalyzeFleet recovers per-class FIT rates from an error log and tests
// placement and weather effects.
func AnalyzeFleet(log *FleetLog) (*FleetReport, error) { return fleet.Analyze(log) }

// PlanCheckpoints builds a weather-aware Daly checkpoint schedule from
// sunny/rainy system DUE rates (§VI's closing suggestion).
func PlanCheckpoints(sunnyDUE, rainyDUE FIT, checkpointSeconds float64, days []WeatherDay) (CheckpointPlan, error) {
	return checkpoint.PlanSchedule(sunnyDUE, rainyDUE, checkpointSeconds, days)
}

// Reliability dossiers and job simulation.

// ReliabilityDossier renders a Markdown reliability report for an
// assessment across environments; systemNodes > 0 adds checkpoint advice.
func ReliabilityDossier(a *Assessment, envs []Environment, systemNodes int) (string, error) {
	return report.Markdown(report.Input{
		Assessment:   a,
		Environments: envs,
		SystemNodes:  systemNodes,
	})
}

// JobParams configures a goodput simulation.
type JobParams = jobsim.Params

// JobResult is a goodput simulation outcome.
type JobResult = jobsim.Result

// SimulateJob runs a discrete-event checkpoint/failure simulation of a
// long-running job (the §I productivity analysis).
func SimulateJob(p JobParams, seed uint64) (JobResult, error) {
	return jobsim.Simulate(p, rng.New(seed))
}
