// Package fleet simulates a supercomputer fleet in production and the
// field-data analysis the paper's related work leans on (§II: "some
// studies also analyze field data from supercomputers error logs"). Nodes
// are grouped into classes by their environment — in particular, proximity
// to the water-cooling loops, which the paper shows raises the local
// thermal flux — and the simulator produces an hour-resolution error log.
// The analyzer then recovers per-class FIT rates from the log and tests
// whether the "near cooling" class really fails more often, closing the
// loop from beam measurement to machine-room observation.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"neutronsim/internal/fit"
	"neutronsim/internal/rng"
	"neutronsim/internal/stats"
	"neutronsim/internal/telemetry"
	"neutronsim/internal/telemetry/trace"
	"neutronsim/internal/units"
)

// EventType is the logged error type.
type EventType int

// Event types.
const (
	EventSDC EventType = iota + 1
	EventDUE
)

// String names the event type.
func (e EventType) String() string {
	switch e {
	case EventSDC:
		return "SDC"
	case EventDUE:
		return "DUE"
	default:
		return "unknown"
	}
}

// NodeClass is a group of identical nodes sharing an environment.
type NodeClass struct {
	Name  string
	Count int
	// Env is the class environment *without* the weather flag; rain is
	// applied fleet-wide by the daily weather sequence.
	Env fit.Environment
	// Sigmas are the per-node device cross sections (from a beam
	// assessment).
	Sigmas fit.Sigmas
}

// Config drives a fleet simulation.
type Config struct {
	Classes []NodeClass
	Days    int
	// RainProbability is the chance each day is rainy (thermal flux ×2).
	RainProbability float64
	Seed            uint64
}

func (c Config) validate() error {
	if len(c.Classes) == 0 {
		return errors.New("fleet: no node classes")
	}
	for _, cl := range c.Classes {
		if cl.Name == "" {
			return errors.New("fleet: unnamed class")
		}
		if cl.Count <= 0 {
			return fmt.Errorf("fleet: class %s has no nodes", cl.Name)
		}
		if err := cl.Sigmas.Validate(); err != nil {
			return fmt.Errorf("fleet: class %s: %w", cl.Name, err)
		}
	}
	if c.Days <= 0 {
		return errors.New("fleet: non-positive duration")
	}
	if c.RainProbability < 0 || c.RainProbability > 1 {
		return errors.New("fleet: rain probability out of [0,1]")
	}
	return nil
}

// Entry is one error-log record.
type Entry struct {
	Hour  int // hour index since start
	Class string
	Node  int // node index within the class
	Type  EventType
	Rainy bool
}

// Log is a complete fleet error log with exposure bookkeeping.
type Log struct {
	Entries []Entry
	// NodeHours maps class → accumulated node-hours.
	NodeHours map[string]float64
	// RainyDays counts how many days were rainy.
	RainyDays int
	Days      int
}

// SimulateContext runs the fleet for the configured number of days;
// cancellation stops the simulation at the next day boundary and returns
// the context's error.
func SimulateContext(ctx context.Context, cfg Config) (*Log, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ctx, span := trace.StartChild(ctx, "fleet.simulate")
	defer span.End()
	simStart := time.Now()
	s := rng.New(cfg.Seed)
	log := &Log{NodeHours: map[string]float64{}, Days: cfg.Days}
	// Precompute per-class hourly event rates for dry and rainy weather.
	type classRates struct {
		sdcDry, dueDry, sdcWet, dueWet float64 // events per node-hour
	}
	rates := make([]classRates, len(cfg.Classes))
	for i, cl := range cfg.Classes {
		dryEnv := cl.Env
		dryEnv.Raining = false
		wetEnv := cl.Env
		wetEnv.Raining = true
		dry, err := fit.Compute(cl.Sigmas, dryEnv)
		if err != nil {
			return nil, fmt.Errorf("fleet: class %s: %w", cl.Name, err)
		}
		wet, err := fit.Compute(cl.Sigmas, wetEnv)
		if err != nil {
			return nil, fmt.Errorf("fleet: class %s: %w", cl.Name, err)
		}
		rates[i] = classRates{
			sdcDry: float64(dry.SDC.Total()) / 1e9,
			dueDry: float64(dry.DUE.Total()) / 1e9,
			sdcWet: float64(wet.SDC.Total()) / 1e9,
			dueWet: float64(wet.DUE.Total()) / 1e9,
		}
	}
	// One emit helper for the whole simulation; the previous per-class
	// per-hour closure allocation was the inner loop's only heap traffic
	// besides the log itself.
	emit := func(n int64, cl *NodeClass, h int, typ EventType, rainy bool) {
		for k := int64(0); k < n; k++ {
			log.Entries = append(log.Entries, Entry{
				Hour:  h,
				Class: cl.Name,
				Node:  s.Intn(cl.Count),
				Type:  typ,
				Rainy: rainy,
			})
		}
	}
	for day := 0; day < cfg.Days; day++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rainy := s.Bernoulli(cfg.RainProbability)
		if rainy {
			log.RainyDays++
		}
		telemetry.ReportProgress(ctx, telemetry.ProgressUpdate{
			Component: "fleet",
			Done:      float64(day + 1),
			Total:     float64(cfg.Days),
			Events:    int64(len(log.Entries)),
			Elapsed:   time.Since(simStart),
		})
		for hour := 0; hour < 24; hour++ {
			h := day*24 + hour
			for i := range cfg.Classes {
				cl := &cfg.Classes[i]
				log.NodeHours[cl.Name] += float64(cl.Count)
				r := rates[i]
				sdcRate, dueRate := r.sdcDry, r.dueDry
				if rainy {
					sdcRate, dueRate = r.sdcWet, r.dueWet
				}
				emit(s.Poisson(sdcRate*float64(cl.Count)), cl, h, EventSDC, rainy)
				emit(s.Poisson(dueRate*float64(cl.Count)), cl, h, EventDUE, rainy)
			}
		}
	}
	reg := telemetry.Default
	reg.Counter("fleet.log_entries").Add(int64(len(log.Entries)))
	reg.Counter("fleet.rainy_days").Add(int64(log.RainyDays))
	reg.Counter("fleet.days_simulated").Add(int64(cfg.Days))
	total := 0.0
	for _, h := range log.NodeHours {
		total += h
	}
	reg.Gauge("fleet.node_hours").Add(total)
	return log, nil
}

// ClassReport is the recovered reliability of one node class.
type ClassReport struct {
	Class     string
	NodeHours float64
	SDC       int64
	DUE       int64
	// MeasuredSDCFIT and MeasuredDUEFIT are per-node rates recovered from
	// the log.
	MeasuredSDCFIT units.FIT
	MeasuredDUEFIT units.FIT
}

// Comparison is a pairwise rate test between classes.
type Comparison struct {
	ClassA, ClassB string
	Total          stats.RateComparison
}

// Report is the full field-data analysis.
type Report struct {
	PerClass    []ClassReport
	Comparisons []Comparison
	// RainEffect compares fleet-wide total rates on rainy vs dry hours.
	RainEffect stats.RateComparison
	// RainExposureHours and DryExposureHours are fleet-wide node-hours.
	RainExposureHours float64
	DryExposureHours  float64
}

// Analyze recovers per-class FIT rates from the log, tests each pair of
// classes for different failure rates, and tests the rain effect.
func Analyze(log *Log) (*Report, error) {
	if log == nil || len(log.NodeHours) == 0 {
		return nil, errors.New("fleet: empty log")
	}
	telemetry.Count("fleet.entries_analyzed", int64(len(log.Entries)))
	counts := map[string]*ClassReport{}
	names := make([]string, 0, len(log.NodeHours))
	for name, hours := range log.NodeHours {
		counts[name] = &ClassReport{Class: name, NodeHours: hours}
		names = append(names, name)
	}
	sort.Strings(names)
	var rainEvents, dryEvents int64
	totalNodeHours := 0.0
	for _, hours := range log.NodeHours {
		totalNodeHours += hours
	}
	rainyFrac := 0.0
	if log.Days > 0 {
		rainyFrac = float64(log.RainyDays) / float64(log.Days)
	}
	for _, e := range log.Entries {
		cr, ok := counts[e.Class]
		if !ok {
			return nil, fmt.Errorf("fleet: log entry for unknown class %q", e.Class)
		}
		switch e.Type {
		case EventSDC:
			cr.SDC++
		case EventDUE:
			cr.DUE++
		default:
			return nil, fmt.Errorf("fleet: invalid event type %v", e.Type)
		}
		if e.Rainy {
			rainEvents++
		} else {
			dryEvents++
		}
	}
	rep := &Report{
		RainExposureHours: totalNodeHours * rainyFrac,
		DryExposureHours:  totalNodeHours * (1 - rainyFrac),
	}
	for _, name := range names {
		cr := counts[name]
		if cr.NodeHours > 0 {
			cr.MeasuredSDCFIT = units.FIT(float64(cr.SDC) / cr.NodeHours * 1e9)
			cr.MeasuredDUEFIT = units.FIT(float64(cr.DUE) / cr.NodeHours * 1e9)
		}
		rep.PerClass = append(rep.PerClass, *cr)
	}
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			a, b := counts[names[i]], counts[names[j]]
			rc, err := stats.CompareRates(a.SDC+a.DUE, a.NodeHours, b.SDC+b.DUE, b.NodeHours)
			if err != nil {
				return nil, err
			}
			rep.Comparisons = append(rep.Comparisons, Comparison{
				ClassA: names[i], ClassB: names[j], Total: rc,
			})
		}
	}
	if rep.DryExposureHours > 0 && rep.RainExposureHours > 0 {
		rc, err := stats.CompareRates(dryEvents, rep.DryExposureHours,
			rainEvents, rep.RainExposureHours)
		if err != nil {
			return nil, err
		}
		rep.RainEffect = rc
	}
	return rep, nil
}
