package fleet

import (
	"context"
	"math"
	"testing"

	"neutronsim/internal/fit"
	"neutronsim/internal/units"
)

// testSigmas returns node-level cross sections (accelerator plus the
// unprotected memory fleet) — two orders above a bare device, which is
// what makes field studies statistically feasible at all.
func testSigmas() fit.Sigmas {
	return fit.Sigmas{
		SDCFast:    8e-7,
		SDCThermal: 8e-7, // DRAM-heavy nodes are as thermally sensitive as fast
		DUEFast:    3e-7,
		DUEThermal: 3e-7,
	}
}

func twoClassConfig(days, nodes int, rainProb float64, seed uint64) Config {
	site := fit.AtAltitude("Los Alamos", 2231)
	dry := fit.Environment{Location: site, ConcreteFloor: true}
	wet := fit.DataCenter(site)
	return Config{
		Classes: []NodeClass{
			{Name: "dry-aisle", Count: nodes, Env: dry, Sigmas: testSigmas()},
			{Name: "near-cooling", Count: nodes, Env: wet, Sigmas: testSigmas()},
		},
		Days:            days,
		RainProbability: rainProb,
		Seed:            seed,
	}
}

func TestConfigValidation(t *testing.T) {
	good := twoClassConfig(10, 500, 0, 1)
	mutations := []func(*Config){
		func(c *Config) { c.Classes = nil },
		func(c *Config) { c.Classes[0].Name = "" },
		func(c *Config) { c.Classes[0].Count = 0 },
		func(c *Config) { c.Classes[0].Sigmas = fit.Sigmas{} },
		func(c *Config) { c.Days = 0 },
		func(c *Config) { c.RainProbability = 2 },
	}
	for i, m := range mutations {
		cfg := twoClassConfig(10, 500, 0, 1)
		m(&cfg)
		if _, err := SimulateContext(context.Background(), cfg); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	if _, err := SimulateContext(context.Background(), good); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestSimulateBookkeeping(t *testing.T) {
	cfg := twoClassConfig(30, 500, 0.3, 2)
	log, err := SimulateContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantHours := float64(30 * 24 * 500)
	for _, cl := range cfg.Classes {
		if got := log.NodeHours[cl.Name]; math.Abs(got-wantHours) > 1e-9 {
			t.Errorf("%s node-hours = %v, want %v", cl.Name, got, wantHours)
		}
	}
	if log.RainyDays == 0 || log.RainyDays == 30 {
		t.Errorf("rainy days = %d with prob 0.3", log.RainyDays)
	}
	for _, e := range log.Entries {
		if e.Hour < 0 || e.Hour >= 30*24 {
			t.Fatalf("entry hour %d out of range", e.Hour)
		}
		if e.Node < 0 || e.Node >= 500 {
			t.Fatalf("entry node %d out of range", e.Node)
		}
		if e.Type != EventSDC && e.Type != EventDUE {
			t.Fatalf("bad event type %v", e.Type)
		}
	}
}

func TestAnalyzeRecoversFIT(t *testing.T) {
	cfg := twoClassConfig(180, 1000, 0, 3)
	log, err := SimulateContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(log)
	if err != nil {
		t.Fatal(err)
	}
	// Expected per-node FIT for the dry class.
	env := cfg.Classes[0].Env
	want, err := fit.Compute(testSigmas(), env)
	if err != nil {
		t.Fatal(err)
	}
	var dry ClassReport
	for _, cr := range rep.PerClass {
		if cr.Class == "dry-aisle" {
			dry = cr
		}
	}
	if dry.SDC == 0 || dry.DUE == 0 {
		t.Fatalf("no events recovered: %+v", dry)
	}
	relSDC := float64(dry.MeasuredSDCFIT)/float64(want.SDC.Total()) - 1
	if math.Abs(relSDC) > 0.12 {
		t.Errorf("recovered SDC FIT %v vs injected %v (rel %v)",
			dry.MeasuredSDCFIT, want.SDC.Total(), relSDC)
	}
}

func TestAnalyzeDetectsCoolingEffect(t *testing.T) {
	// The paper's machine-room claim: nodes near the water loops see a
	// higher thermal flux and fail more. The effect on the *total* rate
	// is only a few percent (fast neutrons dominate), so it takes a year
	// of a 4000-node class to resolve — exactly why such field studies
	// need production-scale data.
	log, err := SimulateContext(context.Background(), twoClassConfig(365, 8000, 0, 4))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(log)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Comparisons) != 1 {
		t.Fatalf("%d comparisons", len(rep.Comparisons))
	}
	c := rep.Comparisons[0]
	if !c.Total.Significant {
		t.Errorf("cooling effect not detected: %+v", c.Total)
	}
	if c.Total.Ratio <= 1 {
		t.Errorf("near-cooling class should have the higher rate: %v", c.Total.Ratio)
	}
}

func TestAnalyzeRainEffect(t *testing.T) {
	log, err := SimulateContext(context.Background(), twoClassConfig(365, 2000, 0.4, 5))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(log)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RainExposureHours == 0 || rep.DryExposureHours == 0 {
		t.Fatal("missing exposure split")
	}
	if rep.RainEffect.Ratio <= 1 {
		t.Errorf("rainy hours should have the higher rate: %v", rep.RainEffect.Ratio)
	}
	if !rep.RainEffect.Significant {
		t.Errorf("rain effect not significant over a year: p=%v", rep.RainEffect.PValue)
	}
}

func TestAnalyzeValidation(t *testing.T) {
	if _, err := Analyze(nil); err == nil {
		t.Error("nil log accepted")
	}
	if _, err := Analyze(&Log{}); err == nil {
		t.Error("empty log accepted")
	}
	bad := &Log{
		NodeHours: map[string]float64{"a": 10},
		Entries:   []Entry{{Class: "ghost", Type: EventSDC}},
	}
	if _, err := Analyze(bad); err == nil {
		t.Error("entry for unknown class accepted")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	l1, err := SimulateContext(context.Background(), twoClassConfig(10, 500, 0.5, 6))
	if err != nil {
		t.Fatal(err)
	}
	l2, err := SimulateContext(context.Background(), twoClassConfig(10, 500, 0.5, 6))
	if err != nil {
		t.Fatal(err)
	}
	if len(l1.Entries) != len(l2.Entries) || l1.RainyDays != l2.RainyDays {
		t.Error("fleet simulation not reproducible")
	}
}

func TestEventTypeString(t *testing.T) {
	if EventSDC.String() != "SDC" || EventDUE.String() != "DUE" || EventType(0).String() != "unknown" {
		t.Error("event names")
	}
}

func TestMeasuredFITUnits(t *testing.T) {
	// One event in 1e9 node-hours is 1 FIT by definition.
	log := &Log{
		NodeHours: map[string]float64{"x": 1e9},
		Entries:   []Entry{{Class: "x", Type: EventSDC}},
		Days:      1,
	}
	rep, err := Analyze(log)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PerClass[0].MeasuredSDCFIT != units.FIT(1) {
		t.Errorf("measured FIT = %v, want 1", rep.PerClass[0].MeasuredSDCFIT)
	}
}
