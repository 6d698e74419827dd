package core

import (
	"context"
	"math"
	"testing"

	"neutronsim/internal/device"
	"neutronsim/internal/fit"
)

func quickAssess(t *testing.T, d *device.Device, seed uint64) *Assessment {
	t.Helper()
	a, err := AssessContext(context.Background(), d, []string{"MxM"}, QuickBudget(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAssessValidation(t *testing.T) {
	if _, err := AssessContext(context.Background(), nil, nil, Budget{}, 1); err == nil {
		t.Error("nil device accepted")
	}
	d := device.K20()
	if _, err := AssessContext(context.Background(), d, []string{}, Budget{}, 1); err == nil {
		t.Error("empty workload list accepted")
	}
	if _, err := AssessContext(context.Background(), d, []string{"nope"}, QuickBudget(), 1); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := AssessContext(context.Background(), d, nil, Budget{Boost: 1e9}, 1); err == nil {
		t.Error("overflowing boost accepted")
	}
}

func TestAssessDefaultsWorkloadsFromKind(t *testing.T) {
	a, err := AssessContext(context.Background(), device.APU(APUConfigDefault()), nil, QuickBudget(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Workloads) != 3 { // SC, CED, BFS
		t.Errorf("APU workloads = %v", a.Workloads)
	}
}

// APUConfigDefault keeps the test readable.
func APUConfigDefault() device.APUConfig { return device.APUCPUGPU }

func TestAssessmentStatistics(t *testing.T) {
	a := quickAssess(t, device.K20(), 3)
	if a.FastAvg.SDC == 0 || a.ThermalAvg.SDC == 0 {
		t.Fatalf("campaigns too small: fast SDC %d thermal SDC %d", a.FastAvg.SDC, a.ThermalAvg.SDC)
	}
	if a.Sigmas.Validate() != nil {
		t.Error("invalid sigmas")
	}
	// Boost-corrected sigmas must be far below the boosted raw rates.
	if a.Sigmas.SDCFast <= 0 {
		t.Error("zero corrected SDC sigma")
	}
}

func TestBoostCorrection(t *testing.T) {
	// Different boosts should yield compatible corrected cross sections.
	a1, err := AssessContext(context.Background(), device.K20(), []string{"MxM"}, Budget{FastSeconds: 600, ThermalSeconds: 3600, Boost: 30}, 5)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := AssessContext(context.Background(), device.K20(), []string{"MxM"}, Budget{FastSeconds: 600, ThermalSeconds: 3600, Boost: 90}, 6)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(a1.Sigmas.SDCFast) / float64(a2.Sigmas.SDCFast)
	if ratio < 0.6 || ratio > 1.7 {
		t.Errorf("boost-corrected sigmas disagree: ratio %v", ratio)
	}
}

func TestK20RatioNearPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	a, err := AssessContext(context.Background(), device.K20(), []string{"MxM"},
		Budget{FastSeconds: 1200, ThermalSeconds: 7200, Boost: 100}, 7)
	if err != nil {
		t.Fatal(err)
	}
	sdc, _, _ := a.SDCRatio()
	if sdc < 1 || sdc > 4.5 {
		t.Errorf("K20 SDC ratio = %v, paper: ~2", sdc)
	}
	due, _, _ := a.DUERatio()
	if due < 1.2 || due > 7 {
		t.Errorf("K20 DUE ratio = %v, paper: ~3", due)
	}
}

func TestFITReport(t *testing.T) {
	a := quickAssess(t, device.K20(), 8)
	rep, err := a.FIT(fit.DataCenter(fit.NYC()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total() <= 0 {
		t.Error("zero total FIT")
	}
	if s := rep.SDC.ThermalShare(); s <= 0 || s >= 1 {
		t.Errorf("SDC thermal share = %v", s)
	}
	// Altitude raises every rate.
	lv, err := a.FIT(fit.DataCenter(fit.Leadville()))
	if err != nil {
		t.Fatal(err)
	}
	if lv.Total() <= rep.Total() {
		t.Error("Leadville FIT should exceed NYC FIT")
	}
	if lv.SDC.ThermalShare() <= rep.SDC.ThermalShare() {
		t.Error("Leadville thermal share should exceed NYC's")
	}
}

func TestRatioTableSorted(t *testing.T) {
	a1 := quickAssess(t, device.K20(), 9)
	a2 := quickAssess(t, device.XeonPhi(), 10)
	rows := RatioTable([]*Assessment{a1, a2})
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].SDCRatio < rows[1].SDCRatio {
		t.Error("table not sorted descending")
	}
	// Xeon Phi must rank least thermally sensitive.
	if rows[0].Device != "XeonPhi" {
		t.Errorf("top row = %s, want XeonPhi", rows[0].Device)
	}
}

func TestShareTable(t *testing.T) {
	a := quickAssess(t, device.K20(), 11)
	envs := []fit.Environment{
		fit.DataCenter(fit.NYC()),
		fit.DataCenter(fit.Leadville()),
	}
	rows, err := ShareTable([]*Assessment{a}, envs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.SDCThermalShare < 0 || r.SDCThermalShare > 1 {
			t.Errorf("share out of range: %+v", r)
		}
		if r.TotalFIT <= 0 {
			t.Errorf("no FIT: %+v", r)
		}
	}
	if rows[1].SDCThermalShare <= rows[0].SDCThermalShare {
		t.Error("Leadville share should exceed NYC share")
	}
}

func TestAssessDeterministic(t *testing.T) {
	a1 := quickAssess(t, device.TitanX(), 12)
	a2 := quickAssess(t, device.TitanX(), 12)
	if a1.FastAvg.SDC != a2.FastAvg.SDC || a1.ThermalAvg.DUE != a2.ThermalAvg.DUE {
		t.Error("assessment not reproducible")
	}
	if math.Abs(float64(a1.Sigmas.SDCFast)-float64(a2.Sigmas.SDCFast)) > 0 {
		t.Error("sigmas not reproducible")
	}
}

func TestBudgetDefaults(t *testing.T) {
	b := Budget{}.withDefaults()
	if b.FastSeconds != 7200 || b.ThermalSeconds != 144000 || b.Boost != 1 {
		t.Errorf("defaults: %+v", b)
	}
}
