package experiments

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"neutronsim/internal/beam"
)

func TestAllAblationsRegistered(t *testing.T) {
	as := AllAblations()
	if len(as) != 7 {
		t.Fatalf("%d ablations, want 7", len(as))
	}
	for _, a := range as {
		if a.Run == nil || !strings.HasPrefix(a.ID, "A") {
			t.Errorf("bad ablation %+v", a)
		}
	}
}

func TestA1AnisotropyReducesAlbedo(t *testing.T) {
	tbl, err := A1TransportAnisotropy(Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	// Within each moderator, albedo should fall as forward bias rises.
	parse := func(row []string) float64 {
		v, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatalf("parse %q: %v", row[2], err)
		}
		return v
	}
	waterIso, waterBiased := parse(tbl.Rows[0]), parse(tbl.Rows[2])
	if waterBiased >= waterIso {
		t.Errorf("forward bias should reduce water albedo: %v vs %v", waterBiased, waterIso)
	}
}

func TestA2TimingMatters(t *testing.T) {
	tbl, err := A2InjectionTiming(Quick, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 { // 3 benchmarks × 2 timings
		t.Fatalf("%d rows", len(tbl.Rows))
	}
}

func TestA3ECCResidual(t *testing.T) {
	tbl, err := A3ECCFIT(Quick, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		corrected, _ := strconv.Atoi(row[2])
		if corrected == 0 {
			t.Errorf("%s: ECC corrected nothing", row[0])
		}
	}
}

func TestA4DeratingConsistency(t *testing.T) {
	tbl, err := A4Derating(Quick, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	// Cross sections across deratings must agree within a factor ~2.
	var sigmas []float64
	for _, row := range tbl.Rows {
		v, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatalf("parse %q: %v", row[3], err)
		}
		if v <= 0 {
			t.Fatalf("zero sigma at derating %s", row[0])
		}
		sigmas = append(sigmas, v)
	}
	for _, v := range sigmas[1:] {
		if r := v / sigmas[0]; r < 0.5 || r > 2 {
			t.Errorf("derated cross section off by %vx", r)
		}
	}
}

func TestA5BoundaryImmaterial(t *testing.T) {
	tbl, err := A5ThermalBoundary(Quick, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		diff, err := strconv.ParseFloat(strings.TrimSuffix(row[3], "%"), 64)
		if err != nil {
			t.Fatalf("parse %q: %v", row[3], err)
		}
		if diff > 1.0 {
			t.Errorf("%s: boundary choice moved the thermal share by %v%%", row[0], diff)
		}
	}
}

func TestA6ProblemSize(t *testing.T) {
	tbl, err := A6ProblemSize(Quick, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
}

func TestA7SampleVariationNearTenPercent(t *testing.T) {
	tbl, err := A7SampleVariation(Quick, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("%d samples", len(tbl.Rows))
	}
	note := findNote(t, tbl, "relative spread")
	spread := noteFloat(t, note, "=")
	// Process sigma 0.10 plus Poisson noise: accept a broad band.
	if spread < 2 || spread > 30 {
		t.Errorf("sample spread = %v%%, want near 10%%", spread)
	}
}

// TestBoostedAblationsStayUnderAutoRunCap checks, from the campaigns'
// decompositions, that no auto-tuned campaign of A4 or A7 reaches
// beam.MaxAutoRuns at either scale: a capped campaign stretches its runs
// past λ ≈ 0.05, and a run with several faults counts as one event.
func TestBoostedAblationsStayUnderAutoRunCap(t *testing.T) {
	for _, scale := range []Scale{Quick, Full} {
		for id, cfgs := range map[string][]beam.Config{"A4": a4Configs(scale, 7), "A7": a7Configs(scale, 7)} {
			for i, cfg := range cfgs {
				info, err := beam.PlanInfo(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				// A capped campaign's run count may round one below the cap.
				if info.Runs >= beam.MaxAutoRuns-1 {
					t.Errorf("%s campaign %d at %s scale reaches the cap: %d runs of %.3g s", id, i, scale, info.Runs, info.RunSeconds)
				}
			}
		}
	}
}
