package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"neutronsim/internal/plan"
	"neutronsim/internal/surrogate"
)

func capture(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		done <- string(data)
	}()
	runErr := f()
	w.Close()
	os.Stdout = old
	return <-done, runErr
}

func TestGridValidation(t *testing.T) {
	if err := run([]string{"-boron-min", "0"}); err == nil {
		t.Error("zero boron accepted")
	}
	if err := run([]string{"-qcrit-min", "5", "-qcrit-max", "1"}); err == nil {
		t.Error("inverted qcrit range accepted")
	}
	if err := run([]string{"-samples", "0"}); err == nil {
		t.Error("zero samples accepted")
	}
}

// gridSigmas runs surrogate.EvaluateGrid, the evaluator sweep prints, and
// splits its rows into each point's boron, Qcrit and two cross sections.
func gridSigmas(t *testing.T, cfg surrogate.GridConfig) (boron, qcrit, thermal, fast []float64) {
	t.Helper()
	ds, err := surrogate.EvaluateGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(ds.Rows); i += 2 {
		boron = append(boron, ds.Rows[i].BoronPerCm2)
		qcrit = append(qcrit, ds.Rows[i].QcritFC)
		thermal = append(thermal, ds.Rows[i].SigmaCm2)
		fast = append(fast, ds.Rows[i+1].SigmaCm2)
	}
	return boron, qcrit, thermal, fast
}

func TestBuildGrid(t *testing.T) {
	boron, qcrit, _, _ := gridSigmas(t, surrogate.GridConfig{
		BoronMin: 1, BoronMax: 100, BoronSteps: 3,
		QcritMin: 2, QcritMax: 2, QcritSteps: 1,
		Samples: 1000, Seed: 1,
	})
	if len(boron) != 3 {
		t.Fatalf("%d points", len(boron))
	}
	for i, want := range []float64{1, 10, 100} {
		if got := boron[i]; got < want*0.999 || got > want*1.001 {
			t.Errorf("point %d boron = %v, want ~%v", i, got, want)
		}
	}
	for _, q := range qcrit {
		if q != 2 {
			t.Errorf("qcrit = %v", q)
		}
	}
}

func TestSweepOutput(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "grid.csv")
	out, err := capture(t, func() error {
		return run([]string{
			"-boron-steps", "3", "-qcrit-steps", "2",
			"-samples", "8000", "-shards", "2", "-seed", "5",
			"-csv", csvPath,
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "thermal:fast") {
		t.Errorf("missing header: %.200s", out)
	}
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 1+3*2 {
		t.Errorf("CSV rows = %d, want 7", len(lines))
	}
}

func TestSweepMonotoneInBoron(t *testing.T) {
	_, _, thermal, fast := gridSigmas(t, surrogate.GridConfig{
		BoronMin: 1e13, BoronMax: 1e15, BoronSteps: 3,
		QcritMin: 6, QcritMax: 6, QcritSteps: 1,
		Samples: 30000, Seed: 9, Workers: 2,
	})
	// Thermal sigma rises with boron; fast sigma stays flat.
	if !(thermal[0] < thermal[1] && thermal[1] < thermal[2]) {
		t.Errorf("thermal sigma not monotone: %v %v %v", thermal[0], thermal[1], thermal[2])
	}
	fastSpread := fast[2] / fast[0]
	if fastSpread < 0.5 || fastSpread > 2 {
		t.Errorf("fast sigma should not depend on boron: spread %v", fastSpread)
	}
}

// TestSweepBiasedAgreesWithExact pins the weighted estimator's contract:
// with thermal oversampling the design-point sigmas must agree with the
// analog estimator within Monte Carlo noise, on both beamlines.
func TestSweepBiasedAgreesWithExact(t *testing.T) {
	grid := surrogate.GridConfig{
		BoronMin: 1e14, BoronMax: 1e15, BoronSteps: 2,
		QcritMin: 6, QcritMax: 6, QcritSteps: 1,
		Samples: 30000, Seed: 9, Workers: 2,
	}
	_, _, exThermal, exFast := gridSigmas(t, grid)
	grid.Bias = &plan.Bias{Thermal: 10}
	_, _, biThermal, biFast := gridSigmas(t, grid)
	for i := range exThermal {
		for _, c := range []struct {
			name   string
			ex, bi float64
		}{
			{"thermal", exThermal[i], biThermal[i]},
			{"fast", exFast[i], biFast[i]},
		} {
			if c.ex <= 0 || c.bi <= 0 {
				t.Errorf("point %d %s: nonpositive sigma (exact %v, biased %v)", i, c.name, c.ex, c.bi)
				continue
			}
			if r := c.bi / c.ex; r < 0.7 || r > 1.4 {
				t.Errorf("point %d %s: biased sigma %v vs exact %v (ratio %v)", i, c.name, c.bi, c.ex, r)
			}
		}
	}
}

// TestSweepTrainExport covers -train-out and -surrogate-out: the
// exported dataset must be byte-equivalent (same training fingerprint)
// to surrogate.EvaluateGrid on the same grid — sweep and the training
// harness share device construction, traversal order and RNG
// discipline — and the fitted model must load back under its content
// hash.
func TestSweepTrainExport(t *testing.T) {
	dir := t.TempDir()
	dataPath := filepath.Join(dir, "train.json")
	modelPath := filepath.Join(dir, "model.json")
	out, err := capture(t, func() error {
		return run([]string{
			"-boron-min", "1e12", "-boron-max", "1e15", "-boron-steps", "8",
			"-qcrit-min", "1", "-qcrit-max", "8", "-qcrit-steps", "6",
			"-samples", "20000", "-seed", "7", "-shards", "4",
			"-train-out", dataPath, "-surrogate-out", modelPath,
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "certified rel err") {
		t.Errorf("missing surrogate summary in output: %.300s", out)
	}
	ds, err := surrogate.LoadDataset(dataPath)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := surrogate.EvaluateGrid(surrogate.GridConfig{
		BoronMin: 1e12, BoronMax: 1e15, BoronSteps: 8,
		QcritMin: 1, QcritMax: 8, QcritSteps: 6,
		Samples: 20000,
		Seed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Fingerprint() != ref.Fingerprint() {
		t.Error("sweep -train-out dataset differs from surrogate.EvaluateGrid on the same grid")
	}
	m, err := surrogate.Load(modelPath)
	if err != nil {
		t.Fatalf("Load model: %v", err)
	}
	if m.TrainingFingerprint != ds.Fingerprint() {
		t.Error("model training fingerprint does not match the exported dataset")
	}
}

// TestSweepCSVAtomic pins the temp+rename write: after a sweep the
// directory holds the CSV and no leftover temp files.
func TestSweepCSVAtomic(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "grid.csv")
	_, err := capture(t, func() error {
		return run([]string{
			"-boron-steps", "1", "-qcrit-steps", "1",
			"-samples", "2000", "-seed", "5", "-csv", csvPath,
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "grid.csv" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Errorf("directory after sweep = %v, want only grid.csv", names)
	}
}

// TestSweepBiasFlags covers the CLI wiring: a biased sweep produces the
// usual table and an invalid factor is rejected before any work runs.
func TestSweepBiasFlags(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{
			"-boron-steps", "1", "-qcrit-steps", "1",
			"-samples", "4000", "-seed", "5", "-bias-thermal", "12",
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "thermal:fast") {
		t.Errorf("missing header: %.200s", out)
	}
	if err := run([]string{"-bias-thermal", "-3"}); err == nil {
		t.Error("negative bias factor accepted")
	}
}
