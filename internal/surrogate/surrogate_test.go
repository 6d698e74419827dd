package surrogate

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"neutronsim/internal/plan"
	"neutronsim/internal/rng"
	"neutronsim/internal/spectrum"
)

// testGrid is small enough to evaluate in well under a second but wide
// enough on both axes for a nontrivial fit.
func testGrid() GridConfig {
	return GridConfig{
		BoronMin: 1e12, BoronMax: 1e15, BoronSteps: 6,
		QcritMin: 1, QcritMax: 8, QcritSteps: 5,
		Samples: 8000,
		Seed:    7,
	}
}

var (
	modelOnce sync.Once
	modelVal  *Model
	modelData *Dataset
	modelErr  error
)

// trainedModel trains one shared model for the whole test package.
func trainedModel(t testing.TB) (*Model, *Dataset) {
	t.Helper()
	modelOnce.Do(func() {
		modelData, modelErr = EvaluateGrid(testGrid())
		if modelErr != nil {
			return
		}
		modelVal, modelErr = Train(modelData, TrainConfig{})
	})
	if modelErr != nil {
		t.Fatalf("trainedModel: %v", modelErr)
	}
	return modelVal, modelData
}

func TestTrainDeterministicHash(t *testing.T) {
	m1, ds := trainedModel(t)
	m2, err := Train(ds, TrainConfig{})
	if err != nil {
		t.Fatalf("retrain: %v", err)
	}
	if m1.Hash == "" || len(m1.Hash) != 64 {
		t.Fatalf("model hash %q is not a sha256 hex digest", m1.Hash)
	}
	if m1.Hash != m2.Hash {
		t.Fatalf("retraining on the same dataset changed the hash: %s vs %s", m1.Hash, m2.Hash)
	}
	// A different grid must produce a different content address.
	g := testGrid()
	g.Samples = 4000
	ds2, err := EvaluateGrid(g)
	if err != nil {
		t.Fatalf("EvaluateGrid: %v", err)
	}
	m3, err := Train(ds2, TrainConfig{})
	if err != nil {
		t.Fatalf("train on variant grid: %v", err)
	}
	if m3.Hash == m1.Hash {
		t.Fatal("models trained on different grids share a content hash")
	}
	if m3.TrainingFingerprint == m1.TrainingFingerprint {
		t.Fatal("different grids share a training fingerprint")
	}
}

func TestTrainCertification(t *testing.T) {
	m, _ := trainedModel(t)
	if err := m.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if m.HeldOutRows < 2 || m.TrainRows < 8 {
		t.Fatalf("split too small: %d train / %d held", m.TrainRows, m.HeldOutRows)
	}
	if m.DroppedRows != 0 {
		t.Fatalf("clean grid dropped %d rows", m.DroppedRows)
	}
	if m.CertifiedRelErr < m.HeldOutMaxRelErr {
		t.Fatalf("certified bound %v below held-out max %v", m.CertifiedRelErr, m.HeldOutMaxRelErr)
	}
	if m.CertifiedRelErr < minCertifiedRelErr {
		t.Fatalf("certified bound %v below floor %v", m.CertifiedRelErr, minCertifiedRelErr)
	}
	// The fit should actually be good on this smooth response surface.
	if m.HeldOutMaxRelErr > 0.25 {
		t.Fatalf("held-out max relative error %v is implausibly large", m.HeldOutMaxRelErr)
	}
	if c := m.Confidence(); c <= 0 || c >= 1 {
		t.Fatalf("confidence %v outside (0,1)", c)
	}
}

// TestModelAccuracyVsFreshExact compares the surrogate against exact MC
// evaluations at interior points the training grid never visited, with
// fresh RNG streams. Allows 2× the certified bound so independent Monte
// Carlo noise on the reference cannot flake the test.
func TestModelAccuracyVsFreshExact(t *testing.T) {
	m, _ := trainedModel(t)
	rotax := spectrum.ROTAX()
	chip := spectrum.ChipIR()
	root := rng.New(12345)
	points := []struct {
		boron, qcrit float64
	}{
		{3.3e13, 2.7},
		{8.9e13, 5.1},
		{4.2e14, 1.6},
	}
	for _, p := range points {
		d := DesignDevice(p.boron, p.qcrit)
		s := root.Split()
		for _, sp := range []spectrum.Spectrum{rotax, chip} {
			sigma, err := d.UpsetCrossSection(context.Background(), sp.Sample, 20000, s)
			if err != nil {
				t.Fatalf("exact eval: %v", err)
			}
			f := FeatureVector(p.boron, p.qcrit, sp, plan.Bias{})
			if !m.Hull.Contains(f) {
				t.Fatalf("interior point (%g, %g, %s) outside hull", p.boron, p.qcrit, sp.Name())
			}
			pred := m.PredictSigma(f)
			rel := math.Abs(pred/float64(sigma) - 1)
			if rel > 2*m.CertifiedRelErr {
				t.Errorf("point (%g fC, boron %g, %s): surrogate %.4g vs exact %.4g, rel err %.4f > 2x certified %.4f",
					p.qcrit, p.boron, sp.Name(), pred, float64(sigma), rel, 2*m.CertifiedRelErr)
			}
		}
	}
}

func TestHullBoundaryInclusive(t *testing.T) {
	m, _ := trainedModel(t)
	onMin := append([]float64(nil), m.Hull.Min...)
	onMax := append([]float64(nil), m.Hull.Max...)
	if !m.Hull.Contains(onMin) {
		t.Error("query exactly on the hull min face rejected; bounds must be inclusive")
	}
	if !m.Hull.Contains(onMax) {
		t.Error("query exactly on the hull max face rejected; bounds must be inclusive")
	}
	// One ulp-scale nudge past a face is outside.
	past := append([]float64(nil), m.Hull.Max...)
	past[FeatLogBoron] = math.Nextafter(past[FeatLogBoron], math.Inf(1))
	if m.Hull.Contains(past) {
		t.Error("query past the hull max face accepted")
	}
	below := append([]float64(nil), m.Hull.Min...)
	below[FeatLogQcrit] = math.Nextafter(below[FeatLogQcrit], math.Inf(-1))
	if m.Hull.Contains(below) {
		t.Error("query below the hull min face accepted")
	}
}

func TestHullRejectsNonFinite(t *testing.T) {
	m, _ := trainedModel(t)
	mid := make([]float64, NumFeatures)
	for i := range mid {
		mid[i] = (m.Hull.Min[i] + m.Hull.Max[i]) / 2
	}
	if !m.Hull.Contains(mid) {
		t.Fatal("hull midpoint rejected")
	}
	for i := 0; i < NumFeatures; i++ {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			f := append([]float64(nil), mid...)
			f[i] = bad
			if m.Hull.Contains(f) {
				t.Errorf("hull accepted %v in feature %s", bad, FeatureNames[i])
			}
		}
	}
	if m.Hull.Contains(nil) {
		t.Error("hull accepted a nil vector")
	}
	if m.Hull.Contains(mid[:NumFeatures-1]) {
		t.Error("hull accepted a short vector")
	}
}

// TestFeatureVectorDegradesOutOfDomain checks that invalid design
// inputs become non-finite features the hull rejects, rather than
// errors or silently-servable vectors.
func TestFeatureVectorDegradesOutOfDomain(t *testing.T) {
	m, _ := trainedModel(t)
	sp := spectrum.ROTAX()
	for _, tc := range []struct {
		name         string
		boron, qcrit float64
	}{
		{"zero boron", 0, 3},
		{"negative boron", -1e13, 3},
		{"zero qcrit", 1e13, 0},
		{"nan qcrit", 1e13, math.NaN()},
	} {
		f := FeatureVector(tc.boron, tc.qcrit, sp, plan.Bias{})
		if m.Hull.Contains(f) {
			t.Errorf("%s: hull accepted out-of-domain query", tc.name)
		}
	}
	// A biased query differs from the (all-ones) training bias features
	// and must fall outside the hull.
	f := FeatureVector(1e14, 3, sp, plan.Bias{Thermal: 4})
	if m.Hull.Contains(f) {
		t.Error("importance-sampled query accepted by a model trained on the exact estimator")
	}
}

func TestSpectrumFingerprintAndTraining(t *testing.T) {
	m, _ := trainedModel(t)
	for _, sp := range []spectrum.Spectrum{spectrum.ROTAX(), spectrum.ChipIR()} {
		fp := sp.Fingerprint()
		if fp == "" {
			t.Fatalf("%s publishes an empty fingerprint", sp.Name())
		}
		if !m.SpectrumTrained(fp) {
			t.Errorf("model not marked trained on %s", sp.Name())
		}
	}
	if m.SpectrumTrained("no-such-fingerprint") {
		t.Error("model claims training on an unknown spectrum")
	}
}

func TestModelSaveLoadRoundTrip(t *testing.T) {
	m, _ := trainedModel(t)
	path := filepath.Join(t.TempDir(), "model.json")
	if err := m.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Hash != m.Hash {
		t.Fatalf("round trip changed hash: %s vs %s", got.Hash, m.Hash)
	}
	f := FeatureVector(1e14, 3, spectrum.ROTAX(), plan.Bias{})
	if a, b := m.Predict(f), got.Predict(f); a != b {
		t.Fatalf("round trip changed prediction: %v vs %v", a, b)
	}
	// Tampering with a saved model must be detected.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	tampered := filepath.Join(t.TempDir(), "tampered.json")
	if err := os.WriteFile(tampered, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(tampered); err == nil {
		t.Fatal("Load accepted a tampered model")
	}
}

func TestDatasetSaveLoadRoundTrip(t *testing.T) {
	_, ds := trainedModel(t)
	path := filepath.Join(t.TempDir(), "train.json")
	if err := ds.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := LoadDataset(path)
	if err != nil {
		t.Fatalf("LoadDataset: %v", err)
	}
	if got.Fingerprint() != ds.Fingerprint() {
		t.Fatal("dataset round trip changed the training fingerprint")
	}
	m, err := Train(got, TrainConfig{})
	if err != nil {
		t.Fatalf("train from loaded dataset: %v", err)
	}
	if m.Hash != modelVal.Hash {
		t.Fatal("model trained from a round-tripped dataset has a different hash")
	}
}

func TestTrainDropsBadRows(t *testing.T) {
	_, ds := trainedModel(t)
	bad := &Dataset{
		Version:      DataVersion,
		FeatureNames: ds.FeatureNames,
		CalSamples:   ds.CalSamples,
		Seed:         ds.Seed,
		Rows:         append([]Row(nil), ds.Rows...),
	}
	nan := append([]float64(nil), ds.Rows[0].Features...)
	nan[FeatLogBoron] = math.NaN()
	bad.Rows = append(bad.Rows,
		Row{Features: nan, SigmaCm2: 1e-14, SpectrumFingerprint: ds.Rows[0].SpectrumFingerprint},
		Row{Features: ds.Rows[1].Features, SigmaCm2: 0, SpectrumFingerprint: ds.Rows[1].SpectrumFingerprint},
		Row{Features: ds.Rows[2].Features[:3], SigmaCm2: 1e-14, SpectrumFingerprint: ds.Rows[2].SpectrumFingerprint},
	)
	m, err := Train(bad, TrainConfig{})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if m.DroppedRows != 3 {
		t.Fatalf("dropped %d rows, want 3", m.DroppedRows)
	}
}

func TestTrainRejectsTinyDataset(t *testing.T) {
	_, ds := trainedModel(t)
	tiny := &Dataset{
		Version:      DataVersion,
		FeatureNames: ds.FeatureNames,
		Rows:         ds.Rows[:4],
	}
	if _, err := Train(tiny, TrainConfig{}); err == nil {
		t.Fatal("Train accepted a 4-row dataset")
	}
	if _, err := Train(&Dataset{Version: DataVersion, FeatureNames: ds.FeatureNames}, TrainConfig{}); err == nil {
		t.Fatal("Train accepted an empty dataset")
	}
}

// FuzzFeatureVector drives arbitrary design inputs and bias factors
// through the serving gate: building features never panics, non-finite
// features are never inside the hull, and anything the hull accepts
// yields a finite positive cross-section prediction.
func FuzzFeatureVector(f *testing.F) {
	g := testGrid()
	g.Samples = 4000
	ds, err := EvaluateGrid(g)
	if err != nil {
		f.Fatalf("EvaluateGrid: %v", err)
	}
	m, err := Train(ds, TrainConfig{})
	if err != nil {
		f.Fatalf("Train: %v", err)
	}
	f.Add(1e14, 3.0, 1.0, 1.0, 1.0, true)
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, false)
	f.Add(math.Inf(1), math.NaN(), -1.0, 2.0, 1e300, true)
	f.Add(m.Hull.Min[FeatLogBoron], m.Hull.Min[FeatLogQcrit], 1.0, 1.0, 1.0, false)
	f.Fuzz(func(t *testing.T, boron, qcrit, bt, be, bf float64, thermal bool) {
		var sp spectrum.Spectrum
		if thermal {
			sp = spectrum.ROTAX()
		} else {
			sp = spectrum.ChipIR()
		}
		fv := FeatureVector(boron, qcrit, sp, plan.Bias{Thermal: bt, Epithermal: be, Fast: bf})
		if len(fv) != NumFeatures {
			t.Fatalf("feature vector length %d", len(fv))
		}
		if !allFinite(fv) && m.Hull.Contains(fv) {
			t.Fatalf("hull accepted non-finite features %v", fv)
		}
		if m.Hull.Contains(fv) {
			sigma := m.PredictSigma(fv)
			if !(sigma > 0) || math.IsInf(sigma, 0) || math.IsNaN(sigma) {
				t.Fatalf("in-hull prediction %v is not a finite positive cross section (features %v)", sigma, fv)
			}
		}
	})
}

// FuzzLoad feeds arbitrary model bytes to Load. Tampered, truncated or
// re-sealed models never panic, and a model Load accepts keeps its
// polynomial within its degree and MaxDegree, so an in-hull Predict
// stays in the serving budget.
func FuzzLoad(f *testing.F) {
	m, _ := trainedModel(f)
	good, err := json.Marshal(m)
	if err != nil {
		f.Fatal(err)
	}
	// The content hash is a checksum, not a signature: a model with one
	// term raised to the power 2^31 re-seals into a valid hash.
	var huge Model
	if err := json.Unmarshal(good, &huge); err != nil {
		f.Fatal(err)
	}
	huge.Terms[len(huge.Terms)-1][FeatLogQcrit] = 1 << 31
	huge.seal()
	resealed, err := json.Marshal(&huge)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(resealed)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "model.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := Load(path)
		if err != nil {
			return
		}
		if got.Degree > MaxDegree {
			t.Fatalf("accepted degree %d above MaxDegree", got.Degree)
		}
		for _, term := range got.Terms {
			sum := 0
			for _, e := range term {
				if e < 0 {
					t.Fatalf("accepted negative exponent in %v", term)
				}
				sum += e
			}
			if sum > got.Degree {
				t.Fatalf("accepted term %v above degree %d", term, got.Degree)
			}
		}
		center := make([]float64, len(got.Hull.Min))
		for i := range center {
			center[i] = got.Hull.Min[i]/2 + got.Hull.Max[i]/2
		}
		if got.Hull.Contains(center) {
			_ = got.Predict(center)
		}
	})
}
