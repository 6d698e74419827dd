package surrogate

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"neutronsim/internal/telemetry"
)

// ModelVersion tags the fitted-model JSON layout and leads the content
// hash, so a layout change can never collide with an old model.
const ModelVersion = "surrogate/v1"

// MaxDegree is the highest polynomial total degree Verify accepts (Train
// fits a lower one). It bounds the multiplications Predict spends per
// term, so a model that loads answers in the O(µs) serving budget.
const MaxDegree = 8

// Hull is the axis-aligned bounding box of the training features — the
// region where the certified error bound was actually measured. The
// bounds are inclusive: a query exactly on a face is inside.
type Hull struct {
	Min []float64 `json:"min"`
	Max []float64 `json:"max"`
}

// Contains reports whether f lies inside the hull. Non-finite features
// (NaN, ±Inf), and vectors whose length disagrees with the hull, are
// outside by definition — the caller's fallback to exact MC handles
// them without any special casing.
func (h Hull) Contains(f []float64) bool {
	if len(f) != len(h.Min) || len(h.Min) != len(h.Max) {
		return false
	}
	for i, v := range f {
		// A NaN fails both comparisons' negations, so spell the check
		// directly: inside means min <= v <= max, which is false for NaN.
		if !(v >= h.Min[i] && v <= h.Max[i]) {
			return false
		}
	}
	return true
}

// Model is a fitted polynomial ridge regression predicting
// log10(σ_upset/cm²) from a FeatureVector. It is immutable after
// training; Hash is the content address under which neutrond reports it.
type Model struct {
	Version  string `json:"version"`
	Quantity string `json:"quantity"` // what Predict returns

	// Fit family and hyperparameters.
	FeatureNames []string  `json:"feature_names"`
	Degree       int       `json:"degree"`
	Lambda       float64   `json:"lambda"`
	Mean         []float64 `json:"mean"`  // per-feature standardization shift
	Scale        []float64 `json:"scale"` // per-feature standardization scale (0 = constant in training)
	Terms        [][]int   `json:"terms"` // monomial exponents over standardized features
	Coef         []float64 `json:"coef"`  // one coefficient per term

	// Trained domain.
	Hull                 Hull     `json:"hull"`
	SpectrumFingerprints []string `json:"spectrum_fingerprints"`

	// Training provenance and certification.
	TrainingFingerprint string  `json:"training_fingerprint"`
	CalSamples          int     `json:"cal_samples"`
	Seed                uint64  `json:"seed"`
	TrainRows           int     `json:"train_rows"`
	HeldOutRows         int     `json:"held_out_rows"`
	DroppedRows         int     `json:"dropped_rows"`
	HeldOutMaxRelErr    float64 `json:"held_out_max_rel_err"`
	HeldOutMeanRelErr   float64 `json:"held_out_mean_rel_err"`
	// CertifiedRelErr is the serving guarantee: 1.5 × the max
	// held-out relative error (floored). Queries whose tolerance is
	// below it are never answered approximately.
	CertifiedRelErr float64 `json:"certified_rel_err"`

	// Hash is the SHA-256 content address over everything above.
	Hash string `json:"hash"`
}

// contentHash computes the model's content address: SHA-256 over the
// version tag and the canonical JSON of every field except Hash itself.
// Struct-order JSON marshaling makes it deterministic, exactly like the
// result cache's request hashing.
func (m *Model) contentHash() string {
	c := *m
	c.Hash = ""
	data, err := json.Marshal(&c)
	if err != nil {
		// A trained model is plain finite data and always marshals.
		panic(fmt.Sprintf("surrogate: marshal model for hashing: %v", err))
	}
	h := sha256.New()
	h.Write([]byte(ModelVersion + "\x00"))
	h.Write(data)
	return hex.EncodeToString(h.Sum(nil))
}

// seal stamps the content hash. Train calls it once; a sealed model is
// treated as immutable.
func (m *Model) seal() { m.Hash = m.contentHash() }

// Verify checks structural consistency, that the polynomial stays within
// MaxDegree, and that the stored hash matches the content — the guard
// Load applies before a model may serve. The hash is a checksum, not a
// signature: anyone can re-seal an edited model, so every bound Predict
// relies on is checked here.
func (m *Model) Verify() error {
	switch {
	case m.Version != ModelVersion:
		return fmt.Errorf("surrogate: model version %q, want %q", m.Version, ModelVersion)
	case len(m.FeatureNames) != NumFeatures,
		len(m.Mean) != len(m.FeatureNames),
		len(m.Scale) != len(m.FeatureNames),
		len(m.Hull.Min) != len(m.FeatureNames),
		len(m.Hull.Max) != len(m.FeatureNames):
		return fmt.Errorf("surrogate: inconsistent feature dimensions")
	case len(m.Coef) != len(m.Terms), len(m.Terms) == 0:
		return fmt.Errorf("surrogate: %d coefficients for %d terms", len(m.Coef), len(m.Terms))
	case !(m.CertifiedRelErr > 0) || math.IsInf(m.CertifiedRelErr, 0):
		return fmt.Errorf("surrogate: certified error bound %v must be a positive finite number", m.CertifiedRelErr)
	case m.Degree > MaxDegree:
		return fmt.Errorf("surrogate: degree %d above the ceiling %d", m.Degree, MaxDegree)
	}
	for _, t := range m.Terms {
		if len(t) != len(m.FeatureNames) {
			return fmt.Errorf("surrogate: term arity %d, want %d", len(t), len(m.FeatureNames))
		}
		sum := 0
		for _, e := range t {
			if e < 0 || e > m.Degree {
				return fmt.Errorf("surrogate: term exponent %d outside [0, degree %d]", e, m.Degree)
			}
			sum += e
		}
		if sum > m.Degree {
			return fmt.Errorf("surrogate: term of total degree %d above the model degree %d", sum, m.Degree)
		}
	}
	for i := range m.Hull.Min {
		if !(m.Hull.Min[i] <= m.Hull.Max[i]) {
			return fmt.Errorf("surrogate: hull dimension %d inverted or non-finite", i)
		}
	}
	if got := m.contentHash(); got != m.Hash {
		return fmt.Errorf("surrogate: content hash mismatch: stored %.12s…, computed %.12s…", m.Hash, got)
	}
	return nil
}

// SpectrumTrained reports whether the model was fitted on data from the
// spectrum with the given content fingerprint.
func (m *Model) SpectrumTrained(fingerprint string) bool {
	for _, fp := range m.SpectrumFingerprints {
		if fp == fingerprint {
			return true
		}
	}
	return false
}

// Predict evaluates the fitted polynomial at the feature vector and
// returns log10(σ/cm²). It allocates nothing and runs in a few hundred
// nanoseconds — the O(µs) serving budget. Callers must gate on
// Hull.Contains first; outside the hull the polynomial extrapolates
// with no error guarantee.
func (m *Model) Predict(f []float64) float64 {
	var z [NumFeatures]float64
	n := len(m.Mean)
	for i := 0; i < n && i < len(f) && i < len(z); i++ {
		if m.Scale[i] > 0 {
			z[i] = (f[i] - m.Mean[i]) / m.Scale[i]
		}
	}
	y := 0.0
	for t, term := range m.Terms {
		v := m.Coef[t]
		for i, e := range term {
			for k := 0; k < e; k++ {
				v *= z[i]
			}
		}
		y += v
	}
	return y
}

// PredictSigma returns the cross-section estimate in cm².
func (m *Model) PredictSigma(f []float64) float64 {
	return math.Pow(10, m.Predict(f))
}

// Confidence is the serving confidence derived from the certified
// bound: 1 - CertifiedRelErr, floored at zero.
func (m *Model) Confidence() float64 {
	if c := 1 - m.CertifiedRelErr; c > 0 {
		return c
	}
	return 0
}

// Encode renders the model as indented JSON with a trailing newline.
func (m *Model) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("surrogate: marshal model: %w", err)
	}
	return append(data, '\n'), nil
}

// Save writes the model atomically to path.
func (m *Model) Save(path string) error {
	data, err := m.Encode()
	if err != nil {
		return err
	}
	return telemetry.WriteFileAtomic(path, data, 0o644)
}

// Load reads a model written by Save and verifies its content hash; a
// corrupted or hand-edited model never serves.
func Load(path string) (*Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("surrogate: read model: %w", err)
	}
	var m Model
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("surrogate: decode model %s: %w", path, err)
	}
	if err := m.Verify(); err != nil {
		return nil, fmt.Errorf("%w (model %s)", err, path)
	}
	return &m, nil
}
