package surrogate

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"neutronsim/internal/engine"
	"neutronsim/internal/plan"
	"neutronsim/internal/rng"
	"neutronsim/internal/spectrum"
	"neutronsim/internal/telemetry"
)

// DataVersion tags the training-dataset JSON layout (the artifact
// cmd/sweep -train-out exports).
const DataVersion = "surrogate-data/v1"

// Row is one training observation: a feature vector and the Monte Carlo
// cross section measured at it. The provenance fields make exported
// datasets self-describing; only Features, SigmaCm2 and the spectrum
// fingerprint enter the training fingerprint.
type Row struct {
	Features            []float64 `json:"features"`
	SigmaCm2            float64   `json:"sigma_cm2"`
	Spectrum            string    `json:"spectrum"`
	SpectrumFingerprint string    `json:"spectrum_fingerprint"`
	BoronPerCm2         float64   `json:"boron_per_cm2"`
	QcritFC             float64   `json:"qcrit_fc"`
}

// Dataset is a training set of design-space evaluations.
type Dataset struct {
	Version      string   `json:"version"`
	FeatureNames []string `json:"feature_names"`
	// CalSamples and Seed record how the targets were measured; they are
	// part of the training fingerprint because they set the Monte Carlo
	// noise floor the certified bound absorbs.
	CalSamples int    `json:"cal_samples"`
	Seed       uint64 `json:"seed"`
	Rows       []Row  `json:"rows"`
}

// NewDataset starts an empty dataset with the standard feature layout.
func NewDataset(calSamples int, seed uint64) *Dataset {
	return &Dataset{
		Version:      DataVersion,
		FeatureNames: append([]string(nil), FeatureNames...),
		CalSamples:   calSamples,
		Seed:         seed,
	}
}

// Add appends one observation, building its feature vector from the
// design point, the spectrum, and the estimator's bias factors.
func (ds *Dataset) Add(boronPerCm2, qcritFC float64, sp spectrum.Spectrum, bias plan.Bias, sigmaCm2 float64) {
	ds.Rows = append(ds.Rows, Row{
		Features:            FeatureVector(boronPerCm2, qcritFC, sp, bias),
		SigmaCm2:            sigmaCm2,
		Spectrum:            sp.Name(),
		SpectrumFingerprint: sp.Fingerprint(),
		BoronPerCm2:         boronPerCm2,
		QcritFC:             qcritFC,
	})
}

// Fingerprint is the content hash of the training data: the dataset
// tag, the measurement budget, and every row's features, target and
// spectrum identity. It seeds the model's content hash, so retraining
// on any changed grid yields a different model address.
func (ds *Dataset) Fingerprint() string {
	h := sha256.New()
	h.Write([]byte(DataVersion + "\x00"))
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(ds.CalSamples))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], ds.Seed)
	h.Write(buf[:])
	for _, r := range ds.Rows {
		for _, f := range r.Features {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
			h.Write(buf[:])
		}
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(r.SigmaCm2))
		h.Write(buf[:])
		h.Write([]byte(r.SpectrumFingerprint))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Save writes the dataset atomically to path.
func (ds *Dataset) Save(path string) error {
	data, err := json.MarshalIndent(ds, "", "  ")
	if err != nil {
		return fmt.Errorf("surrogate: marshal dataset: %w", err)
	}
	return telemetry.WriteFileAtomic(path, append(data, '\n'), 0o644)
}

// LoadDataset reads a dataset written by Save.
func LoadDataset(path string) (*Dataset, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("surrogate: read dataset: %w", err)
	}
	var ds Dataset
	if err := json.Unmarshal(data, &ds); err != nil {
		return nil, fmt.Errorf("surrogate: decode dataset %s: %w", path, err)
	}
	if ds.Version != DataVersion {
		return nil, fmt.Errorf("surrogate: dataset version %q, want %q", ds.Version, DataVersion)
	}
	return &ds, nil
}

// TrainConfig has no fields: the fit's settings are the constants below.
// Train copies trainDegree and trainLambda onto the Model, so they are
// part of its content hash.
type TrainConfig struct{}

const (
	// trainDegree is the polynomial total degree, below MaxDegree: enough
	// for the spectrum-switch × log-Qcrit-curvature interactions the
	// physics has; on the default grid it halves the held-out error of a
	// cubic while keeping fewer terms than training rows.
	trainDegree = 4
	// trainLambda is the ridge strength relative to the training row
	// count.
	trainLambda = 1e-6
	// holdEvery holds out every holdEvery-th usable row for
	// certification. The held-out rows never influence the coefficients,
	// so the measured error honestly describes the served model.
	holdEvery = 4
	// safetyFactor inflates the max held-out relative error into the
	// certified serving bound (floored at minCertifiedRelErr).
	safetyFactor = 1.5
)

// minCertifiedRelErr floors the certified bound: even a fit that nails
// every held-out point cannot promise better than 1% — the targets
// themselves carry Monte Carlo noise.
const minCertifiedRelErr = 0.01

// Train fits a polynomial ridge model on the dataset and certifies it
// on a deterministic held-out split. Rows with non-finite features or a
// non-positive measured cross section are dropped (and counted): the
// target is log σ, and a zero estimate means the grid point starved —
// nothing a smooth fit should learn from. Training is fully
// deterministic, so identical datasets produce byte-identical models
// with identical content hashes.
func Train(ds *Dataset, _ TrainConfig) (*Model, error) {
	if ds == nil || len(ds.Rows) == 0 {
		return nil, fmt.Errorf("surrogate: empty dataset")
	}
	if len(ds.FeatureNames) == 0 {
		return nil, fmt.Errorf("surrogate: dataset has no feature names")
	}
	dim := len(ds.FeatureNames)

	var kept []Row
	dropped := 0
	for _, r := range ds.Rows {
		if len(r.Features) != dim || !allFinite(r.Features) || !(r.SigmaCm2 > 0) || math.IsInf(r.SigmaCm2, 0) {
			dropped++
			continue
		}
		kept = append(kept, r)
	}
	var train, held []Row
	for i, r := range kept {
		if i%holdEvery == holdEvery-1 {
			held = append(held, r)
		} else {
			train = append(train, r)
		}
	}
	if len(train) < 8 || len(held) < 2 {
		return nil, fmt.Errorf("surrogate: %d train / %d held-out usable rows (%d dropped); need at least 8/2",
			len(train), len(held), dropped)
	}

	// Standardize over the training split. A zero scale marks a feature
	// constant in training; it contributes no terms and its hull pin
	// (min == max) rejects any query that differs in it.
	mean := make([]float64, dim)
	scale := make([]float64, dim)
	for i := 0; i < dim; i++ {
		var s float64
		for _, r := range train {
			s += r.Features[i]
		}
		mean[i] = s / float64(len(train))
		var v float64
		for _, r := range train {
			d := r.Features[i] - mean[i]
			v += d * d
		}
		scale[i] = math.Sqrt(v / float64(len(train)))
		if scale[i] < 1e-12 {
			scale[i] = 0
		}
	}
	active := make([]bool, dim)
	for i := range active {
		active[i] = scale[i] > 0
	}
	terms := enumerateTerms(active, trainDegree)

	standardize := func(f []float64) []float64 {
		z := make([]float64, dim)
		for i := range z {
			if scale[i] > 0 {
				z[i] = (f[i] - mean[i]) / scale[i]
			}
		}
		return z
	}
	design := func(z []float64) []float64 {
		row := make([]float64, len(terms))
		for t, term := range terms {
			v := 1.0
			for i, e := range term {
				for k := 0; k < e; k++ {
					v *= z[i]
				}
			}
			row[t] = v
		}
		return row
	}

	// Normal equations with ridge on everything but the intercept
	// (terms[0] is the all-zero monomial by construction).
	p := len(terms)
	a := make([][]float64, p)
	for i := range a {
		a[i] = make([]float64, p)
	}
	b := make([]float64, p)
	for _, r := range train {
		phi := design(standardize(r.Features))
		y := math.Log10(r.SigmaCm2)
		for i := 0; i < p; i++ {
			for j := i; j < p; j++ {
				a[i][j] += phi[i] * phi[j]
			}
			b[i] += phi[i] * y
		}
	}
	for i := 0; i < p; i++ {
		for j := 0; j < i; j++ {
			a[i][j] = a[j][i]
		}
	}
	coef, err := ridgeSolve(a, b, trainLambda*float64(len(train)))
	if err != nil {
		return nil, err
	}

	m := &Model{
		Version:             ModelVersion,
		Quantity:            "log10_sigma_cm2",
		FeatureNames:        append([]string(nil), ds.FeatureNames...),
		Degree:              trainDegree,
		Lambda:              trainLambda,
		Mean:                mean,
		Scale:               scale,
		Terms:               terms,
		Coef:                coef,
		TrainingFingerprint: ds.Fingerprint(),
		CalSamples:          ds.CalSamples,
		Seed:                ds.Seed,
		TrainRows:           len(train),
		HeldOutRows:         len(held),
		DroppedRows:         dropped,
	}

	// Trained domain: the hull spans every usable row (train and held —
	// both carry certified-error evidence), and the fingerprint set
	// records which spectra contributed.
	m.Hull.Min = make([]float64, dim)
	m.Hull.Max = make([]float64, dim)
	copy(m.Hull.Min, kept[0].Features)
	copy(m.Hull.Max, kept[0].Features)
	fps := map[string]bool{}
	for _, r := range kept {
		for i, f := range r.Features {
			m.Hull.Min[i] = math.Min(m.Hull.Min[i], f)
			m.Hull.Max[i] = math.Max(m.Hull.Max[i], f)
		}
		fps[r.SpectrumFingerprint] = true
	}
	for fp := range fps {
		m.SpectrumFingerprints = append(m.SpectrumFingerprints, fp)
	}
	sort.Strings(m.SpectrumFingerprints)

	// Certify on the held-out split: relative error on the σ scale.
	var maxErr, sumErr float64
	for _, r := range held {
		pred := m.Predict(r.Features)
		rel := math.Abs(math.Pow(10, pred-math.Log10(r.SigmaCm2)) - 1)
		sumErr += rel
		maxErr = math.Max(maxErr, rel)
	}
	m.HeldOutMaxRelErr = maxErr
	m.HeldOutMeanRelErr = sumErr / float64(len(held))
	m.CertifiedRelErr = math.Max(safetyFactor*maxErr, minCertifiedRelErr)
	if math.IsInf(m.CertifiedRelErr, 0) || math.IsNaN(m.CertifiedRelErr) {
		return nil, fmt.Errorf("surrogate: held-out error is not finite; fit diverged")
	}

	m.seal()
	return m, nil
}

func allFinite(f []float64) bool {
	for _, v := range f {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// enumerateTerms lists every monomial exponent vector of total degree
// <= degree over the active features, in a deterministic lexicographic
// order with the intercept (all zeros) first.
func enumerateTerms(active []bool, degree int) [][]int {
	var terms [][]int
	cur := make([]int, len(active))
	var rec func(i, remaining int)
	rec = func(i, remaining int) {
		if i == len(active) {
			t := make([]int, len(cur))
			copy(t, cur)
			terms = append(terms, t)
			return
		}
		maxE := 0
		if active[i] {
			maxE = remaining
		}
		for e := 0; e <= maxE; e++ {
			cur[i] = e
			rec(i+1, remaining-e)
		}
		cur[i] = 0
	}
	rec(0, degree)
	return terms
}

// ridgeSolve solves (A + λI)x = b via Cholesky, skipping the ridge on
// the intercept (index 0). If the factorization stalls numerically the
// ridge is escalated ×10 a few times before giving up — collinear
// features (the band fractions move together) make A rank-deficient,
// which any positive λ repairs.
func ridgeSolve(a [][]float64, b []float64, lambda float64) ([]float64, error) {
	p := len(a)
	for attempt := 0; attempt < 4; attempt++ {
		m := make([][]float64, p)
		for i := range m {
			m[i] = append([]float64(nil), a[i]...)
			if i != 0 {
				m[i][i] += lambda
			}
		}
		if x, ok := cholSolve(m, b); ok {
			return x, nil
		}
		lambda *= 10
	}
	return nil, fmt.Errorf("surrogate: normal equations not positive definite even at lambda=%g", lambda)
}

// cholSolve solves Mx = b for symmetric positive-definite M in place.
func cholSolve(m [][]float64, b []float64) ([]float64, bool) {
	p := len(m)
	// Factor M = LLᵀ, storing L in the lower triangle.
	for i := 0; i < p; i++ {
		for j := 0; j <= i; j++ {
			s := m[i][j]
			for k := 0; k < j; k++ {
				s -= m[i][k] * m[j][k]
			}
			if i == j {
				if s <= 0 || math.IsNaN(s) {
					return nil, false
				}
				m[i][i] = math.Sqrt(s)
			} else {
				m[i][j] = s / m[j][j]
			}
		}
	}
	// Ly = b, then Lᵀx = y.
	x := make([]float64, p)
	for i := 0; i < p; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= m[i][k] * x[k]
		}
		x[i] = s / m[i][i]
	}
	for i := p - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < p; k++ {
			s -= m[k][i] * x[k]
		}
		x[i] = s / m[i][i]
	}
	return x, true
}

// GridConfig describes a design-space grid: the log-spaced boron × Qcrit
// lattice cmd/sweep maps, evaluated on both beamlines.
type GridConfig struct {
	BoronMin, BoronMax float64
	BoronSteps         int
	QcritMin, QcritMax float64
	QcritSteps         int
	// Samples is the Monte Carlo energy budget per cross section.
	Samples int
	Seed    uint64
	// Bias selects the importance-sampled estimator (nil = exact; see
	// Sigma). Its factors are features of every row.
	Bias *plan.Bias
	// Workers caps how many points evaluate at once (<= 0 = GOMAXPROCS).
	// It never affects the dataset.
	Workers int
}

// DefaultSamples is the Monte Carlo energy budget per cross section of
// DefaultGrid, of cmd/sweep's -samples and of a neutrond xsection query
// that names none.
const DefaultSamples = 60000

// DefaultGrid is the stock training grid for benches, CI retrains and
// the neutrond quickstart: three decades of boron density by the 1–8 fC
// Qcrit range, dense enough that the default quartic fit certifies a
// few-percent bound, cheap enough to evaluate in a couple of seconds.
func DefaultGrid() GridConfig {
	return GridConfig{
		BoronMin: 1e12, BoronMax: 1e15, BoronSteps: 12,
		QcritMin: 1, QcritMax: 8, QcritSteps: 10,
		Samples: DefaultSamples,
		Seed:    7,
	}
}

// EvaluateGrid evaluates the grid, one point per engine shard, and
// returns the dataset: per point in boron-major order, σ_thermal against
// ROTAX then σ_fast against ChipIR. Each point draws from its own stream,
// split off rng.New(Seed) in point order, so the dataset, and every model
// trained on it, is a pure function of the config, whatever the workers.
func EvaluateGrid(cfg GridConfig) (*Dataset, error) {
	if cfg.BoronMin <= 0 || cfg.BoronMax < cfg.BoronMin || cfg.BoronSteps < 1 {
		return nil, fmt.Errorf("surrogate: invalid boron grid")
	}
	if cfg.QcritMin <= 0 || cfg.QcritMax < cfg.QcritMin || cfg.QcritSteps < 1 {
		return nil, fmt.Errorf("surrogate: invalid qcrit grid")
	}
	if cfg.Samples <= 0 {
		return nil, fmt.Errorf("surrogate: samples must be positive")
	}
	var bias plan.Bias
	if cfg.Bias != nil {
		if err := cfg.Bias.Validate(); err != nil {
			return nil, err
		}
		bias = *cfg.Bias
	}
	logStep := func(lo, hi float64, steps, i int) float64 {
		if steps == 1 {
			return lo
		}
		return lo * math.Exp(math.Log(hi/lo)*float64(i)/float64(steps-1))
	}
	ds := NewDataset(cfg.Samples, cfg.Seed)
	beamlines := []spectrum.Spectrum{spectrum.ROTAX(), spectrum.ChipIR()}
	root := rng.New(cfg.Seed)
	var streams []*rng.Stream
	for bi := 0; bi < cfg.BoronSteps; bi++ {
		for qi := 0; qi < cfg.QcritSteps; qi++ {
			boron := logStep(cfg.BoronMin, cfg.BoronMax, cfg.BoronSteps, bi)
			qcrit := logStep(cfg.QcritMin, cfg.QcritMax, cfg.QcritSteps, qi)
			for _, sp := range beamlines {
				ds.Add(boron, qcrit, sp, bias, 0)
			}
			streams = append(streams, root.Split())
		}
	}
	evaluated := telemetry.Default.Counter("sweep.points_evaluated")
	start := time.Now()
	_, err := engine.Map(context.Background(), engine.Config{
		Workers: cfg.Workers, Grain: 1, Name: "sweep",
		StreamFor: func(i int) *rng.Stream { return streams[i] },
		OnShardDone: func(done, total int) {
			telemetry.ReportProgress(context.Background(), telemetry.ProgressUpdate{Component: "sweep",
				Done: float64(done), Total: float64(total), Elapsed: time.Since(start)})
		},
	}, len(streams), 1, func(ctx context.Context, sh engine.Shard) (struct{}, error) {
		// Shard i fills rows 2i and 2i+1 and no others.
		for k, sp := range beamlines {
			r := &ds.Rows[len(beamlines)*sh.Index+k]
			sigma, err := Sigma(ctx, r.BoronPerCm2, r.QcritFC, sp, cfg.Samples, sh.Stream, cfg.Bias)
			if err != nil {
				return struct{}{}, err
			}
			r.SigmaCm2 = sigma
		}
		evaluated.Inc()
		return struct{}{}, nil
	})
	if err != nil {
		return nil, err
	}
	return ds, nil
}
