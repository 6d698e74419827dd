// Package spectrum models the neutron energy spectra the paper exposes
// devices to: the ChipIR atmospheric-like high-energy beamline, the ROTAX
// thermal beamline (Fig. 2), and scalable natural environments.
//
// A Spectrum couples a total flux with an energy distribution that can be
// sampled; beam campaigns draw neutron energies from it and accumulate
// fluence. Spectra built from band-pure components report exact per-band
// fluxes, which is what cross-section normalization needs.
package spectrum

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"sort"
	"sync"

	"neutronsim/internal/physics"
	"neutronsim/internal/rng"
	"neutronsim/internal/stats"
	"neutronsim/internal/units"
)

// Spectrum is a neutron field with a total flux and a sampleable energy
// distribution.
type Spectrum interface {
	// Name identifies the spectrum (e.g. "ChipIR").
	Name() string
	// Sample draws one neutron energy.
	Sample(s *rng.Stream) units.Energy
	// TotalFlux is the all-energy flux.
	TotalFlux() units.Flux
	// FluxInBand is the flux restricted to one energy band.
	FluxInBand(b physics.EnergyBand) units.Flux
	// Fingerprint is a stable content hash of the sampling identity,
	// without the name: equal fingerprints mean identical draws from
	// identical streams and identical point sets. It keys campaign plans
	// (internal/plan) and surrogate training rows.
	Fingerprint() string
	// Points is the n-point stratified calibration set, a pure function
	// of the spectrum and n, that cached campaign plans calibrate on.
	Points(n int) []Point
}

// Component is one band-pure piece of a mixture spectrum.
type Component struct {
	Label  string
	Band   physics.EnergyBand
	Flux   units.Flux
	Sample func(s *rng.Stream) units.Energy
}

// Mixture is a spectrum assembled from flux-weighted components.
//
// Sampling is constant-time: component selection is a Walker alias draw
// over the component fluxes, and each component's energy distribution is
// tabulated once at construction as an inverse-CDF quantile table
// (DESIGN.md §11). Both structures are immutable after NewMixture, so a
// Mixture may be sampled concurrently from independent streams.
type Mixture struct {
	name   string
	comps  []Component
	total  units.Flux
	pick   *rng.AliasTable
	tables []energyTable

	fpOnce sync.Once
	fp     string
}

// NewMixture builds a mixture spectrum. Components must have positive flux
// and a sampler.
func NewMixture(name string, comps []Component) (*Mixture, error) {
	if len(comps) == 0 {
		return nil, errors.New("spectrum: mixture needs at least one component")
	}
	m := &Mixture{name: name}
	weights := make([]float64, 0, len(comps))
	for _, c := range comps {
		if c.Flux <= 0 {
			return nil, errors.New("spectrum: component flux must be positive")
		}
		if c.Sample == nil {
			return nil, errors.New("spectrum: component sampler must not be nil")
		}
		m.comps = append(m.comps, c)
		m.total += c.Flux
		weights = append(weights, float64(c.Flux))
	}
	pick, err := rng.NewAliasTable(weights)
	if err != nil {
		// Unreachable: every weight is a validated positive flux.
		return nil, err
	}
	m.pick = pick
	m.tables = make([]energyTable, len(m.comps))
	for i, c := range m.comps {
		m.tables[i] = buildEnergyTable(c, i)
	}
	return m, nil
}

// Name returns the spectrum name.
func (m *Mixture) Name() string { return m.name }

// TotalFlux returns the summed component flux.
func (m *Mixture) TotalFlux() units.Flux { return m.total }

// FluxInBand sums the flux of components labeled with band b.
func (m *Mixture) FluxInBand(b physics.EnergyBand) units.Flux {
	var f units.Flux
	for _, c := range m.comps {
		if c.Band == b {
			f += c.Flux
		}
	}
	return f
}

// Sample draws a component proportionally to flux, then an energy from its
// tabulated distribution. The cost is two uniform draws and two table
// reads regardless of component count or the shape of the component
// samplers — no rejection loops run at sampling time. Band purity is
// structural: every table knot lies inside the component's declared band
// (re-drawn or clamped at construction), and each band is a contiguous
// energy interval, so interpolation cannot leave it.
func (m *Mixture) Sample(s *rng.Stream) units.Energy {
	c := m.pick.Draw(s)
	return m.tables[c].at(s.Float64())
}

// Point is one point of a stratified calibration set: an energy and the
// mass it carries. A set of n points carries mass n in total, so an
// average over the set weights each point's value by its mass and divides
// by n.
type Point struct {
	Energy units.Energy
	Mass   float64
}

// Points returns the mixture's n-point stratified calibration set, a pure
// function of the mixture and n (plan compilation). Each component gets
// n_c points, apportioned by its flux share with every component given at
// least one: point j sits at the midpoint quantile (j+½)/n_c of the
// component's energy table and carries mass n·share/n_c. A budget below
// the component count gives one point each to the n largest components
// (ties to the earlier one) and renormalizes their shares to sum to 1, so
// the set still carries mass n. Every point interpolates between knots of
// its own component, so it stays inside that component's band.
func (m *Mixture) Points(n int) []Point {
	if n <= 0 {
		return nil
	}
	chosen := make([]int, len(m.comps))
	for i := range chosen {
		chosen[i] = i
	}
	if n < len(chosen) {
		sort.SliceStable(chosen, func(a, b int) bool { return m.comps[chosen[a]].Flux > m.comps[chosen[b]].Flux })
		chosen = chosen[:n]
		sort.Ints(chosen)
	}
	var flux units.Flux
	for _, c := range chosen {
		flux += m.comps[c].Flux
	}
	// Cumulative rounding hands out the points beyond the first of each
	// component: the running flux reaches flux itself, bit for bit, at the
	// last component, so the counts sum to n exactly, and rounding is
	// monotone, so no count falls below 1.
	extra := float64(n - len(chosen))
	pts := make([]Point, 0, n)
	var cum units.Flux
	prev := 0
	for _, c := range chosen {
		cum += m.comps[c].Flux
		next := int(math.Round(extra * float64(cum/flux)))
		nc := 1 + next - prev
		prev = next
		mass := float64(n) * float64(m.comps[c].Flux/flux) / float64(nc)
		for j := 0; j < nc; j++ {
			pts = append(pts, Point{Energy: m.tables[c].at((float64(j) + 0.5) / float64(nc)), Mass: mass})
		}
	}
	return pts
}

// Components returns a copy of the component list.
func (m *Mixture) Components() []Component {
	return append([]Component(nil), m.comps...)
}

// Fingerprint returns a stable content hash of the mixture's sampling
// identity: per-component label, band, flux and the built energy-table
// knots. Two mixtures with equal fingerprints draw identical energy
// sequences from identical streams, which is what lets campaign plans
// compiled against one be reused for the other (internal/plan). The
// display name is deliberately excluded — identity is sampling behavior,
// not labeling. The hash is computed once and cached; Mixtures are
// immutable after NewMixture, so it can never go stale.
func (m *Mixture) Fingerprint() string {
	m.fpOnce.Do(func() {
		h := sha256.New()
		h.Write([]byte("spectrum.Mixture/v1\x00"))
		var buf [8]byte
		writeU64 := func(v uint64) {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
		writeF64 := func(v float64) { writeU64(math.Float64bits(v)) }
		writeU64(uint64(len(m.comps)))
		for i, c := range m.comps {
			h.Write([]byte(c.Label))
			h.Write([]byte{0})
			writeU64(uint64(c.Band))
			writeF64(float64(c.Flux))
			for _, k := range m.tables[i].knots {
				writeF64(k)
			}
		}
		m.fp = hex.EncodeToString(h.Sum(nil))
	})
	return m.fp
}

// Energy tables -------------------------------------------------------------

const (
	// energyTableSamples is the Monte Carlo budget used to tabulate one
	// component's CDF at construction. The empirical-CDF error scales as
	// 1/sqrt(n): ~1.5% in Kolmogorov distance at 8192, well inside the
	// statistical-equivalence tolerances and paid once per component
	// instead of per draw.
	energyTableSamples = 8192
	// energyTableKnots is the number of equally-probable quantile knots
	// kept from the sorted sample; draws interpolate linearly between
	// adjacent knots. 257 knots put adjacent quantiles within a few
	// percent of each other in energy across every catalog component.
	energyTableKnots = 257
	// energyTableSeed seeds the private construction streams. Tables are a
	// pure function of (component sampler, band, index), never of any
	// caller stream, so building the same catalog spectrum twice yields
	// identical tables.
	energyTableSeed = 0x7ab1e5eed0c0ffee
	// bandRedrawAttempts bounds the per-sample band-purity rejection loop
	// during table construction, mirroring the bound the old per-draw
	// rejection used.
	bandRedrawAttempts = 64
)

// energyTable is an inverse-CDF quantile table for one band-pure
// component: knots[k] is the k/(len-1) quantile of the component's energy
// distribution. A draw picks a uniform position along the knots and
// interpolates — one uniform variate, one table read, no rejection.
type energyTable struct {
	knots []float64
}

func buildEnergyTable(c Component, idx int) energyTable {
	s := rng.NewSequence(energyTableSeed, uint64(idx))
	samples := make([]float64, energyTableSamples)
	for i := range samples {
		samples[i] = float64(sampleInBand(c, s))
	}
	sort.Float64s(samples)
	knots := make([]float64, energyTableKnots)
	last := len(samples) - 1
	for k := range knots {
		pos := float64(k) * float64(last) / float64(energyTableKnots-1)
		j := int(pos)
		if j >= last {
			knots[k] = samples[last]
			continue
		}
		f := pos - float64(j)
		knots[k] = samples[j] + f*(samples[j+1]-samples[j])
	}
	return energyTable{knots: knots}
}

// sampleInBand draws from the component sampler until the energy lands in
// the declared band, clamping after bandRedrawAttempts so a pathological
// sampler (one that never hits its band) still yields a usable in-band
// table instead of looping forever.
func sampleInBand(c Component, s *rng.Stream) units.Energy {
	for i := 0; i < bandRedrawAttempts; i++ {
		e := c.Sample(s)
		if physics.Classify(e) == c.Band {
			return e
		}
	}
	return bandClamp(c.Band)
}

// bandClamp is a representative in-band energy for pathological samplers.
func bandClamp(b physics.EnergyBand) units.Energy {
	switch b {
	case physics.BandThermal:
		return 0.0253
	case physics.BandFast:
		return 10 * units.MeV
	default:
		return 1e3
	}
}

// at interpolates the table at the uniform position v in [0, 1).
func (t energyTable) at(v float64) units.Energy {
	last := len(t.knots) - 1
	u := v * float64(last)
	j := int(u)
	if j >= last {
		j = last - 1
	}
	f := u - float64(j)
	return units.Energy(t.knots[j] + f*(t.knots[j+1]-t.knots[j]))
}

// Samplers -----------------------------------------------------------------

// MaxwellSampler returns a sampler for a Maxwellian thermal spectrum with
// temperature kT (eV).
func MaxwellSampler(kT units.Energy) func(*rng.Stream) units.Energy {
	return func(s *rng.Stream) units.Energy {
		return units.Energy(s.MaxwellEnergy(float64(kT)))
	}
}

// OneOverESampler returns a sampler for the classic 1/E slowing-down
// spectrum between lo and hi (log-uniform in energy).
func OneOverESampler(lo, hi units.Energy) func(*rng.Stream) units.Energy {
	return func(s *rng.Stream) units.Energy {
		return units.Energy(s.LogUniform(float64(lo), float64(hi)))
	}
}

// LogNormalBumpSampler returns a sampler concentrated around centerEV with
// the given width in natural-log units, truncated to [lo, hi]. Atmospheric
// and spallation fast spectra are well described by one or two such bumps
// on a lethargy plot.
func LogNormalBumpSampler(centerEV, sigmaLn float64, lo, hi units.Energy) func(*rng.Stream) units.Energy {
	mu := math.Log(centerEV)
	return func(s *rng.Stream) units.Energy {
		for i := 0; i < 64; i++ {
			e := units.Energy(math.Exp(mu + sigmaLn*s.Normal()))
			if e >= lo && e <= hi {
				return e
			}
		}
		return units.Energy(centerEV)
	}
}

// Beamlines ------------------------------------------------------------------

// Paper fluxes (§III-C): ChipIR >10 MeV flux, ChipIR thermal component, and
// the ROTAX total flux, all in n/cm²/s.
const (
	ChipIRFastFluxAbove10MeV units.Flux = 5.4e6
	ChipIRThermalFlux        units.Flux = 4.0e5
	ROTAXTotalFlux           units.Flux = 2.72e6
)

// The catalog beamlines are process-wide singletons: a Mixture is
// immutable after NewMixture and its energy tables are a pure function of
// (component sampler, band, index) on a fixed private seed, so the
// memoized instance is bit-for-bit identical to a freshly built one.
// Before memoization every one of the ~66 ChipIR()/ROTAX() call sites
// re-ran the 8192-sample table construction per component.
var (
	chipIR = sync.OnceValue(newChipIR)
	rotax  = sync.OnceValue(newROTAX)
)

// ChipIR returns the high-energy beamline spectrum: an atmospheric-like
// fast region (two lethargy bumps near 2 MeV and 80 MeV), a 1/E epithermal
// region, and the residual thermal component quoted by the paper. The
// returned Mixture is a shared immutable singleton.
func ChipIR() *Mixture { return chipIR() }

// ROTAX returns the thermal beamline: a liquid-methane-moderated
// Maxwellian carrying ~95% of the flux plus a small epithermal tail. The
// returned Mixture is a shared immutable singleton.
func ROTAX() *Mixture { return rotax() }

func newChipIR() *Mixture {
	m, err := NewMixture("ChipIR", []Component{
		{
			Label:  "thermal",
			Band:   physics.BandThermal,
			Flux:   ChipIRThermalFlux,
			Sample: MaxwellSampler(units.RoomTemperature.KT()),
		},
		{
			Label:  "epithermal 1/E",
			Band:   physics.BandEpithermal,
			Flux:   1.6e6,
			Sample: OneOverESampler(units.ThermalCutoff, units.FastThreshold),
		},
		{
			Label:  "evaporation bump",
			Band:   physics.BandFast,
			Flux:   2.2e6,
			Sample: LogNormalBumpSampler(2.2e6, 0.75, units.FastThreshold, 10*units.MeV),
		},
		{
			Label:  "spallation bump >10MeV",
			Band:   physics.BandFast,
			Flux:   ChipIRFastFluxAbove10MeV,
			Sample: LogNormalBumpSampler(90e6, 1.0, 10*units.MeV, 800*units.MeV),
		},
	})
	if err != nil {
		panic(err) // static catalog; cannot fail
	}
	return m
}

func newROTAX() *Mixture {
	const thermalShare = 0.95
	// Liquid methane at ~110 K moderates below room temperature; the
	// effective Maxwellian temperature of the emerging beam is ~130 K.
	const effectiveTemp units.Temperature = 130
	m, err := NewMixture("ROTAX", []Component{
		{
			Label:  "thermal Maxwellian",
			Band:   physics.BandThermal,
			Flux:   ROTAXTotalFlux * thermalShare,
			Sample: MaxwellSampler(effectiveTemp.KT()),
		},
		{
			Label:  "epithermal tail",
			Band:   physics.BandEpithermal,
			Flux:   ROTAXTotalFlux * (1 - thermalShare),
			Sample: OneOverESampler(units.ThermalCutoff, 100e3),
		},
	})
	if err != nil {
		panic(err)
	}
	return m
}

// Environments -----------------------------------------------------------------

// EnvironmentConfig describes a natural neutron field by its per-band
// fluxes (n/cm²/h, the natural unit at ground level).
type EnvironmentConfig struct {
	Name                  string
	FastFluxPerHour       float64
	EpithermalFluxPerHour float64
	ThermalFluxPerHour    float64
}

// NewEnvironment builds an atmospheric-like environment spectrum from
// per-band fluxes. The fast shape follows the ground-level cosmic-ray
// spectrum (bumps at ~1-2 MeV and ~100 MeV); thermals are room-temperature
// Maxwellian.
func NewEnvironment(cfg EnvironmentConfig) (*Mixture, error) {
	if cfg.FastFluxPerHour <= 0 && cfg.ThermalFluxPerHour <= 0 && cfg.EpithermalFluxPerHour <= 0 {
		return nil, errors.New("spectrum: environment needs at least one positive flux")
	}
	var comps []Component
	if cfg.ThermalFluxPerHour > 0 {
		comps = append(comps, Component{
			Label:  "thermal",
			Band:   physics.BandThermal,
			Flux:   units.FluxPerHour(cfg.ThermalFluxPerHour),
			Sample: MaxwellSampler(units.RoomTemperature.KT()),
		})
	}
	if cfg.EpithermalFluxPerHour > 0 {
		comps = append(comps, Component{
			Label:  "epithermal",
			Band:   physics.BandEpithermal,
			Flux:   units.FluxPerHour(cfg.EpithermalFluxPerHour),
			Sample: OneOverESampler(units.ThermalCutoff, units.FastThreshold),
		})
	}
	if cfg.FastFluxPerHour > 0 {
		fast := units.FluxPerHour(cfg.FastFluxPerHour)
		comps = append(comps,
			Component{
				Label:  "fast evaporation",
				Band:   physics.BandFast,
				Flux:   fast * 0.45,
				Sample: LogNormalBumpSampler(1.8e6, 0.7, units.FastThreshold, 10*units.MeV),
			},
			Component{
				Label:  "fast cascade",
				Band:   physics.BandFast,
				Flux:   fast * 0.55,
				Sample: LogNormalBumpSampler(100e6, 1.0, 10*units.MeV, 1000*units.MeV),
			},
		)
	}
	name := cfg.Name
	if name == "" {
		name = "environment"
	}
	return NewMixture(name, comps)
}

// Mono is a monoenergetic beam, useful for calibration and tests.
type Mono struct {
	name   string
	energy units.Energy
	flux   units.Flux
}

// NewMono builds a monoenergetic spectrum.
func NewMono(name string, e units.Energy, f units.Flux) (*Mono, error) {
	if e <= 0 || f <= 0 {
		return nil, errors.New("spectrum: mono requires positive energy and flux")
	}
	return &Mono{name: name, energy: e, flux: f}, nil
}

// Name returns the beam name.
func (m *Mono) Name() string { return m.name }

// Sample always returns the beam energy.
func (m *Mono) Sample(*rng.Stream) units.Energy { return m.energy }

// TotalFlux returns the beam flux.
func (m *Mono) TotalFlux() units.Flux { return m.flux }

// FluxInBand returns the flux if the beam energy lies in b, else 0.
func (m *Mono) FluxInBand(b physics.EnergyBand) units.Flux {
	if physics.Classify(m.energy) == b {
		return m.flux
	}
	return 0
}

// Points returns n points at the beam energy, each with mass 1.
func (m *Mono) Points(n int) []Point {
	pts := make([]Point, max(n, 0))
	for i := range pts {
		pts[i] = Point{Energy: m.energy, Mass: 1}
	}
	return pts
}

// Fingerprint returns a stable content hash of the beam's sampling
// identity (energy and flux; the name is excluded, as for Mixture).
func (m *Mono) Fingerprint() string {
	h := sha256.New()
	h.Write([]byte("spectrum.Mono/v1\x00"))
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(float64(m.energy)))
	binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(float64(m.flux)))
	h.Write(buf[:])
	return hex.EncodeToString(h.Sum(nil))
}

// Analysis --------------------------------------------------------------------

// LethargyHistogram samples n energies and returns a log-binned histogram
// weighted so that PerLethargy() is proportional to flux per unit lethargy
// — the representation of Fig. 2.
func LethargyHistogram(sp Spectrum, n int, bins int, s *rng.Stream) (*stats.Histogram, error) {
	if n <= 0 {
		return nil, errors.New("spectrum: sample count must be positive")
	}
	h, err := stats.NewLogHistogram(1e-3, 1e9, bins)
	if err != nil {
		return nil, err
	}
	w := float64(sp.TotalFlux()) / float64(n)
	for i := 0; i < n; i++ {
		h.AddWeighted(float64(sp.Sample(s)), w)
	}
	return h, nil
}

// EstimateBandFluxes estimates per-band fluxes by Monte Carlo, as a
// cross-check of the exact component bookkeeping.
func EstimateBandFluxes(sp Spectrum, n int, s *rng.Stream) map[physics.EnergyBand]units.Flux {
	counts := map[physics.EnergyBand]int{}
	for i := 0; i < n; i++ {
		counts[physics.Classify(sp.Sample(s))]++
	}
	out := map[physics.EnergyBand]units.Flux{}
	for b, c := range counts {
		out[b] = sp.TotalFlux() * units.Flux(float64(c)/float64(n))
	}
	return out
}
