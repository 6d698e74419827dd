package physics

import (
	"errors"
	"math"
	"sort"

	"neutronsim/internal/units"
)

// XSTable is a tabulated energy-dependent microscopic cross section with
// log-log interpolation — the standard representation of evaluated nuclear
// data. It refines the 1/v approximation where resonances matter; the
// flagship case here is cadmium, whose 0.178 eV ¹¹³Cd resonance produces
// the famous "cadmium cutoff" the paper leans on for Tin-II's shielded
// tube and the Cd shielding discussion.
type XSTable struct {
	energiesEV []float64
	barns      []float64
}

// NewXSTable builds a table from (energy [eV], cross section [barn])
// pairs. Energies must be strictly increasing and positive; values must be
// positive (log-log interpolation).
func NewXSTable(energiesEV, barns []float64) (*XSTable, error) {
	if len(energiesEV) < 2 {
		return nil, errors.New("physics: table needs at least two points")
	}
	if len(energiesEV) != len(barns) {
		return nil, errors.New("physics: mismatched table lengths")
	}
	for i := range energiesEV {
		if energiesEV[i] <= 0 || barns[i] <= 0 {
			return nil, errors.New("physics: table values must be positive")
		}
		if i > 0 && energiesEV[i] <= energiesEV[i-1] {
			return nil, errors.New("physics: energies must be strictly increasing")
		}
	}
	return &XSTable{
		energiesEV: append([]float64(nil), energiesEV...),
		barns:      append([]float64(nil), barns...),
	}, nil
}

// At returns the interpolated cross section at energy e. Below the first
// point the 1/v law is extrapolated from it; above the last point the last
// value is held.
func (t *XSTable) At(e units.Energy) units.CrossSection {
	ev := float64(e)
	if ev <= 0 {
		ev = t.energiesEV[0]
	}
	n := len(t.energiesEV)
	switch {
	case ev <= t.energiesEV[0]:
		// 1/v extrapolation toward cold energies.
		scale := math.Sqrt(t.energiesEV[0] / ev)
		if scale > 1e3 {
			scale = 1e3
		}
		return units.FromBarns(t.barns[0] * scale)
	case ev >= t.energiesEV[n-1]:
		return units.FromBarns(t.barns[n-1])
	}
	i := sort.SearchFloat64s(t.energiesEV, ev)
	// energies[i-1] < ev <= energies[i]
	x0, x1 := math.Log(t.energiesEV[i-1]), math.Log(t.energiesEV[i])
	y0, y1 := math.Log(t.barns[i-1]), math.Log(t.barns[i])
	f := (math.Log(ev) - x0) / (x1 - x0)
	return units.FromBarns(math.Exp(y0 + f*(y1-y0)))
}

// CadmiumAbsorption is the evaluated-data-shaped natural-cadmium (n,γ)
// cross section: 1/v-ish below the ¹¹³Cd resonance, a ~7 kb peak at
// 0.178 eV, and a collapse above ~0.5 eV — the cadmium cutoff.
var CadmiumAbsorption = mustXSTable(
	[]float64{1e-3, 5e-3, 0.0253, 0.1, 0.178, 0.3, 0.5, 1, 10, 1e3, 1e6},
	[]float64{12600, 5650, 2520, 2900, 7300, 1200, 60, 12, 3, 0.5, 0.05},
)

// Boron10Absorption is the ¹⁰B(n,α) cross section; it follows 1/v over the
// whole thermal and epithermal range (no low-lying resonances), falling to
// sub-barn values in the fast region.
var Boron10Absorption = mustXSTable(
	[]float64{1e-3, 0.0253, 0.5, 10, 1e3, 1e5, 1e6, 1e7},
	[]float64{19300, 3840, 864, 193, 19.3, 1.93, 0.4, 0.1},
)

func mustXSTable(energies, barns []float64) *XSTable {
	t, err := NewXSTable(energies, barns)
	if err != nil {
		panic(err) // static data; cannot fail
	}
	return t
}
