// Package units defines the physical quantities used throughout neutronsim:
// neutron energies, particle fluxes and fluences, microscopic and
// macroscopic cross sections, and failure rates (FIT).
//
// All quantities are thin float64 wrappers. They exist to make call sites
// self-documenting and to centralize unit conversions; arithmetic on the
// underlying values stays allocation-free.
package units

import (
	"fmt"
	"math"
)

// Energy is a particle kinetic energy in electron-volts (eV).
type Energy float64

// Common energy scales.
const (
	EV  Energy = 1
	KeV Energy = 1e3
	MeV Energy = 1e6
	GeV Energy = 1e9

	// MilliEV is used for thermal spectra (thermal peak sits near 25 meV).
	MilliEV Energy = 1e-3
)

// Characteristic energies used by the paper's classification (§II-A).
const (
	// ThermalCutoff is the upper bound for "thermal" neutrons (< 0.5 eV).
	ThermalCutoff Energy = 0.5
	// FastThreshold is the lower bound for "high energy" (fast) neutrons.
	FastThreshold Energy = 1 * MeV
	// RoomTemperatureKT is kT at 293 K, the most probable energy of a
	// room-temperature Maxwellian thermal spectrum (~25.3 meV).
	RoomTemperatureKT Energy = 0.0253
	// CadmiumCutoff is the conventional Cd absorption edge (~0.4 eV)
	// separating the "sub-cadmium" (thermal) region.
	CadmiumCutoff Energy = 0.4
)

// MeV returns the energy in mega-electron-volts.
func (e Energy) MeV() float64 { return float64(e) / 1e6 }

// IsThermal reports whether the energy falls in the paper's thermal band.
func (e Energy) IsThermal() bool { return e < ThermalCutoff }

// IsFast reports whether the energy falls in the paper's high-energy band.
func (e Energy) IsFast() bool { return e >= FastThreshold }

// String formats the energy with an auto-selected scale.
func (e Energy) String() string {
	v := float64(e)
	switch {
	case v == 0:
		return "0 eV"
	case math.Abs(v) >= 1e9:
		return fmt.Sprintf("%.3g GeV", v/1e9)
	case math.Abs(v) >= 1e6:
		return fmt.Sprintf("%.3g MeV", v/1e6)
	case math.Abs(v) >= 1e3:
		return fmt.Sprintf("%.3g keV", v/1e3)
	case math.Abs(v) >= 1:
		return fmt.Sprintf("%.3g eV", v)
	default:
		return fmt.Sprintf("%.3g meV", v*1e3)
	}
}

// Flux is a particle flux in neutrons per cm² per second.
type Flux float64

// PerHour returns the flux in n/cm²/h, the unit used for natural
// environments (e.g. ~13 n/cm²/h fast flux at NYC sea level).
func (f Flux) PerHour() float64 { return float64(f) * 3600 }

// FluxPerHour builds a Flux from an n/cm²/h figure.
func FluxPerHour(nPerCm2PerHour float64) Flux { return Flux(nPerCm2PerHour / 3600) }

// String formats the flux in n/cm²/s.
func (f Flux) String() string { return fmt.Sprintf("%.3g n/cm²/s", float64(f)) }

// Fluence is a time-integrated flux in neutrons per cm².
type Fluence float64

// String formats the fluence in n/cm².
func (fl Fluence) String() string { return fmt.Sprintf("%.3g n/cm²", float64(fl)) }

// CrossSection is a microscopic or device-level cross section in cm².
// Device cross sections in this codebase are "errors per unit fluence":
// sigma = observed errors / fluence.
type CrossSection float64

// Barn is the standard microscopic cross-section unit (1 b = 1e-24 cm²).
const Barn CrossSection = 1e-24

// Barns returns the cross section expressed in barns.
func (cs CrossSection) Barns() float64 { return float64(cs) / float64(Barn) }

// FromBarns builds a CrossSection from a value in barns.
func FromBarns(b float64) CrossSection { return CrossSection(b) * Barn }

// String formats the cross section in cm².
func (cs CrossSection) String() string { return fmt.Sprintf("%.3g cm²", float64(cs)) }

// FIT is a failure rate in failures per 10⁹ device-hours, the standard
// reliability unit used by the paper.
type FIT float64

// FITFromCrossSection converts a device cross section and an environmental
// flux into a FIT rate: FIT = sigma [cm²] × flux [n/cm²/h] × 10⁹.
func FITFromCrossSection(cs CrossSection, f Flux) FIT {
	return FIT(float64(cs) * f.PerHour() * 1e9)
}

// MTBF returns the mean time between failures in hours implied by the FIT
// rate, or +Inf for a zero rate.
func (r FIT) MTBF() float64 {
	if r <= 0 {
		return math.Inf(1)
	}
	return 1e9 / float64(r)
}

// String formats the FIT rate.
func (r FIT) String() string { return fmt.Sprintf("%.4g FIT", float64(r)) }

// AreaCm2 is an area in cm² (e.g. chip die area, detector face).
type AreaCm2 float64

// Temperature is an absolute temperature in kelvin.
type Temperature float64

// KT returns the thermal energy kT for the temperature.
func (t Temperature) KT() Energy {
	// Boltzmann constant in eV/K.
	const kBoltzmannEVPerK = 8.617333262e-5
	return Energy(kBoltzmannEVPerK * float64(t))
}

// Common temperatures.
const (
	RoomTemperature    Temperature = 293.15
	LiquidMethaneTemp  Temperature = 110 // ROTAX moderator (liquid methane)
	LiquidNitrogenTemp Temperature = 77
)
