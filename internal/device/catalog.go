package device

import "neutronsim/internal/rng"

// The device catalog encodes the six devices under test (§III-A) with
// physically motivated parameters:
//
//   - Die areas and charge-collection depths follow the process node
//     (planar CMOS collects over ~1 µm; FinFET/Tri-Gate fins collect over
//     ~0.3 µm, one reason the paper sees FinFET parts less thermally
//     sensitive).
//   - Critical charge shrinks with the node (28 nm ≈ 6 fC → 12 nm ≈ 1.2 fC).
//   - Boron10PerCm2 is calibrated so that Monte Carlo beam campaigns
//     reproduce the fast:thermal cross-section ratios the paper measured
//     (Fig. cs_ratio): the ratio scales as 1/boron to first order, so a
//     few fixed-point steps on MeasuredRatio produced the baked-in numbers
//     (calibration_test.go re-verifies them against RatioTargets).
//   - ControlFracFast/Thermal encode how often a fault lands in control
//     logic (the DUE path). The per-band split is what lets one device
//     show SDC ratio 10.14 but DUE ratio 6.37 (Xeon Phi), or the APU's
//     near-1 DUE ratio that the paper attributes to thermally sensitive
//     CPU-GPU communication logic.

// XeonPhi is the Intel Xeon Phi 3120A (Knights Corner), 22nm Tri-Gate.
// Target ratios: SDC 10.14, DUE 6.37 — low thermal sensitivity, a sign of
// little or depleted boron (§V).
func XeonPhi() *Device {
	return &Device{
		Name:               "XeonPhi",
		Vendor:             "Intel",
		Process:            "22nm Intel 3-D Tri-Gate",
		Tech:               TriGate,
		Kind:               KindAccelerator,
		DieAreaCm2:         7.0,
		SensitiveDepthUm:   0.35,
		SensitiveFraction:  1e-3,
		Boron10PerCm2:      3.55e13,
		QcritFC:            2.0,
		QcritSigmaFC:       0.5,
		ControlFracFast:    0.30,
		ControlFracThermal: 0.420,
		MBUProb:            0.05,
	}
}

// K20 is the NVIDIA Tesla K20 (Kepler), 28nm TSMC planar CMOS.
// Target ratios: SDC ≈2, DUE ≈3 — high thermal sensitivity.
func K20() *Device {
	return &Device{
		Name:               "K20",
		Vendor:             "NVIDIA",
		Process:            "28nm TSMC CMOS",
		Tech:               CMOSPlanar,
		Kind:               KindGPU,
		DieAreaCm2:         5.61,
		SensitiveDepthUm:   1.0,
		SensitiveFraction:  1e-3,
		Boron10PerCm2:      3.70e14,
		QcritFC:            6.0,
		QcritSigmaFC:       1.5,
		ControlFracFast:    0.25,
		ControlFracThermal: 0.177,
		MBUProb:            0.08,
	}
}

// TitanX is the NVIDIA Titan X (Pascal), 16nm TSMC FinFET.
// Target ratios: SDC ≈3, DUE ≈7.
func TitanX() *Device {
	return &Device{
		Name:               "TitanX",
		Vendor:             "NVIDIA",
		Process:            "16nm TSMC FinFET",
		Tech:               FinFET,
		Kind:               KindGPU,
		DieAreaCm2:         4.71,
		SensitiveDepthUm:   0.30,
		SensitiveFraction:  1e-3,
		Boron10PerCm2:      7.14e13,
		QcritFC:            1.5,
		QcritSigmaFC:       0.4,
		ControlFracFast:    0.25,
		ControlFracThermal: 0.112,
		MBUProb:            0.10,
	}
}

// TitanV is the NVIDIA Titan V (Volta), 12nm TSMC FinFET. The companion
// study could only exercise MxM on it; its thermal SDC cross section was
// almost double the TitanX's. Target ratios: SDC ≈2, DUE ≈6.
func TitanV() *Device {
	return &Device{
		Name:               "TitanV",
		Vendor:             "NVIDIA",
		Process:            "12nm TSMC FinFET",
		Tech:               FinFET,
		Kind:               KindGPU,
		DieAreaCm2:         8.15,
		SensitiveDepthUm:   0.25,
		SensitiveFraction:  1e-3,
		Boron10PerCm2:      8.39e13,
		QcritFC:            1.2,
		QcritSigmaFC:       0.3,
		ControlFracFast:    0.25,
		ControlFracThermal: 0.079,
		MBUProb:            0.12,
	}
}

// APUConfig selects which halves of the AMD A10-7890K (Kaveri) APU are
// exercised; the paper tests CPU-only, GPU-only, and a 50/50 split (§V).
type APUConfig int

// APU execution configurations.
const (
	APUCPU APUConfig = iota + 1
	APUGPU
	APUCPUGPU
)

// String names the configuration.
func (c APUConfig) String() string {
	switch c {
	case APUCPU:
		return "CPU"
	case APUGPU:
		return "GPU"
	case APUCPUGPU:
		return "CPU+GPU"
	default:
		return "unknown"
	}
}

// APU builds the AMD A10-7890K Kaveri model for one execution
// configuration (28nm SHP Bulk, Global Foundries). The shared silicon is
// identical; the exercised-area and control-logic exposure differ. The
// CPU+GPU configuration has the worst thermal DUE ratio (≈1.18) because
// the CPU-GPU synchronization logic is thermally sensitive (§V).
func APU(cfg APUConfig) *Device {
	d := &Device{
		Vendor:            "AMD",
		Process:           "28nm SHP Bulk (Global Foundries)",
		Tech:              CMOSPlanar,
		Kind:              KindAPU,
		SensitiveDepthUm:  1.0,
		SensitiveFraction: 1e-3,
		QcritFC:           6.0,
		QcritSigmaFC:      1.5,
		MBUProb:           0.06,
	}
	switch cfg {
	case APUCPU:
		d.Name = "APU-CPU"
		d.DieAreaCm2 = 0.9 // CPU module share of the die
		d.Boron10PerCm2 = 4.17e14
		d.ControlFracFast = 0.30
		d.ControlFracThermal = 0.467
	case APUGPU:
		d.Name = "APU-GPU"
		d.DieAreaCm2 = 1.3 // GCN GPU share of the die
		d.Boron10PerCm2 = 4.76e14
		d.ControlFracFast = 0.35
		d.ControlFracThermal = 0.551
	default:
		d.Name = "APU-CPU+GPU"
		d.DieAreaCm2 = 2.45 // whole die active
		d.Boron10PerCm2 = 5.06e14
		d.ControlFracFast = 0.35
		d.ControlFracThermal = 0.559
	}
	return d
}

// FPGA is the Xilinx Zynq-7000, 28nm TSMC. Errors manifest through
// persistent configuration-memory corruption; DUEs are very rare because
// there is no OS or control flow to hang (§V). Target SDC ratio: 2.33.
func FPGA() *Device {
	return &Device{
		Name:               "Zynq7000",
		Vendor:             "Xilinx",
		Process:            "28nm TSMC",
		Tech:               CMOSPlanar,
		Kind:               KindFPGA,
		DieAreaCm2:         1.0,
		SensitiveDepthUm:   1.0,
		SensitiveFraction:  1e-3,
		Boron10PerCm2:      3.15e14,
		QcritFC:            5.0,
		QcritSigmaFC:       1.0,
		ControlFracFast:    0.01,
		ControlFracThermal: 0.01,
		MBUProb:            0.15,
		ConfigMemory:       true,
	}
}

// FPGAPrecision returns the Zynq model with the MNIST network implemented
// in single- or double-precision arithmetic. The double version occupies
// about twice the fabric resources; since the neutron cross section tracks
// the exercised circuit area, its fast cross section doubles — and the
// companion study measured its *thermal* cross section almost 4× the
// single version's, i.e. the extra DSP/CLB resources are disproportionately
// boron-exposed. We model that as exercised area ×2 and boron areal
// density ×2.
func FPGAPrecision(double bool) *Device {
	d := FPGA()
	if !double {
		d.Name = "Zynq7000-single"
		return d
	}
	d.Name = "Zynq7000-double"
	d.DieAreaCm2 *= 2
	d.Boron10PerCm2 *= 2
	return d
}

// BoronFree returns a copy of d with all ¹⁰B removed — the "purified
// boron" counterfactual the paper discusses (§III motivation): such a
// device is immune to thermal neutrons.
func BoronFree(d *Device) *Device {
	cp := *d
	cp.Name = d.Name + "-depleted-B"
	cp.Boron10PerCm2 = 0
	return &cp
}

// WithBPSG returns a copy of d with the historical borophosphosilicate
// glass layer re-added, multiplying the boron load (baumann1995boron
// reported ≈8× error rates; we add the boron that produces roughly that).
func WithBPSG(d *Device) *Device {
	cp := *d
	cp.Name = d.Name + "+BPSG"
	// A BPSG film holds far more ¹⁰B than modern residual doping.
	cp.Boron10PerCm2 = d.Boron10PerCm2 * 8
	return &cp
}

// Sample returns a manufacturing sample of the device: the same design
// with part-to-part process variation applied as a lognormal factor on the
// sensitive fraction. The companion studies report ~10% cross-section
// variation among samples of the same device, which a sigma of 0.1
// reproduces.
func Sample(d *Device, s *rng.Stream) *Device {
	cp := *d
	cp.SensitiveFraction *= s.LogNormal(0, 0.1)
	if cp.SensitiveFraction > 1 {
		cp.SensitiveFraction = 1
	}
	return &cp
}

// All returns every catalog device including the three APU configurations.
func All() []*Device {
	return []*Device{
		XeonPhi(), K20(), TitanX(), TitanV(),
		APU(APUCPU), APU(APUGPU), APU(APUCPUGPU),
		FPGA(),
	}
}
