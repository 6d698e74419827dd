// Package device models the radiation sensitivity of the computing devices
// the paper irradiated: Intel Xeon Phi, NVIDIA K20/TitanX/TitanV, the AMD
// APU, and a Xilinx Zynq FPGA.
//
// The model is physical rather than tabular: a neutron crossing the die
// interacts either by ¹⁰B(n,α)⁷Li capture (thermal/epithermal, scaling with
// the device's boron areal density) or by fast-neutron silicon interactions
// (elastic recoils and (n,α)/(n,p) reactions). The charged secondary
// deposits charge in a sensitive node; an upset occurs when that charge
// exceeds the device's critical charge. Boron content per device is the
// calibration knob — exactly the quantity the paper says is proprietary and
// can only be inferred by beam experiments.
package device

import (
	"errors"
	"fmt"

	"neutronsim/internal/physics"
	"neutronsim/internal/rng"
	"neutronsim/internal/units"
)

// Technology is the transistor technology, which the paper correlates with
// thermal sensitivity (FinFET devices appear less thermally susceptible
// than planar CMOS, §V).
type Technology int

// Transistor technologies.
const (
	CMOSPlanar Technology = iota + 1
	FinFET
	TriGate
)

// String names the technology.
func (t Technology) String() string {
	switch t {
	case CMOSPlanar:
		return "planar CMOS"
	case FinFET:
		return "FinFET"
	case TriGate:
		return "3-D Tri-Gate"
	default:
		return "unknown"
	}
}

// Kind is the device class.
type Kind int

// Device kinds.
const (
	KindCPU Kind = iota + 1
	KindGPU
	KindAccelerator
	KindAPU
	KindFPGA
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindCPU:
		return "CPU"
	case KindGPU:
		return "GPU"
	case KindAccelerator:
		return "accelerator"
	case KindAPU:
		return "APU"
	case KindFPGA:
		return "FPGA"
	default:
		return "unknown"
	}
}

// Target is the architectural structure a fault lands in; it determines
// whether the fault can become an SDC (data) or a DUE (control), or a
// persistent circuit change (FPGA configuration memory).
type Target int

// Fault targets.
const (
	TargetDatapath Target = iota + 1
	TargetMemory
	TargetControl
	TargetConfig
)

// String names the target.
func (t Target) String() string {
	switch t {
	case TargetDatapath:
		return "datapath"
	case TargetMemory:
		return "memory"
	case TargetControl:
		return "control"
	case TargetConfig:
		return "config"
	default:
		return "unknown"
	}
}

// Fault is one radiation-induced upset emitted by the device model.
type Fault struct {
	Band      physics.EnergyBand
	Target    Target
	Secondary physics.SecondaryKind
	ChargeFC  float64
	Bits      int // number of bits upset (>=1; >1 is an MBU)
}

// Device is a physical sensitivity model of one chip.
type Device struct {
	Name    string
	Vendor  string
	Process string
	Tech    Technology
	Kind    Kind

	// DieAreaCm2 is the exposed silicon area.
	DieAreaCm2 float64
	// SensitiveDepthUm is the charge-collection depth; thinner for FinFET.
	SensitiveDepthUm float64
	// SensitiveFraction is the fraction of interactions that occur close
	// enough to a sensitive node to matter (layout density factor).
	SensitiveFraction float64
	// Boron10PerCm2 is the ¹⁰B areal density — the proprietary quantity
	// the paper infers from beam tests. Zero means boron-free (immune to
	// thermal neutrons).
	Boron10PerCm2 float64
	// QcritFC and QcritSigmaFC describe the critical-charge distribution.
	QcritFC      float64
	QcritSigmaFC float64
	// ControlFracFast and ControlFracThermal give the probability that a
	// fast/thermal fault lands in control logic (DUE path). They differ
	// because ¹⁰B is not uniformly distributed across chip structures
	// (the paper's APU discussion, §V).
	ControlFracFast    float64
	ControlFracThermal float64
	// MBUProb is the probability an upset flips more than one bit.
	MBUProb float64
	// ConfigMemory marks SRAM-FPGA-style persistent configuration faults.
	ConfigMemory bool
}

// Validate checks the model parameters.
func (d *Device) Validate() error {
	switch {
	case d.Name == "":
		return errors.New("device: missing name")
	case d.DieAreaCm2 <= 0:
		return fmt.Errorf("device %s: non-positive die area", d.Name)
	case d.SensitiveDepthUm <= 0:
		return fmt.Errorf("device %s: non-positive sensitive depth", d.Name)
	case d.SensitiveFraction <= 0 || d.SensitiveFraction > 1:
		return fmt.Errorf("device %s: sensitive fraction out of (0,1]", d.Name)
	case d.Boron10PerCm2 < 0:
		return fmt.Errorf("device %s: negative boron density", d.Name)
	case d.QcritFC <= 0:
		return fmt.Errorf("device %s: non-positive Qcrit", d.Name)
	case d.ControlFracFast < 0 || d.ControlFracFast > 1 ||
		d.ControlFracThermal < 0 || d.ControlFracThermal > 1:
		return fmt.Errorf("device %s: control fractions out of [0,1]", d.Name)
	case d.MBUProb < 0 || d.MBUProb > 1:
		return fmt.Errorf("device %s: MBU probability out of [0,1]", d.Name)
	}
	return nil
}

// Effective fast-interaction microscopic cross section for upset-capable
// silicon interactions (elastic + reaction channels), in barns.
const fastEffectiveSigmaBarns = 1.5

// siliconAtomsPerCm3 is the atomic density of silicon.
const siliconAtomsPerCm3 = 4.996e22

// siliconArealDensity returns the Si atoms/cm² within the charge-collection
// depth.
func (d *Device) siliconArealDensity() float64 {
	return siliconAtomsPerCm3 * d.SensitiveDepthUm * 1e-4
}

// InteractionProbability returns the probability that a single neutron of
// energy e crossing the die produces a charged secondary near a sensitive
// node (before the critical-charge test).
func (d *Device) InteractionProbability(e units.Energy) float64 {
	band := physics.Classify(e)
	var p float64
	switch band {
	case physics.BandThermal, physics.BandEpithermal:
		// 1/v capture on the boron content.
		p = d.Boron10PerCm2 * float64(physics.Boron10Capture(e))
	case physics.BandFast:
		p = d.siliconArealDensity() * fastEffectiveSigmaBarns * float64(units.Barn)
	}
	return p * d.SensitiveFraction
}

// InteractionUpset runs the charge-deposition and classification stage for
// a neutron of energy e that is already known to have interacted in the
// die. Campaign harnesses that sample interactions directly (rather than
// tracking every beam neutron) use this entry point.
func (d *Device) InteractionUpset(e units.Energy, s *rng.Stream) (Fault, bool) {
	return d.upsetFromInteraction(e, s)
}

// upsetFromInteraction runs the charge-deposition and classification stage
// for a neutron already known to have interacted.
func (d *Device) upsetFromInteraction(e units.Energy, s *rng.Stream) (Fault, bool) {
	band := physics.Classify(e)
	var sec physics.Secondary
	switch band {
	case physics.BandThermal, physics.BandEpithermal:
		// Capture products fly back-to-back; one of the two ions
		// traverses the nearby sensitive node. The stack buffer keeps
		// this branch off the heap — it runs once per interaction in
		// every beam campaign.
		var buf [physics.MaxCaptureProducts]physics.Secondary
		products := physics.AppendBoronCaptureProducts(buf[:0], s)
		charged := products[:2] // alpha and 7Li
		sec = charged[s.Intn(2)]
	default:
		sec = physics.FastSiliconSecondary(e, s)
	}
	q := physics.DepositedCharge(sec, s)
	qcrit := s.NormalMeanStd(d.QcritFC, d.QcritSigmaFC)
	if qcrit < 0.1 {
		qcrit = 0.1
	}
	if q < qcrit {
		return Fault{}, false
	}
	f := Fault{Band: band, Secondary: sec.Kind, ChargeFC: q, Bits: 1}
	cf := d.ControlFracFast
	if band != physics.BandFast {
		cf = d.ControlFracThermal
	}
	switch {
	case s.Bernoulli(cf):
		f.Target = TargetControl
	case d.ConfigMemory:
		f.Target = TargetConfig
	case s.Bool():
		f.Target = TargetMemory
	default:
		f.Target = TargetDatapath
	}
	if s.Bernoulli(d.MBUProb) {
		f.Bits = 2 + s.Intn(3)
	}
	return f, true
}

// UpsetCrossSection estimates the device's upset cross section (cm² per
// device, before any workload masking) against an energy sampler, using n
// Monte Carlo energies. This is the calibration estimator: it measures
// sigma = A × E[p_interact(E) × P(upset | interaction, E)].
func (d *Device) UpsetCrossSection(sample func(*rng.Stream) units.Energy, n int, s *rng.Stream) (units.CrossSection, error) {
	if n <= 0 {
		return 0, errors.New("device: sample count must be positive")
	}
	if sample == nil {
		return 0, errors.New("device: nil energy sampler")
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		e := sample(s)
		p := d.InteractionProbability(e)
		if p == 0 {
			continue
		}
		if _, ok := d.upsetFromInteraction(e, s); ok {
			sum += p
		}
	}
	return units.CrossSection(sum / float64(n) * d.DieAreaCm2), nil
}
