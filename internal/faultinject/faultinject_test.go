package faultinject

import (
	"testing"

	"neutronsim/internal/device"
	"neutronsim/internal/rng"
	"neutronsim/internal/workload"
)

func newInjector(t *testing.T, name string) *Injector {
	t.Helper()
	w, err := workload.New(name)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := NewInjector(w, 42, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

func dataFault(bits int) device.Fault {
	return device.Fault{Target: device.TargetMemory, Bits: bits}
}

func TestNewInjectorNilWorkload(t *testing.T) {
	if _, err := NewInjector(nil, 1, Config{}); err == nil {
		t.Error("nil workload accepted")
	}
}

func TestNoFaultsIsMasked(t *testing.T) {
	inj := newInjector(t, "MxM")
	s := rng.New(1)
	if res := inj.Run(nil, s); res.Outcome != OutcomeMasked {
		t.Errorf("clean run classified %v", res.Outcome)
	}
}

func TestControlFaultsBecomeDUEs(t *testing.T) {
	inj := newInjector(t, "MxM")
	s := rng.New(2)
	due, masked := 0, 0
	for i := 0; i < 2000; i++ {
		res := inj.Run([]Timed{{Step: 0, Fault: device.Fault{Target: device.TargetControl, Bits: 1}}}, s)
		switch res.Outcome {
		case OutcomeDUE:
			due++
		case OutcomeMasked:
			masked++
		default:
			t.Fatalf("control fault produced %v", res.Outcome)
		}
	}
	frac := float64(due) / 2000
	if frac < 0.55 || frac > 0.65 {
		t.Errorf("control DUE fraction = %v, want ~0.6", frac)
	}
	if masked == 0 {
		t.Error("some control faults should be masked")
	}
}

func TestControlDUEProbConfigurable(t *testing.T) {
	w, _ := workload.New("MxM")
	inj, err := NewInjector(w, 42, Config{ControlDUEProb: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := rng.New(3)
	for i := 0; i < 100; i++ {
		res := inj.Run([]Timed{{Fault: device.Fault{Target: device.TargetControl, Bits: 1}}}, s)
		if res.Outcome != OutcomeDUE {
			t.Fatalf("with prob 1, control fault produced %v", res.Outcome)
		}
	}
}

func TestDataFaultsProduceSDCs(t *testing.T) {
	inj := newInjector(t, "MxM")
	s := rng.New(4)
	outcomes := map[Outcome]int{}
	for i := 0; i < 500; i++ {
		res := inj.Run([]Timed{{Step: s.Intn(24), Fault: dataFault(1)}}, s)
		outcomes[res.Outcome]++
		if res.Outcome != OutcomeMasked && res.FlippedBits == 0 && res.Err == nil {
			t.Fatal("non-masked outcome without flipped bits")
		}
	}
	if outcomes[OutcomeSDC] == 0 {
		t.Errorf("MxM single-bit faults produced no SDCs: %v", outcomes)
	}
	if outcomes[OutcomeMasked] == 0 {
		t.Errorf("MxM single-bit faults never masked: %v", outcomes)
	}
}

func TestBFSFaultsCanHangOrCrash(t *testing.T) {
	inj := newInjector(t, "BFS")
	s := rng.New(5)
	dues := 0
	for i := 0; i < 1500; i++ {
		res := inj.Run([]Timed{{Step: s.Intn(4), Fault: dataFault(3)}}, s)
		if res.Outcome == OutcomeDUE {
			dues++
			if res.Err == nil {
				t.Fatal("workload DUE without cause")
			}
		}
	}
	if dues == 0 {
		t.Error("BFS control-state corruption never produced a workload DUE")
	}
}

func TestCNNMasksMoreThanMxM(t *testing.T) {
	// The paper's CNN observation: detection outputs mask most data
	// faults, unlike bit-exact HPC kernels.
	s := rng.New(6)
	mxm := newInjector(t, "MxM")
	yolo := newInjector(t, "YOLO")
	avfM, err := MeasureAVF(mxm, dataFault(1), 400, s)
	if err != nil {
		t.Fatal(err)
	}
	avfY, err := MeasureAVF(yolo, dataFault(1), 400, s)
	if err != nil {
		t.Fatal(err)
	}
	if avfY.SDCFraction() >= avfM.SDCFraction() {
		t.Errorf("YOLO SDC fraction %v should be below MxM's %v",
			avfY.SDCFraction(), avfM.SDCFraction())
	}
}

func TestMeasureAVFFractionsSum(t *testing.T) {
	inj := newInjector(t, "HotSpot")
	s := rng.New(7)
	avf, err := MeasureAVF(inj, dataFault(1), 300, s)
	if err != nil {
		t.Fatal(err)
	}
	if avf.Masked+avf.SDC+avf.DUE != avf.Runs {
		t.Errorf("outcome counts do not sum: %+v", avf)
	}
	sum := avf.SDCFraction() + avf.DUEFraction() + avf.MaskedFraction()
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("fractions sum to %v", sum)
	}
}

func TestMeasureAVFValidation(t *testing.T) {
	inj := newInjector(t, "MxM")
	if _, err := MeasureAVF(inj, dataFault(1), 0, rng.New(1)); err == nil {
		t.Error("zero runs accepted")
	}
}

func TestAVFZeroRuns(t *testing.T) {
	var avf AVF
	if avf.SDCFraction() != 0 || avf.DUEFraction() != 0 || avf.MaskedFraction() != 0 {
		t.Error("zero-run AVF fractions should be 0")
	}
}

func TestMultipleFaultsAccumulate(t *testing.T) {
	inj := newInjector(t, "MxM")
	s := rng.New(8)
	// Many simultaneous faults virtually guarantee an SDC.
	faults := make([]Timed, 50)
	for i := range faults {
		faults[i] = Timed{Step: i % 24, Fault: dataFault(2)}
	}
	sdcOrDue := 0
	for i := 0; i < 50; i++ {
		res := inj.Run(faults, s)
		if res.Outcome != OutcomeMasked {
			sdcOrDue++
		}
	}
	if sdcOrDue < 45 {
		t.Errorf("50×2-bit faults masked too often: %d/50 visible", sdcOrDue)
	}
}

func TestLateFaultStepsClamped(t *testing.T) {
	inj := newInjector(t, "MxM")
	s := rng.New(9)
	// Steps far beyond the workload length must still be applied safely.
	res := inj.Run([]Timed{{Step: 10000, Fault: dataFault(1)}}, s)
	if res.Outcome == OutcomeDUE {
		t.Errorf("late fault produced %v (err %v)", res.Outcome, res.Err)
	}
}

func TestNegativeStepClamped(t *testing.T) {
	inj := newInjector(t, "MxM")
	s := rng.New(10)
	res := inj.Run([]Timed{{Step: -5, Fault: dataFault(1)}}, s)
	_ = res // must simply not panic
}

func TestRunRepeatable(t *testing.T) {
	// Two injectors with identical seeds and fault schedules must agree.
	mk := func() Result {
		w, _ := workload.New("LUD")
		inj, err := NewInjector(w, 77, Config{})
		if err != nil {
			t.Fatal(err)
		}
		s := rng.New(11)
		return inj.Run([]Timed{{Step: 3, Fault: dataFault(1)}}, s)
	}
	r1, r2 := mk(), mk()
	if r1.Outcome != r2.Outcome || r1.FlippedBits != r2.FlippedBits {
		t.Errorf("non-deterministic injection: %+v vs %+v", r1, r2)
	}
}

func TestOutcomeString(t *testing.T) {
	if OutcomeMasked.String() != "masked" || OutcomeSDC.String() != "SDC" ||
		OutcomeDUE.String() != "DUE" || Outcome(0).String() != "unknown" {
		t.Error("outcome names wrong")
	}
}

func TestAllWorkloadsInjectable(t *testing.T) {
	s := rng.New(12)
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			inj := newInjector(t, name)
			for i := 0; i < 50; i++ {
				res := inj.Run([]Timed{{Step: i, Fault: dataFault(1)}}, s)
				if res.Outcome == 0 {
					t.Fatal("unclassified outcome")
				}
			}
		})
	}
}
