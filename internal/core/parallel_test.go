package core

import (
	"context"
	"testing"

	"neutronsim/internal/device"
)

func TestAssessManyMatchesSequential(t *testing.T) {
	devices := []*device.Device{device.K20(), device.TitanX()}
	b := Budget{FastSeconds: 120, ThermalSeconds: 480, Boost: 50}
	parallel, err := AssessMany(devices, b, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range devices {
		seq, err := AssessContext(context.Background(), d, nil, b, DeviceSeed(7, i))
		if err != nil {
			t.Fatal(err)
		}
		p := parallel[i]
		if p.FastAvg.SDC != seq.FastAvg.SDC || p.ThermalAvg.DUE != seq.ThermalAvg.DUE {
			t.Errorf("%s: parallel result differs from sequential", d.Name)
		}
	}
}

func TestAssessManyValidation(t *testing.T) {
	if _, err := AssessMany(nil, Budget{}, 1, 2); err == nil {
		t.Error("empty device list accepted")
	}
}

func TestAssessManyPropagatesErrors(t *testing.T) {
	bad := device.K20()
	bad.Name = "" // fails validation inside the campaign
	res, err := AssessMany([]*device.Device{device.K20(), bad},
		Budget{FastSeconds: 60, ThermalSeconds: 60, Boost: 50}, 1, 2)
	if err == nil {
		t.Fatal("invalid device did not surface an error")
	}
	if len(res) != 2 || res[0] == nil {
		t.Error("partial results dropped: healthy device's assessment missing")
	}
	if res != nil && res[1] != nil {
		t.Error("failed device produced a non-nil assessment")
	}
}

func TestAssessManyJoinsAllErrors(t *testing.T) {
	badA := device.K20()
	badA.Name = ""
	badB := device.TitanX()
	badB.Name = ""
	badB.DieAreaCm2 = -1
	_, err := AssessMany([]*device.Device{badA, device.K20(), badB},
		Budget{FastSeconds: 60, ThermalSeconds: 60, Boost: 50}, 1, 3)
	if err == nil {
		t.Fatal("invalid devices did not surface an error")
	}
	joined, ok := err.(interface{ Unwrap() []error })
	if !ok {
		t.Fatalf("error %T does not unwrap to a list", err)
	}
	if n := len(joined.Unwrap()); n != 2 {
		t.Errorf("joined %d errors, want 2: %v", n, err)
	}
}

func TestAssessManyDefaultParallelism(t *testing.T) {
	devices := []*device.Device{device.TitanX()}
	res, err := AssessMany(devices, Budget{FastSeconds: 120, ThermalSeconds: 300, Boost: 50}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0] == nil {
		t.Error("missing result")
	}
}
