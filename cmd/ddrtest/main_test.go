package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

func capture(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		done <- string(data)
	}()
	runErr := f()
	w.Close()
	os.Stdout = old
	return <-done, runErr
}

func TestBadModule(t *testing.T) {
	if err := run([]string{"-module", "ddr5"}); err == nil {
		t.Error("unknown module accepted")
	}
}

func TestBadBand(t *testing.T) {
	if err := run([]string{"-band", "gamma"}); err == nil {
		t.Error("unknown band accepted")
	}
}

func TestThermalCampaign(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-module", "ddr3", "-hours", "5", "-ecc", "-seed", "2"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"DDR3", "transient", "permanent", "SEFI", "SECDED", "dominant flip direction"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestFastCampaignAborts(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-module", "ddr4", "-band", "fast", "-hours", "2", "-seed", "3"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "ABORTED") {
		t.Error("fast campaign should abort on permanent pile-up")
	}
	// The fast beam runs at ChipIR's flux above 10 MeV, as a fast memory
	// campaign does in neutrond, not at ChipIR's total flux.
	if !strings.Contains(out, "fast, 5.4e+06 n/cm²/s") {
		t.Errorf("fast campaign flux is not ChipIR's 5.4e+06 above 10 MeV:\n%s", out)
	}
}
