package report

import (
	"context"
	"strings"
	"testing"

	"neutronsim/internal/core"
	"neutronsim/internal/device"
	"neutronsim/internal/fit"
)

func testAssessment(t *testing.T, d *device.Device) *core.Assessment {
	t.Helper()
	a, err := core.AssessContext(context.Background(), d, []string{"MxM"}, core.QuickBudget(), 3)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestMarkdownValidation(t *testing.T) {
	if _, err := Markdown(Input{}); err == nil {
		t.Error("nil assessment accepted")
	}
	a := testAssessment(t, device.K20())
	if _, err := Markdown(Input{Assessment: a}); err == nil {
		t.Error("empty environments accepted")
	}
}

func TestMarkdownSections(t *testing.T) {
	a := testAssessment(t, device.K20())
	md, err := Markdown(Input{
		Assessment: a,
		Environments: []fit.Environment{
			fit.DataCenter(fit.NYC()),
			fit.DataCenter(fit.Leadville()),
		},
		SystemNodes: 4000,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# Reliability dossier: K20",
		"## Beam measurements",
		"| MxM | ChipIR |",
		"| MxM | ROTAX |",
		"## Fast:thermal sensitivity",
		"SDC cross-section ratio",
		"inferred ¹⁰B areal density",
		"## Failure rates by environment",
		"Leadville",
		"## Checkpoint advice",
		"Daly checkpoint interval",
		"## Mitigation notes",
		"cadmium",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("dossier missing %q", want)
		}
	}
}

func TestMarkdownBoronFree(t *testing.T) {
	free := device.BoronFree(device.K20())
	// A boron-free device still works end to end (thermal campaigns find
	// nothing).
	a, err := core.AssessContext(context.Background(), free, []string{"MxM"}, core.QuickBudget(), 4)
	if err != nil {
		t.Fatal(err)
	}
	md, err := Markdown(Input{
		Assessment:   a,
		Environments: []fit.Environment{fit.DataCenter(fit.NYC())},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md, "immune to thermal neutrons") {
		t.Error("boron-free dossier missing immunity note")
	}
	if !strings.Contains(md, "No thermal-specific mitigation") {
		t.Error("boron-free dossier missing mitigation note")
	}
}

func TestMarkdownSkipsCheckpointWithoutNodes(t *testing.T) {
	a := testAssessment(t, device.TitanX())
	md, err := Markdown(Input{
		Assessment:   a,
		Environments: []fit.Environment{fit.DataCenter(fit.NYC())},
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(md, "## Checkpoint advice") {
		t.Error("checkpoint section present without SystemNodes")
	}
}
