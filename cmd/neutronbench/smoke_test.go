package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// repoRoot is the checkout the benchmark builds cmd/neutrond from.
const repoRoot = "../.."

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// declared reads the metrics BENCHMARK.json declares.
func declared(t *testing.T) (endToEndDefs, perLayerDefs []declaredMetric) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []declaredMetric `json:"end_to_end"`
		PerLayer []declaredMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec.EndToEnd, spec.PerLayer
}

func TestDeclaredMetricsMatchTheCode(t *testing.T) {
	e2e, layers := declared(t)
	for _, c := range []struct {
		name string
		decl []declaredMetric
		code []metricDef
	}{{"end_to_end", e2e, endToEnd}, {"per_layer", layers, perLayer}} {
		if len(c.decl) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the code reports %d", c.name, len(c.decl), len(c.code))
			continue
		}
		for i, d := range c.decl {
			if d.Name != c.code[i].name || d.Unit != c.code[i].unit {
				t.Errorf("%s[%d]: declared %s (%s), code reports %s (%s)", c.name, i, d.Name, d.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}

// runOnce executes one run and returns its exit code and result line.
func runOnce(t *testing.T, o options, w traffic) (int, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := execute(context.Background(), o, w, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("exit %d, no result line: %v\nstdout:\n%s\nstderr:\n%s", code, err, &stdout, &stderr)
	}
	return code, res
}

func checkMetrics(t *testing.T, got map[string]metric, want []declaredMetric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("emitted %d metrics, BENCHMARK.json declares %d", len(got), len(want))
	}
	for _, d := range want {
		m, ok := got[d.Name]
		switch {
		case !ok:
			t.Errorf("%s not emitted", d.Name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s = %v", d.Name, m.Value)
		case m.Unit != d.Unit:
			t.Errorf("%s has unit %q, want %q", d.Name, m.Unit, d.Unit)
		}
	}
}

// TestSmoke runs every workload for about a second with its checks on,
// and one traced run, against real neutrond processes.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts neutrond")
	}
	e2e, layers := declared(t)
	work, out := t.TempDir(), t.TempDir()
	opts := func(name string, trace bool) options {
		return options{root: repoRoot, workload: name, seed: 1, seconds: 1, trace: trace, out: out, work: work}
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, err := newWorkload(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			code, res := runOnce(t, opts(name, false), w)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("exit %d, correct %v, attempted %d, failed %d", code, res.Correct, res.Attempted, res.Failed)
			}
			checkMetrics(t, res.Metrics, e2e)
		})
	}
	t.Run("traced", func(t *testing.T) {
		w, err := newWorkload("beam-campaigns", 1)
		if err != nil {
			t.Fatal(err)
		}
		code, res := runOnce(t, opts("beam-campaigns", true), w)
		if code != 0 || !res.Correct {
			t.Errorf("exit %d, correct %v", code, res.Correct)
		}
		checkMetrics(t, res.Metrics, layers)
		if _, err := os.Stat(filepath.Join(out, "beam-campaigns-seed1-trace1.spans.json")); err != nil {
			t.Errorf("no span file: %v", err)
		}
	})
}

// tampered alters every answer before the workload's checks see it.
type tampered struct{ traffic }

func (t tampered) check(k call, a answer) {
	a.body = append(append([]byte(nil), a.body...), ' ')
	t.traffic.check(k, a)
}

func TestWrongAnswerFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts neutrond")
	}
	w := tampered{&stream{topo: singleNode, conns: 2, sample: 10, seed: 1, every: 1, variants: beamVariants()}}
	o := options{root: repoRoot, workload: "beam-campaigns", seed: 1, seconds: 0.3, out: t.TempDir(), work: t.TempDir()}
	code, res := runOnce(t, o, w)
	if code == 0 || res.Correct {
		t.Errorf("exit %d with correct %v, want a non-zero exit and correct false", code, res.Correct)
	}
}
