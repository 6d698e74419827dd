package telemetry

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"neutronsim/internal/telemetry/promcheck"
)

// populatedRegistry fills a registry with one metric of each kind, so
// exposition tests exercise every family type.
func populatedRegistry(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry()
	r.Counter("beam.sdc_events").Add(7)
	r.Gauge("engine.shard_busy").Set(3.5)
	h := r.Histogram("plan.compile_seconds")
	for _, v := range []float64{0.001, 0.25, 0.25, 4} {
		h.Observe(v)
	}
	return r
}

func TestWritePrometheusPassesStrictValidator(t *testing.T) {
	r := populatedRegistry(t)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if err := promcheck.Validate(strings.NewReader(b.String())); err != nil {
		t.Fatalf("exposition failed validation: %v\n%s", err, b.String())
	}
}

func TestWritePrometheusShape(t *testing.T) {
	r := populatedRegistry(t)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# TYPE beam_sdc_events_total counter\n",
		"beam_sdc_events_total 7\n",
		"# TYPE engine_shard_busy gauge\n",
		"engine_shard_busy 3.5\n",
		"# TYPE plan_compile_seconds histogram\n",
		`plan_compile_seconds_bucket{le="+Inf"} 4` + "\n",
		`plan_compile_seconds_bucket{le="0.25"} 3` + "\n",
		`plan_compile_seconds_bucket{le="4"} 4` + "\n",
		"plan_compile_seconds_count 4\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// Histogram sum = 4.501 (the four observations above).
	if !strings.Contains(out, "plan_compile_seconds_sum 4.501") {
		t.Errorf("exposition missing histogram sum\n%s", out)
	}
}

func TestWritePrometheusBucketsAreCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("x")
	h.Observe(0.5)
	h.Observe(2)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	last := -1.0
	buckets := 0
	for _, line := range strings.Split(b.String(), "\n") {
		if !strings.HasPrefix(line, "x_bucket{") {
			continue
		}
		buckets++
		fields := strings.Fields(line)
		cum, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("bad bucket line %q", line)
		}
		if cum < last {
			t.Fatalf("bucket values not cumulative at %q", line)
		}
		last = cum
	}
	if buckets < 2 {
		t.Fatalf("expected multiple bucket lines, got %d", buckets)
	}
	if last != 2 {
		t.Fatalf("final cumulative bucket = %v, want 2", last)
	}
	// le is inclusive: an observation equal to a bound counts in its bucket.
	for _, want := range []string{`x_bucket{le="0.25"} 0`, `x_bucket{le="0.5"} 1`, `x_bucket{le="1"} 1`, `x_bucket{le="2"} 2`} {
		if !strings.Contains(b.String(), want+"\n") {
			t.Errorf("exposition missing %q\n%s", want, b.String())
		}
	}
}

func TestCounterNamedTotalDoesNotDoubleSuffix(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests_total").Add(1)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "requests_total_total") {
		t.Errorf("counter already ending in _total must not gain another suffix\n%s", b.String())
	}
}

func TestPromHelpers(t *testing.T) {
	if got := promName("beam.sdc-events"); got != "beam_sdc_events" {
		t.Errorf("promName = %q", got)
	}
	if got := promName("0weird"); got != "_0weird" {
		t.Errorf("promName leading digit = %q", got)
	}
	if got := promFloat(math.Inf(1)); got != "+Inf" {
		t.Errorf("promFloat(+Inf) = %q", got)
	}
	if got := promFloat(math.Inf(-1)); got != "-Inf" {
		t.Errorf("promFloat(-Inf) = %q", got)
	}
	if got := promFloat(math.NaN()); got != "NaN" {
		t.Errorf("promFloat(NaN) = %q", got)
	}
}

func TestTimerObservesElapsed(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("op_seconds")
	h.ObserveSince(time.Now().Add(-10 * time.Millisecond))
	if h.Count() != 1 || h.Sum() < 0.01 {
		t.Fatalf("ObserveSince: count=%d sum=%v", h.Count(), h.Sum())
	}
}
