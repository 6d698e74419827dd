package telemetry

import (
	"bytes"
	"context"
	"flag"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 16, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("hits")
			g := r.Gauge("level")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("level").Value(); got != 0 {
		t.Errorf("gauge = %g, want 0 after balanced adds", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := r.Histogram("lat")
			for i := 0; i < perWorker; i++ {
				h.Observe(float64(w + 1))
			}
		}(w)
	}
	wg.Wait()
	h := r.Histogram("lat")
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("count = %d, want %d", got, workers*perWorker)
	}
	wantSum := float64(perWorker) * (1 + 2 + 3 + 4 + 5 + 6 + 7 + 8)
	if math.Abs(h.Sum()-wantSum) > 1e-6 {
		t.Errorf("sum = %g, want %g", h.Sum(), wantSum)
	}
	if min, max := h.Quantile(0), h.Quantile(1); min != 1 || max != 8 {
		t.Errorf("min/max = %g/%g, want 1/8", min, max)
	}
	if p50 := h.Quantile(0.5); p50 < 1 || p50 > 8 {
		t.Errorf("p50 = %g out of observed range", p50)
	}
}

func TestHistogramBuckets(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		want int
	}{
		{-1, 0}, {0, 0}, {math.NaN(), 0}, {1, 33}, {1.5, 33}, {2, 34}, {0.5, 32},
		{math.MaxFloat64, histBuckets - 1},
	} {
		if got := bucketIndex(tc.v); got != tc.want {
			t.Errorf("bucketIndex(%g) = %d, want %d", tc.v, got, tc.want)
		}
	}
}

func TestSpanNesting(t *testing.T) {
	r := NewRegistry()
	ctx, outer := r.StartSpan(context.Background(), "outer")
	for i := 0; i < 3; i++ {
		_, inner := r.StartSpan(ctx, "inner")
		time.Sleep(time.Millisecond)
		inner.End()
	}
	outer.End()
	outer.End() // idempotent
	s := r.Snapshot()
	in, ok := s.Spans["outer/inner"]
	if !ok {
		t.Fatalf("missing hierarchical span path, have %v", sortedKeys(s.Spans))
	}
	if in.Count != 3 {
		t.Errorf("inner count = %d, want 3", in.Count)
	}
	out, ok := s.Spans["outer"]
	if !ok || out.Count != 1 {
		t.Fatalf("outer span = %+v, want count 1", out)
	}
	if out.TotalSec < in.TotalSec {
		t.Errorf("outer total %g < sum of inner %g", out.TotalSec, in.TotalSec)
	}
	if in.MinSec <= 0 || in.MaxSec < in.MinSec || in.MeanSec*float64(in.Count) > in.TotalSec*1.0001 {
		t.Errorf("inconsistent rollup %+v", in)
	}
}

func TestSpanConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_, sp := r.StartSpan(context.Background(), "work")
				sp.End()
			}
		}()
	}
	wg.Wait()
	if got := r.Snapshot().Spans["work"].Count; got != 8*200 {
		t.Errorf("span count = %d, want %d", got, 8*200)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.SetProgram("test")
	r.Counter("beam.interactions").Add(42)
	r.Gauge("beam.samples_per_sec").Set(1234.5)
	r.Histogram("core.assess_seconds").Observe(0.25)
	_, sp := r.StartSpan(context.Background(), "beam.campaign")
	sp.End()

	path := filepath.Join(t.TempDir(), "snap.json")
	if err := r.WriteSnapshot(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != SchemaVersion || got.Program != "test" {
		t.Errorf("schema/program = %q/%q", got.Schema, got.Program)
	}
	if got.Counters["beam.interactions"] != 42 {
		t.Errorf("counter = %d, want 42", got.Counters["beam.interactions"])
	}
	if got.Gauges["beam.samples_per_sec"] != 1234.5 {
		t.Errorf("gauge = %g", got.Gauges["beam.samples_per_sec"])
	}
	h := got.Hists["core.assess_seconds"]
	if h.Count != 1 || h.Sum != 0.25 || h.Min != 0.25 || h.Max != 0.25 {
		t.Errorf("histogram snapshot = %+v", h)
	}
	if got.Spans["beam.campaign"].Count != 1 {
		t.Errorf("span snapshot = %+v", got.Spans["beam.campaign"])
	}
}

func TestReadSnapshotRejectsUnknownSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"schema":"other/v9"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(path); err == nil {
		t.Error("unknown schema accepted")
	}
}

func TestProgressReporter(t *testing.T) {
	var buf bytes.Buffer
	EnableProgress(&buf, 0)
	defer DisableProgress()
	ReportProgress(ProgressUpdate{
		Component: "beam", Device: "K20", Beam: "ROTAX",
		Done: 50, Total: 100, Fluence: 1.5e9, Events: 7,
		Elapsed: 10 * time.Second,
	})
	ReportProgress(ProgressUpdate{Component: "beam", Device: "K20", Beam: "ROTAX", Done: 100, Total: 100, Events: 11})
	DisableProgress()
	ReportProgress(ProgressUpdate{Component: "beam", Events: 99}) // dropped
	out := buf.String()
	for _, want := range []string{"beam K20 @ ROTAX", "50.0%", "fluence=1.5e+09", "events=7", "eta=10s", "done"} {
		if !strings.Contains(out, want) {
			t.Errorf("progress output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "events=99") {
		t.Error("disabled reporter still printed")
	}
}

func TestProgressThrottle(t *testing.T) {
	var buf bytes.Buffer
	EnableProgress(&buf, time.Hour)
	defer DisableProgress()
	for i := 1; i <= 10; i++ {
		ReportProgress(ProgressUpdate{Component: "sweep", Done: float64(i), Total: 20})
	}
	if got := strings.Count(buf.String(), "\n"); got != 1 {
		t.Errorf("throttled reporter printed %d lines, want 1:\n%s", got, buf.String())
	}
}

func TestServeEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits").Add(3)
	srv, addr, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	defer srv.Close()
	for _, tc := range []struct {
		path, want string
	}{
		{"/debug/vars", `"telemetry"`},
		{"/debug/telemetry", `"hits": 3`},
		{"/debug/pprof/cmdline", "telemetry.test"},
	} {
		resp, err := http.Get("http://" + addr + tc.path)
		if err != nil {
			t.Fatalf("GET %s: %v", tc.path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", tc.path, resp.StatusCode)
		}
		if !strings.Contains(string(body), tc.want) {
			t.Errorf("GET %s: body missing %q", tc.path, tc.want)
		}
	}
}

func TestCLILifecycle(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	cli := BindFlags(fs)
	out := filepath.Join(t.TempDir(), "m.json")
	if err := fs.Parse([]string{"-metrics-out", out, "-progress"}); err != nil {
		t.Fatal(err)
	}
	if err := cli.Start("telemetry-test"); err != nil {
		t.Fatal(err)
	}
	if progressSink.Load() == nil {
		t.Error("-progress did not enable the reporter")
	}
	Count("cli.test_counter", 5)
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cli.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if progressSink.Load() != nil {
		t.Error("Close left the progress reporter enabled")
	}
	s, err := ReadSnapshot(out)
	if err != nil {
		t.Fatal(err)
	}
	if s.Counters["cli.test_counter"] < 5 {
		t.Errorf("snapshot counter = %d, want >= 5", s.Counters["cli.test_counter"])
	}
	if s.Program != "telemetry-test" {
		t.Errorf("snapshot program = %q", s.Program)
	}
}
