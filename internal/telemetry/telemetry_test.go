package telemetry

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"neutronsim/internal/telemetry/promcheck"
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
	// Buckets are upper-inclusive: 1 in (1/2, 1], 2 in (1, 2], 3 and 4 in
	// (2, 4], 5 to 8 in (4, 8].
	for idx, want := range map[int]int64{32: 1, 33: 1, 34: 2, 35: 4} {
		if got := h.buckets[idx].Load(); got != want*perWorker {
			t.Errorf("bucket %d = %d, want %d", idx, got, want*perWorker)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		want int
	}{
		{-1, 0}, {0, 0}, {math.NaN(), 0}, {1, 32}, {1.5, 33}, {2, 33}, {0.5, 31},
		{math.Ldexp(1, histMinExp), 0}, {math.Ldexp(1, 30), histBuckets - 2},
		{math.Nextafter(math.Ldexp(1, 30), math.Inf(1)), histBuckets - 1},
		{math.MaxFloat64, histBuckets - 1}, {math.Inf(1), histBuckets - 1},
	} {
		if got := bucketIndex(tc.v); got != tc.want {
			t.Errorf("bucketIndex(%g) = %d, want %d", tc.v, got, tc.want)
		}
	}
}

func TestProgressReporter(t *testing.T) {
	var buf bytes.Buffer
	EnableProgress(&buf, 0)
	defer DisableProgress()
	ReportProgress(context.Background(), ProgressUpdate{
		Component: "beam", Device: "K20", Beam: "ROTAX",
		Done: 50, Total: 100, Fluence: 1.5e9, Events: 7,
		Elapsed: 10 * time.Second,
	})
	ReportProgress(context.Background(), ProgressUpdate{Component: "beam", Device: "K20", Beam: "ROTAX", Done: 100, Total: 100, Events: 11})
	DisableProgress()
	ReportProgress(context.Background(), ProgressUpdate{Component: "beam", Events: 99}) // dropped
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
		ReportProgress(context.Background(), ProgressUpdate{Component: "sweep", Done: float64(i), Total: 20})
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
		{"/metrics", "hits_total 3\n"},
		{"/debug/vars", `"memstats"`},
		{"/debug/traces", `"traces"`},
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
	out := filepath.Join(t.TempDir(), "m.prom")
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
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := promcheck.Validate(bytes.NewReader(data)); err != nil {
		t.Fatalf("-metrics-out failed validation: %v\n%s", err, data)
	}
	const sample = "\ncli_test_counter_total "
	i := bytes.Index(data, []byte(sample))
	if i < 0 {
		t.Fatalf("-metrics-out lacks the counter:\n%s", data)
	}
	var n int64
	if _, err := fmt.Sscan(string(data[i+len(sample):]), &n); err != nil || n < 5 {
		t.Errorf("-metrics-out counter = %d (%v), want >= 5", n, err)
	}
}
