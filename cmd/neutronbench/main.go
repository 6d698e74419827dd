// Command neutronbench is the repository's benchmark. It builds
// cmd/neutrond, starts it as real subprocesses (one node, or a
// coordinator with two workers), drives one workload against it from
// this process over at most two connections, checks every answer, and
// prints each metric by name with its unit. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
//
// Usage, from the repository root:
//
//	bash cmd/neutronbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//	bash cmd/neutronbench/run.sh compare OLD_RUNS NEW_RUNS
//
// --trace 0 measures the end-to-end metrics; --trace 1 replays a fixed
// sample of the workload with one client, times the benchmark's own calls
// into every layer, reports the per-layer metrics and writes the spans.
// Each run also writes a run record with a host block under
// .bench_build/runs. See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"neutronsim/internal/stats"
)

func main() {
	// An interrupt cancels the run, which then stops every neutrond it
	// started before exiting.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], ".", os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// metricDef is one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports: what a user of
// neutrond sees.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the run record written next to the spans: the result plus
// the host it ran on and the diagnostics the result line leaves out.
type record struct {
	Schema      string             `json:"schema"`
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Seconds     float64            `json:"seconds"`
	Trace       bool               `json:"trace"`
	Host        host               `json:"host"`
	Result      result             `json:"result"`
	Diagnostics map[string]float64 `json:"diagnostics"`
	Wrong       []string           `json:"wrong_answers,omitempty"`
	Errors      []string           `json:"errors,omitempty"`
}

const recordSchema = "neutronbench.run/v1"

// options are one run's settings.
type options struct {
	root     string // repository root
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string // run records and spans
	work     string // neutrond binary and workload inputs
}

func run(ctx context.Context, args []string, root string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		if err := compare(args[1:], root, stdout); err != nil {
			fmt.Fprintln(stderr, "neutronbench compare:", err)
			return 1
		}
		return 0
	}
	o, err := parseFlags(args, root, stderr)
	var w traffic
	if err == nil {
		w, err = newWorkload(o.workload, o.seed)
	}
	if err != nil {
		fmt.Fprintln(stderr, "neutronbench:", err)
		return 2
	}
	return execute(ctx, o, w, stdout, stderr)
}

// execute performs one run of w and prints its report, the result line
// last. It returns 1 when the run found wrong answers, after printing the
// result, and when it failed, without printing one.
func execute(ctx context.Context, o options, w traffic, stdout, stderr io.Writer) int {
	rec, err := bench(ctx, o, w, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "neutronbench:", err)
		return 1
	}
	if err := writeRecord(o, rec); err != nil {
		fmt.Fprintln(stderr, "neutronbench:", err)
		return 1
	}
	report(stdout, rec)
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintln(stderr, "neutronbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rec.Result.Correct {
		fmt.Fprintf(stderr, "neutronbench: %d wrong answers\n", len(rec.Wrong))
		return 1
	}
	return 0
}

func parseFlags(args []string, root string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("neutronbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{root: root}
	fs.StringVar(&o.workload, "workload", "", fmt.Sprintf("workload to run: one of %v", workloadNames))
	fs.Uint64Var(&o.seed, "seed", 1, "seed every request and check sample derives from")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the measurement window")
	traceFlag := fs.Int("trace", 0, "1 replays a fixed sample and reports the per-layer metrics instead")
	fs.StringVar(&o.out, "out", "", "directory for run records and spans (default .bench_build/runs)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case fs.NArg() > 0:
		return o, fmt.Errorf("unexpected arguments %v", fs.Args())
	case *traceFlag != 0 && *traceFlag != 1:
		return o, fmt.Errorf("--trace must be 0 or 1")
	case !(o.seconds > 0):
		return o, fmt.Errorf("--seconds must be positive")
	}
	o.trace = *traceFlag == 1
	if o.out == "" {
		o.out = filepath.Join(root, ".bench_build", "runs")
	}
	o.work = filepath.Join(root, ".bench_build", "work-"+o.workload)
	return o, nil
}

// bench performs one run of w and returns its record.
func bench(ctx context.Context, o options, w traffic, log io.Writer) (*record, error) {
	rec := &record{
		Schema: recordSchema, Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Host: collectHost(ctx, o.root), Diagnostics: map[string]float64{},
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "neutronbench: building cmd/neutrond\n")
	bin, err := buildNeutrond(ctx, o.root, o.work)
	if err != nil {
		return nil, err
	}
	frontArgs, err := w.prepare(ctx, o.work)
	if err != nil {
		return nil, fmt.Errorf("prepare %s: %w", o.workload, err)
	}
	fmt.Fprintf(log, "neutronbench: %s seed %d, %s s, trace %v\n", o.workload, o.seed, fmtNum(o.seconds), o.trace)
	var values map[string]float64
	var t *tally
	if o.trace {
		values, t, err = traced(ctx, o, w, bin, frontArgs, rec)
	} else {
		values, t, err = untraced(ctx, o, w, bin, frontArgs, rec)
	}
	if err != nil {
		return nil, err
	}
	if err := w.verify(ctx); err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	metrics, err := emit(values, defs)
	if err != nil {
		return nil, err
	}
	rec.Wrong = append(rec.Wrong, w.wrong()...)
	rec.Errors = t.errs
	rec.Result = result{Correct: len(rec.Wrong) == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}
	rec.Diagnostics["error_rate"] = float64(t.failed) / float64(t.attempted)
	rec.Diagnostics["wrong_answers"] = float64(len(rec.Wrong))
	rec.Host.finish()
	return rec, nil
}

// segments is how many times an untraced run sets the system up and
// measures it: each set-up is timed, then loaded for its share of the
// window, then stopped. Spreading the set-ups over the run samples the
// host's speed at several moments; setup_s is their median.
const segments = 10

// untraced runs the set-up and measurement segments.
func untraced(ctx context.Context, o options, w traffic, bin string, frontArgs []string, rec *record) (map[string]float64, *tally, error) {
	var setups, rss []float64
	t := newTally()
	window := time.Duration(o.seconds * float64(time.Second))
	for seg := 0; seg < segments; seg++ {
		start := time.Now()
		s, err := startSUT(bin, w.topology(), frontArgs...)
		if err != nil {
			return nil, nil, err
		}
		c := newClient(s.front(), w.clients())
		err = w.warmup(ctx, c, seg)
		if err == nil {
			setups = append(setups, time.Since(start).Seconds())
			next := func(cl, i int) call { return w.next(cl, seg<<24+i) }
			drive(ctx, t, c, w.clients(), window/segments, next, w.check)
			var mb float64
			mb, err = s.peakRSSMB()
			rss = append(rss, mb)
		}
		c.close()
		if stopErr := s.stop(); err == nil && stopErr != nil {
			err = fmt.Errorf("stop: %w", stopErr)
		}
		if err != nil {
			return nil, nil, err
		}
	}
	n := len(t.latMs)
	if n == 0 {
		return nil, nil, fmt.Errorf("no successful requests in the window (%d failed): %v", t.failed, t.errs)
	}
	fast, fastSeconds := fastStretch(t)
	v := map[string]float64{
		"setup_s":        stats.Median(setups),
		"throughput_rps": float64(len(fast)) / fastSeconds,
		"latency_p50_ms": percentile(fast, 0.50),
		"latency_p90_ms": percentile(fast, 0.90),
		"peak_rss_mb":    stats.Median(rss),
	}
	d := rec.Diagnostics
	d["fast.seconds"] = fastSeconds
	d["fast.samples"] = float64(len(fast))
	d["fast.latency_p90_supported"] = boolNum(supported(len(fast), 0.90))
	d["window.throughput_rps"] = float64(n) / window.Seconds()
	d["window.samples"] = float64(n)
	d["window.latency_p50_ms"] = percentile(t.latMs, 0.50)
	d["window.latency_p90_ms"] = percentile(t.latMs, 0.90)
	d["window.latency_p99_ms"] = percentile(t.latMs, 0.99)
	d["window.latency_p99_supported"] = boolNum(supported(n, 0.99))
	for i := range setups {
		d[fmt.Sprintf("segment.%d.setup_s", i)] = setups[i]
		d[fmt.Sprintf("segment.%d.peak_rss_mb", i)] = rss[i]
	}
	for _, tier := range sortedKeys(t.tierMs) {
		d["tier."+tier+".requests"] = float64(len(t.tierMs[tier]))
		d["tier."+tier+".p50_ms"] = percentile(t.tierMs[tier], 0.50)
	}
	return v, t, nil
}

// emit checks that values holds every declared metric as a finite number
// and attaches the units.
func emit(values map[string]float64, defs []metricDef) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}

func writeRecord(o options, rec *record) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.out, recordName(o)+".json"), append(data, '\n'), 0o644)
}

func recordName(o options) string {
	return fmt.Sprintf("%s-seed%d-trace%v", o.workload, o.seed, boolNum(o.trace))
}

// report prints the metrics and diagnostics for a reader.
func report(w io.Writer, rec *record) {
	fmt.Fprintf(w, "%s seed %d on %d CPUs (%s), load %s -> %s, %.1f%% of CPU time stolen\n", rec.Workload, rec.Seed,
		rec.Host.NumCPU, rec.Host.CPUModel, rec.Host.LoadAvgStart, rec.Host.LoadAvgEnd, 100*rec.Host.StealShare)
	for _, name := range sortedKeys(rec.Result.Metrics) {
		m := rec.Result.Metrics[name]
		fmt.Fprintf(w, "  %-40s %14s %s\n", name, fmtNum(m.Value), m.Unit)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d, wrong answers %d\n", rec.Result.Attempted, rec.Result.Failed, len(rec.Wrong))
	for _, name := range sortedKeys(rec.Diagnostics) {
		fmt.Fprintf(w, "  diagnostic %-34s %14s\n", name, fmtNum(rec.Diagnostics[name]))
	}
	for _, s := range rec.Wrong {
		fmt.Fprintf(w, "  WRONG: %s\n", s)
	}
	for _, s := range rec.Errors {
		fmt.Fprintf(w, "  error: %s\n", s)
	}
}

func fmtNum(x float64) string { return fmt.Sprintf("%.6g", x) }

func boolNum(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
