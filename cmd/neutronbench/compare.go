package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"neutronsim/internal/stats"
)

// benchSpec is the part of BENCHMARK.json compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compare prints, for every end-to-end metric and workload with untraced
// run records on both sides, each side's median and quartiles and a
// verdict against the metric's bound in BENCHMARK.json.
func compare(args []string, root string, w io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("bench", filepath.Join(root, "BENCHMARK.json"), "benchmark declaration with the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: neutronbench compare [-bench BENCHMARK.json] OLD_RUNS NEW_RUNS")
	}
	data, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", *specPath, err)
	}
	old, err := loadRecords(fs.Arg(0))
	if err != nil {
		return err
	}
	cur, err := loadRecords(fs.Arg(1))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-15s %-16s %-30s %-30s %8s %6s  %s\n", "workload", "metric", "old median [q1, q3]", "new median [q1, q3]", "change", "wins", "verdict")
	for _, wl := range sortedKeys(old) {
		if cur[wl] == nil {
			continue
		}
		for _, m := range spec.EndToEnd {
			ov, cv := values(old[wl], m.Name), values(cur[wl], m.Name)
			if len(ov) == 0 || len(cv) == 0 {
				continue
			}
			lower := m.Better == "lower"
			v := judge(ov, cv, lower, m.Bound)
			fmt.Fprintf(w, "%-15s %-16s %-30s %-30s %+7.1f%% %6s  %s\n", wl, m.Name, quartiles(ov), quartiles(cv),
				100*(stats.Median(cv)/stats.Median(ov)-1), fmt.Sprintf("%d/%d", v.wins, v.pairs), v.verdict)
		}
	}
	return nil
}

// loadRecords reads the untraced run records in dir by workload, each
// workload's ordered by seed so that pairs line up across two sets run
// with the same seeds.
func loadRecords(dir string) (map[string][]*record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]*record{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rec record
		if json.Unmarshal(data, &rec) != nil || rec.Schema != recordSchema || rec.Trace {
			continue // span files and traced runs
		}
		out[rec.Workload] = append(out[rec.Workload], &rec)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no untraced run records in %s", dir)
	}
	for _, recs := range out {
		sort.Slice(recs, func(i, j int) bool { return recs[i].Seed < recs[j].Seed })
	}
	return out, nil
}

func values(recs []*record, name string) []float64 {
	var xs []float64
	for _, r := range recs {
		if m, ok := r.Result.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

func quartiles(xs []float64) string {
	return fmt.Sprintf("%s [%s, %s]", fmtNum(stats.Quantile(xs, 0.5)), fmtNum(stats.Quantile(xs, 0.25)), fmtNum(stats.Quantile(xs, 0.75)))
}

// outcome is compare's judgement of one metric on one workload.
type outcome struct {
	verdict     string
	wins, pairs int
}

// judge applies the benchmark's rules. The spread of a side is its
// interquartile distance over its median; a side spread wider than the
// bound leaves the metric unresolved, unless every new run beats every
// old one. Otherwise a median worse by more than the bound is a
// regression, and a gain needs the new run to win at least nine in ten
// pairs and the medians to differ by more than the old side's
// interquartile distance.
func judge(old, cur []float64, lower bool, bound float64) outcome {
	better := func(a, b float64) bool {
		if lower {
			return a < b
		}
		return a > b
	}
	o := outcome{pairs: min(len(old), len(cur))}
	for i := 0; i < o.pairs; i++ {
		if better(cur[i], old[i]) {
			o.wins++
		}
	}
	mo, mc := stats.Quantile(old, 0.5), stats.Quantile(cur, 0.5)
	iqrOld := stats.Quantile(old, 0.75) - stats.Quantile(old, 0.25)
	iqrCur := stats.Quantile(cur, 0.75) - stats.Quantile(cur, 0.25)
	allBetter := true
	for _, c := range cur {
		for _, x := range old {
			if !better(c, x) {
				allBetter = false
			}
		}
	}
	worse := (mc - mo) / math.Abs(mo)
	if !lower {
		worse = -worse
	}
	switch {
	case iqrOld/math.Abs(mo) > bound || iqrCur/math.Abs(mc) > bound:
		if allBetter {
			o.verdict = "improved"
		} else {
			o.verdict = "unresolved"
		}
	case worse > bound:
		o.verdict = "regressed"
	case float64(o.wins) >= 0.9*float64(o.pairs) && math.Abs(mc-mo) > iqrOld && better(mc, mo):
		o.verdict = "improved"
	default:
		o.verdict = "no change"
	}
	return o
}
