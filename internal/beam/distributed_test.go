package beam

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"neutronsim/internal/device"
	"neutronsim/internal/plan"
	"neutronsim/internal/spectrum"
	"neutronsim/internal/stats"
)

// rangeCfg is a small multi-shard campaign: 2000 runs over grain 64 gives
// a 32-shard plan cheap enough for the unit suite.
func rangeCfg(t testing.TB, bias *plan.Bias) Config {
	t.Helper()
	var zynq *device.Device
	for _, d := range device.All() {
		if d.Name == "Zynq7000" {
			zynq = d
		}
	}
	if zynq == nil {
		t.Fatal("Zynq7000 not in catalog")
	}
	return Config{
		Device:          zynq,
		WorkloadName:    "MxM",
		Beam:            spectrum.ROTAX(),
		DurationSeconds: 20,
		RunSeconds:      0.01,
		Seed:            42,
		CalSamples:      2000,
		ShardGrain:      64,
		Bias:            bias,
	}
}

// roundTrip pushes a Partial through its JSON wire form, as the cluster
// protocol does, to prove the encoding is lossless.
func roundTrip(t testing.TB, p *Partial) *Partial {
	t.Helper()
	blob, err := json.Marshal(p)
	if err != nil {
		t.Fatalf("marshal partial: %v", err)
	}
	out := &Partial{}
	if err := json.Unmarshal(blob, out); err != nil {
		t.Fatalf("unmarshal partial: %v", err)
	}
	return out
}

// TestAssemblePartialsBitIdentical is the library-level distributed
// conformance gate: executing a campaign as shard ranges — in any
// partition, serialized over the wire — assembles to a Result DeepEqual
// to the single-node run. Covers the exact path (Zynq7000 carries
// persistent FPGA faults, the stateful case) and the biased path (Kahan
// compensation must survive the wire).
func TestAssemblePartialsBitIdentical(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		bias *plan.Bias
	}{
		{"exact", nil},
		{"biased", &plan.Bias{Thermal: 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := rangeCfg(t, tc.bias)
			direct, err := RunContext(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			info, err := PlanInfo(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if info.Shards < 4 {
				t.Fatalf("want a multi-shard plan, got %d shards", info.Shards)
			}
			for _, cuts := range [][]int{
				{0, info.Shards},
				{0, 1, info.Shards / 3, info.Shards - 1, info.Shards},
			} {
				var partials []*Partial
				for i := 0; i+1 < len(cuts); i++ {
					p, err := RunRange(ctx, cfg, cuts[i], cuts[i+1])
					if err != nil {
						t.Fatal(err)
					}
					partials = append(partials, roundTrip(t, p))
				}
				got, err := AssemblePartials(ctx, cfg, partials)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, direct) {
					t.Errorf("cuts %v: assembled result diverged from single-node run\n got: %+v\nwant: %+v", cuts, got, direct)
				}
			}
		})
	}
}

// TestMaxTallyJSON encodes a biased shard tally with every number at its
// longest: int64 counts at math.MinInt64, and weighted sums at a float64
// encoding/json writes with 17 significant digits in fixed notation.
func TestMaxTallyJSON(t *testing.T) {
	const n, f = math.MinInt64, -1.2345678901234567e-6
	w := stats.Weighted{N: n, SumW: f, SumW2: f, CW: f, CW2: f}
	tally := shardTally{SDC: n, DUE: n, Masked: n, Upsets: n, Reprograms: n, Interactions: n,
		Weighted: &weightedShardTally{Draws: w, SDC: w, DUE: w, Masked: w}}
	for b := range tally.ByBand {
		tally.ByBand[b] = n
		tally.Weighted.UpsetsByBand[b] = w
		tally.Weighted.DUEByBand[b] = w
	}
	blob, err := json.Marshal(tally)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"sum_w":-0.0000012345678901234567,`) {
		t.Fatalf("the weighted sums are not at their longest encoding: %s", blob)
	}
	if len(blob)+1 > MaxTallyJSON {
		t.Errorf("a tally and its comma encode to %d bytes, above MaxTallyJSON = %d", len(blob)+1, MaxTallyJSON)
	}
}

// TestAssemblePartialsRejectsBadCoverage pins the double-count and
// under-count protections — overlaps, gaps, truncated tallies and
// weighted/exact mismatches — and the per-shard conservation checks: a
// tally that breaks any of them is an error, never silently merged.
func TestAssemblePartialsRejectsBadCoverage(t *testing.T) {
	ctx := context.Background()
	cfg := rangeCfg(t, nil)
	info, err := PlanInfo(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mid := info.Shards / 2
	a, err := RunRange(ctx, cfg, 0, mid)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunRange(ctx, cfg, mid, info.Shards)
	if err != nil {
		t.Fatal(err)
	}
	overlap, err := RunRange(ctx, cfg, mid-1, info.Shards)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		ps   []*Partial
		want string
	}{
		{"gap", []*Partial{a}, "missing"},
		{"overlap", []*Partial{a, overlap}, "double-count"},
		{"duplicate", []*Partial{a, a, b}, "double-count"},
		{"nil", []*Partial{a, nil, b}, "nil partial"},
		{"empty", nil, "missing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := AssemblePartials(ctx, cfg, tc.ps); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
	t.Run("weighted-mismatch", func(t *testing.T) {
		trunc := *a
		trunc.Tallies = append([]shardTally(nil), a.Tallies...)
		trunc.Tallies[0].Weighted = &weightedShardTally{}
		if _, err := AssemblePartials(ctx, cfg, []*Partial{&trunc, b}); err == nil || !strings.Contains(err.Error(), "weighted") {
			t.Errorf("want weighted-mismatch error, got %v", err)
		}
	})
	t.Run("short-tallies", func(t *testing.T) {
		trunc := *a
		trunc.Tallies = a.Tallies[:len(a.Tallies)-1]
		if _, err := AssemblePartials(ctx, cfg, []*Partial{&trunc, b}); err == nil || !strings.Contains(err.Error(), "carries") {
			t.Errorf("want tally-count error, got %v", err)
		}
	})

	// Conservation checks: each case breaks exactly one law of the run
	// loop in one shard tally of an otherwise valid partial.
	rejects := func(t *testing.T, cfg Config, ps []*Partial, want string) {
		t.Helper()
		if _, err := AssemblePartials(ctx, cfg, ps); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("want error containing %q, got %v", want, err)
		}
	}
	for _, tc := range tallyTampers {
		t.Run(tc.name, func(t *testing.T) {
			bad := roundTrip(t, a)
			tc.tamper(&bad.Tallies[0])
			rejects(t, cfg, []*Partial{bad, b}, tc.want)
		})
	}
	t.Run("overflowing-total", func(t *testing.T) {
		// Each shard obeys every per-shard law; only their sum wraps.
		bad := roundTrip(t, a)
		for i := 0; i < 2; i++ {
			bad.Tallies[i].Interactions = wrapHalf
			bad.Tallies[i].Upsets = wrapHalf
			bad.Tallies[i].ByBand = [len(bad.Tallies[i].ByBand)]int64{1: wrapHalf}
		}
		rejects(t, cfg, []*Partial{bad, b}, "overflow")
	})
	t.Run("by-band-extra-entry", func(t *testing.T) {
		// A by_band array one entry too long decodes silently truncated;
		// the dropped upset then breaks Σby_band = upsets.
		bad := roundTrip(t, a)
		bad.Tallies[0].Upsets++
		blob, err := json.Marshal(bad)
		if err != nil {
			t.Fatal(err)
		}
		loc := regexp.MustCompile(`"by_band":\[[^\]]*`).FindIndex(blob)
		blob = append(blob[:loc[1]:loc[1]], append([]byte(",1"), blob[loc[1]:]...)...)
		bad = &Partial{}
		if err := json.Unmarshal(blob, bad); err != nil {
			t.Fatal(err)
		}
		rejects(t, cfg, []*Partial{bad, b}, "by_band does not sum")
	})

	bcfg := rangeCfg(t, &plan.Bias{Thermal: 8})
	ba, err := RunRange(ctx, bcfg, 0, mid)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := RunRange(ctx, bcfg, mid, info.Shards)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range weightedTampers {
		t.Run(tc.name, func(t *testing.T) {
			bad := roundTrip(t, ba)
			tc.tamper(bad.Tallies[0].Weighted)
			rejects(t, bcfg, []*Partial{bad, bb}, tc.want)
		})
	}
	// The untampered biased partials assemble: the checks above reject
	// the tampering, not the biased wire form itself.
	if _, err := AssemblePartials(ctx, bcfg, []*Partial{roundTrip(t, ba), bb}); err != nil {
		t.Errorf("valid biased partials rejected: %v", err)
	}
}

// wrapHalf is 2^63 - 2^61: two shard counts of it wrap an int64 total to
// -2^62.
const wrapHalf = 6917529027641081856

// tallyTampers each break one law of the run loop in a shard tally.
var tallyTampers = []struct {
	name   string
	tamper func(*shardTally)
	want   string
}{
	{"negative-count", func(tl *shardTally) { tl.Reprograms = -1 }, "negative"},
	{"flipped-count", func(tl *shardTally) { tl.SDC++ }, "runs"},
	{"wrapped-count", func(tl *shardTally) { tl.SDC, tl.DUE = math.MaxInt64, math.MaxInt64; tl.Masked += 2 }, "runs"},
	{"by-band-zero", func(tl *shardTally) { tl.ByBand[0]++; tl.Upsets++ }, "by_band[0]"},
	{"by-band-sum", func(tl *shardTally) { tl.ByBand[1]++ }, "by_band does not sum"},
	{"upsets-exceed-interactions", func(tl *shardTally) { tl.Upsets, tl.ByBand[1] = wrapHalf, wrapHalf }, "exceed interactions"},
}

// weightedTampers each break one law of the weighted run loop in a
// biased shard tally.
var weightedTampers = []struct {
	name   string
	tamper func(*weightedShardTally)
	want   string
}{
	{"weighted-draws", func(w *weightedShardTally) { w.Draws.Add(1) }, "weighted draws"},
	{"weighted-sdc", func(w *weightedShardTally) { w.SDC.Add(1) }, "weighted sdc"},
	{"weighted-due", func(w *weightedShardTally) { w.DUE.Add(1) }, "weighted due"},
	{"weighted-masked", func(w *weightedShardTally) { w.Masked.N-- }, "weighted masked"},
	{"weighted-upsets-by-band", func(w *weightedShardTally) { w.UpsetsByBand[1].Add(1) }, "weighted upsets_by_band"},
	{"weighted-due-by-band", func(w *weightedShardTally) { w.DUEByBand[2].Add(1) }, "weighted due_by_band"},
	{"weighted-negative", func(w *weightedShardTally) { w.UpsetsByBand[1].N--; w.UpsetsByBand[2].N++ }, "negative"},
	{"non-finite", func(w *weightedShardTally) { w.Masked.SumW = math.NaN() }, "non-finite"},
	{"non-finite-compensation", func(w *weightedShardTally) { w.Draws.CW2 = math.Inf(1) }, "non-finite"},
}

// FuzzAssemblePartials feeds AssemblePartials fuzzed JSON partial lists
// for rangeCfg, exact and biased: shard partials are untrusted input from
// peers. It must never panic, and a result it accepts must have
// non-negative counts with SDC+DUE+Masked equal to the campaign's runs.
// The corpus is seeded with valid splits, the coverage faults and the
// tampers of TestAssemblePartialsRejectsBadCoverage, and partials whose
// shard counts wrap an int64 total.
func FuzzAssemblePartials(f *testing.F) {
	ctx := context.Background()
	cfgs := map[bool]Config{false: rangeCfg(f, nil), true: rangeCfg(f, &plan.Bias{Thermal: 8})}
	add := func(biased bool, ps ...*Partial) {
		// NaN and ±Inf have no JSON form, so the non-finite tampers
		// cannot arrive over the wire; they are the only ones left out.
		if blob, err := json.Marshal(ps); err == nil {
			f.Add(biased, blob)
		}
	}
	for _, biased := range []bool{false, true} {
		cfg := cfgs[biased]
		info, err := PlanInfo(ctx, cfg)
		if err != nil {
			f.Fatal(err)
		}
		mid := info.Shards / 2
		split := func(lo, hi int) *Partial {
			p, err := RunRange(ctx, cfg, lo, hi)
			if err != nil {
				f.Fatal(err)
			}
			return roundTrip(f, p)
		}
		a, b, overlap := split(0, mid), split(mid, info.Shards), split(mid-1, info.Shards)
		add(biased, a, b)
		add(biased, a)
		add(biased, a, overlap)
		add(biased, a, a, b)
		add(biased, a, nil, b)
		add(biased)
		for _, tc := range tallyTampers {
			bad := roundTrip(f, a)
			tc.tamper(&bad.Tallies[0])
			add(biased, bad, b)
		}
		if biased {
			for _, tc := range weightedTampers {
				bad := roundTrip(f, a)
				tc.tamper(bad.Tallies[0].Weighted)
				add(biased, bad, b)
			}
		}
		for _, interactions := range []int64{0, wrapHalf} {
			bad := roundTrip(f, a)
			for i := 0; i < 2; i++ {
				bad.Tallies[i].Upsets = wrapHalf
				bad.Tallies[i].ByBand = [len(bad.Tallies[i].ByBand)]int64{1: wrapHalf}
				bad.Tallies[i].Interactions += interactions
			}
			add(biased, bad, b)
		}
	}
	f.Fuzz(func(t *testing.T, biased bool, blob []byte) {
		var ps []*Partial
		if json.Unmarshal(blob, &ps) != nil {
			return
		}
		res, err := AssemblePartials(ctx, cfgs[biased], ps)
		if err != nil {
			return
		}
		counts := []int64{res.SDC, res.DUE, res.Masked, res.Upsets, res.Reprograms}
		for _, n := range res.FaultsByBand {
			counts = append(counts, n)
		}
		for _, n := range counts {
			if n < 0 {
				t.Fatalf("accepted partials assemble to a negative count: %+v", res)
			}
		}
		if res.SDC+res.DUE+res.Masked != int64(res.Runs) {
			t.Fatalf("sdc %d + due %d + masked %d ≠ runs %d", res.SDC, res.DUE, res.Masked, res.Runs)
		}
	})
}
