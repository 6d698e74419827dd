package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"neutronsim/internal/beam"
	"neutronsim/internal/cluster"
	"neutronsim/internal/core"
	"neutronsim/internal/device"
	"neutronsim/internal/plan"
	"neutronsim/internal/rng"
	"neutronsim/internal/server"
	"neutronsim/internal/spectrum"
	"neutronsim/internal/stats"
	"neutronsim/internal/surrogate"
	"neutronsim/internal/telemetry"
	"neutronsim/internal/workload"
)

// perLayer are the metrics a traced run reports. The request and job-path
// metrics come from the workload's own traced requests; the rest from
// the layer suite, which times direct calls into each layer's public
// functions the same way on every workload.
var perLayer = []metricDef{
	{"request.wall_p50_ms", "ms"},
	{"request.unattributed_share", "ratio"},
	{"http.floor_us", "us"},
	{"server.decode_us", "us"},
	{"server.normalize_us", "us"},
	{"server.cache_key_us", "us"},
	{"server.cache_get_us", "us"},
	{"server.encode_us", "us"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.queue_wait_ms", "ms"},
	{"server.job_compile_ms", "ms"},
	{"server.job_run_ms", "ms"},
	{"server.completion_gap_ms", "ms"},
	{"server.cache_put_us", "us"},
	{"surrogate.features_ns", "ns"},
	{"surrogate.predict_ns", "ns"},
	{"surrogate.served_ratio", "ratio"},
	{"xsection.exact_ms", "ms"},
	{"plan.compile_ms.exact", "ms"},
	{"plan.compile_ms.biased", "ms"},
	{"plan.lookup_ns", "ns"},
	{"plan.alias_draw_ns", "ns"},
	{"plan.hit_ratio", "ratio"},
	{"rng.uint64_ns", "ns"},
	{"rng.poisson_ns", "ns"},
	{"beam.campaign_ms.exact_chipir", "ms"},
	{"beam.campaign_ms.exact_rotax", "ms"},
	{"beam.campaign_ms.biased_chipir", "ms"},
	{"beam.campaign_ms.biased_rotax", "ms"},
	{"beam.ns_per_run.exact", "ns"},
	{"beam.ns_per_run.weighted", "ns"},
	{"beam.upsets_per_campaign", "count"},
	{"engine.shards_per_campaign", "count"},
	{"engine.speedup_2c", "x"},
	{"beam.record.engine_2000run_ms", "ms"},
	{"beam.record.single_thread_2000run_ms", "ms"},
	{"cluster.plan_info_ms", "ms"},
	{"cluster.range_exec_ms", "ms"},
	{"cluster.range_rtt_ms", "ms"},
	{"cluster.wire_ms", "ms"},
	{"cluster.wire_bytes", "bytes"},
	{"cluster.merge_us", "us"},
	{"cluster.ranges_remote_share", "ratio"},
	{"cluster.redispatch_total", "count"},
	{"cluster.compiles_per_campaign", "count"},
	{"workload.replay_ms.MxM", "ms"},
	{"workload.replay_ms.LUD", "ms"},
	{"workload.replay_ms.LavaMD", "ms"},
	{"workload.replay_ms.HotSpot", "ms"},
	{"workload.replay_ms.SC", "ms"},
	{"workload.replay_ms.CED", "ms"},
	{"workload.replay_ms.BFS", "ms"},
	{"workload.replay_ms.YOLO", "ms"},
	{"workload.replay_ms.MNIST", "ms"},
	{"faultinject.upsets_total", "count"},
	{"core.assess_s.K20", "s"},
	{"core.assess_s.XeonPhi", "s"},
	{"core.assess_s.APU", "s"},
	{"core.assess_s.Zynq7000", "s"},
	{"core.unattributed_s", "s"},
}

// suiteSeed seeds every suite call, so the suite does the same work on
// every run and workload.
const suiteSeed = 7

// suiteReq labels the suite's spans in the span file.
const suiteReq = "suite"

// suite times direct calls into one layer after another. Its spans have
// no parent; each covers one call, or one batch of calls for operations
// too short to time one by one.
type suite struct {
	ctx context.Context
	sp  *spans
	s   *sut
	v   map[string]float64
}

// layerSuite runs every layer's timings into v.
func layerSuite(ctx context.Context, sp *spans, s *sut, v map[string]float64) error {
	l := &suite{ctx: ctx, sp: sp, s: s, v: v}
	for _, step := range []func() error{l.surrogate, l.plan, l.rng, l.beam, l.records, l.cluster, l.workloads, l.core} {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// ms runs fn reps times, each as a span, and returns the median in ms.
func (l *suite) ms(name string, reps int, fn func() error) (float64, error) {
	var xs []float64
	for i := 0; i < reps; i++ {
		var err error
		d := l.sp.time(name, 0, suiteReq, func() { err = fn() })
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		xs = append(xs, float64(d.Nanoseconds())/1e6)
	}
	return stats.Median(xs), nil
}

// ns times n calls of a short operation as one span and returns ns per
// call.
func (l *suite) ns(name string, n int, fn func(n int)) float64 {
	d := l.sp.time(name, 0, suiteReq, func() { fn(n) })
	return float64(d.Nanoseconds()) / float64(n)
}

// sink keeps the compiler from dropping calls whose results are unused.
var sink float64

func (l *suite) surrogate() error {
	// The suite's model is trained on the stock grid at a smaller budget:
	// prediction cost depends on the model's shape, not on its data.
	grid := surrogate.DefaultGrid()
	grid.Samples = 5000
	ds, err := surrogate.EvaluateGrid(grid)
	if err != nil {
		return err
	}
	m, err := surrogate.Train(ds, surrogate.TrainConfig{})
	if err != nil {
		return err
	}
	gen := cluster.XsectionCampaign(0.1)
	reqs := make([]*server.CampaignRequest, latticePoints)
	specs := make([]spectrum.Spectrum, latticePoints)
	feats := make([][]float64, latticePoints)
	for k := range reqs {
		reqs[k] = gen(k)
		if specs[k], err = server.SpectrumByName(reqs[k].Xsection.Spectrum); err != nil {
			return err
		}
		x := reqs[k].Xsection
		feats[k] = surrogate.FeatureVector(x.BoronPerCm2, x.QcritFC, specs[k], plan.Bias{})
	}
	l.v["surrogate.features_ns"] = l.ns("surrogate.features", 20000, func(n int) {
		for i := 0; i < n; i++ {
			x := reqs[i%latticePoints].Xsection
			sink += surrogate.FeatureVector(x.BoronPerCm2, x.QcritFC, specs[i%latticePoints], plan.Bias{})[0]
		}
	})
	l.v["surrogate.predict_ns"] = l.ns("surrogate.predict", 20000, func(n int) {
		for i := 0; i < n; i++ {
			if f := feats[i%latticePoints]; m.Hull.Contains(f) {
				sink += m.PredictSigma(f)
			}
		}
	})
	n, err := reqs[1].Normalize()
	if err != nil {
		return err
	}
	l.v["xsection.exact_ms"], err = l.ms("xsection.exact", 5, func() error {
		_, err := server.Execute(l.ctx, n, 0)
		return err
	})
	return err
}

func (l *suite) plan() error {
	d, chip := device.K20(), spectrum.ChipIR()
	var err error
	if l.v["plan.compile_ms.exact"], err = l.ms("plan.compile.exact", 5, func() error {
		plan.Compile(d, chip, 20000, plan.CalibrationStream(suiteSeed))
		return nil
	}); err != nil {
		return err
	}
	if l.v["plan.compile_ms.biased"], err = l.ms("plan.compile.biased", 5, func() error {
		_, err := plan.CompileBiased(d, chip, 20000, plan.CalibrationStream(suiteSeed), plan.Bias{Thermal: 10})
		return err
	}); err != nil {
		return err
	}
	cache := plan.NewCache(4, telemetry.NewRegistry())
	pl := cache.For(d, chip, 20000, suiteSeed)
	l.v["plan.lookup_ns"] = l.ns("plan.lookup", 20000, func(n int) {
		for i := 0; i < n; i++ {
			sink += cache.For(d, chip, 20000, suiteSeed).MeanP()
		}
	})
	sampler, s := pl.Sampler(), rng.New(suiteSeed)
	l.v["plan.alias_draw_ns"] = l.ns("plan.alias_draw", 1_000_000, func(n int) {
		for i := 0; i < n; i++ {
			sink += float64(sampler.Sample(s))
		}
	})
	return nil
}

func (l *suite) rng() error {
	s := rng.New(suiteSeed)
	l.v["rng.uint64_ns"] = l.ns("rng.uint64", 5_000_000, func(n int) {
		var acc uint64
		for i := 0; i < n; i++ {
			acc ^= s.Uint64()
		}
		sink += float64(acc & 1)
	})
	l.v["rng.poisson_ns"] = l.ns("rng.poisson", 1_000_000, func(n int) {
		var acc int64
		for i := 0; i < n; i++ {
			acc += s.Poisson(2)
		}
		sink += float64(acc)
	})
	return nil
}

// beamVariantNames name beamVariants in order.
var beamVariantNames = []string{"exact_chipir", "exact_rotax", "biased_chipir", "biased_rotax"}

// beamConfig resolves req exactly as neutrond's job path does.
func beamConfig(req *server.CampaignRequest, shards int) (*server.CampaignRequest, beam.Config, error) {
	n, err := req.Normalize()
	if err != nil {
		return nil, beam.Config{}, err
	}
	cfg, err := server.BeamConfig(n, shards)
	return n, cfg, err
}

// beam times the beam workloads' four campaign variants on a warm plan.
func (l *suite) beam() error {
	var exact, weighted []float64
	var upsets int64
	runs := 0
	for i, mk := range beamVariants() {
		_, cfg, err := beamConfig(mk(suiteSeed), 0)
		if err != nil {
			return err
		}
		res, err := beam.RunContext(l.ctx, cfg) // compiles the plan
		if err != nil {
			return err
		}
		upsets += res.Upsets
		runs = res.Runs
		ms, err := l.ms("beam.campaign."+beamVariantNames[i], 5, func() error {
			_, err := beam.RunContext(l.ctx, cfg)
			return err
		})
		if err != nil {
			return err
		}
		l.v["beam.campaign_ms."+beamVariantNames[i]] = ms
		if cfg.Bias == nil {
			exact = append(exact, ms)
		} else {
			weighted = append(weighted, ms)
		}
	}
	l.v["beam.ns_per_run.exact"] = stats.Mean(exact) * 1e6 / float64(runs)
	l.v["beam.ns_per_run.weighted"] = stats.Mean(weighted) * 1e6 / float64(runs)
	l.v["beam.upsets_per_campaign"] = float64(upsets) / float64(len(beamVariantNames))

	_, cfg, err := beamConfig(beamVariants()[0](suiteSeed), 0)
	if err != nil {
		return err
	}
	info, err := beam.PlanInfo(l.ctx, cfg)
	if err != nil {
		return err
	}
	l.v["engine.shards_per_campaign"] = float64(info.Shards)
	// Alternate the two shard counts so a change in host speed between
	// them cannot pose as a speed-up.
	var ratios []float64
	for i := 0; i < 5; i++ {
		var ms [2]float64
		for j, shards := range []int{1, 2} {
			cfg.Shards = shards
			if ms[j], err = l.ms(fmt.Sprintf("engine.campaign.%dshard", shards), 1, func() error {
				_, err := beam.RunContext(l.ctx, cfg)
				return err
			}); err != nil {
				return err
			}
		}
		ratios = append(ratios, ms[0]/ms[1])
	}
	l.v["engine.speedup_2c"] = stats.Median(ratios)
	return nil
}

// records times the two 2000-run campaigns behind the repository's two
// recorded single-CPU numbers, at GOMAXPROCS=1 and on warm plans.
func (l *suite) records() error {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	// internal/engine's scaling benchmark: a boosted K20 (sensitive
	// fraction 0.2) at 2000 calibration samples and grain 64.
	boosted := device.K20()
	boosted.SensitiveFraction = 0.2
	engineCfg := beam.Config{Device: boosted, WorkloadName: "MxM", Beam: spectrum.ChipIR(),
		DurationSeconds: 2000, RunSeconds: 1, Seed: 7, CalSamples: 2000, Shards: 1, ShardGrain: 64}
	// internal/beam's BenchmarkCampaignSingleThread: the stock K20 at
	// 120,000 calibration samples in one shard.
	singleCfg := beam.Config{Device: device.K20(), WorkloadName: "MxM", Beam: spectrum.ChipIR(),
		DurationSeconds: 2000, RunSeconds: 1, Seed: 7, CalSamples: 120000, Shards: 1}
	for name, cfg := range map[string]beam.Config{"engine_2000run": engineCfg, "single_thread_2000run": singleCfg} {
		if _, err := beam.RunContext(l.ctx, cfg); err != nil {
			return err
		}
		ms, err := l.ms("beam.record."+name, 5, func() error {
			_, err := beam.RunContext(l.ctx, cfg)
			return err
		})
		if err != nil {
			return err
		}
		l.v["beam.record."+name+"_ms"] = ms
	}
	return nil
}

// clusterRange is the shard range the cluster suite ships: two shards,
// the range a coordinator with two workers cuts a 10-shard plan into.
const clusterRange = 2

// cluster times the fan-out pieces: plan info (a cold compile, as every
// node pays it), one range executed here and over the wire on a node of
// the topology, and the merge of a whole plan's partials.
func (l *suite) cluster() error {
	mk := beamVariants()[0]
	var infoMs []float64
	var n *server.CampaignRequest
	var cfg beam.Config
	for j := uint64(0); j < 3; j++ {
		var err error
		if n, cfg, err = beamConfig(mk(mix(suiteSeed, 6, j)), 0); err != nil {
			return err
		}
		ms, err := l.ms("cluster.plan_info", 1, func() error {
			_, err := beam.PlanInfo(l.ctx, cfg)
			return err
		})
		if err != nil {
			return err
		}
		infoMs = append(infoMs, ms)
	}
	l.v["cluster.plan_info_ms"] = stats.Median(infoMs)
	var p *beam.Partial
	exec, err := l.ms("cluster.range_exec", 5, func() error {
		var err error
		p, err = beam.RunRange(l.ctx, cfg, 0, clusterRange)
		return err
	})
	if err != nil {
		return err
	}
	peer := l.s.nodes[len(l.s.nodes)-1].url
	cc := cluster.NewClient(nil)
	if _, err := cc.RunShardRange(l.ctx, peer, n, 0, clusterRange); err != nil { // compiles on the peer
		return err
	}
	rtt, err := l.ms("cluster.range_rtt", 5, func() error {
		_, err := cc.RunShardRange(l.ctx, peer, n, 0, clusterRange)
		return err
	})
	if err != nil {
		return err
	}
	l.v["cluster.range_exec_ms"], l.v["cluster.range_rtt_ms"], l.v["cluster.wire_ms"] = exec, rtt, rtt-exec
	reqBytes, err := json.Marshal(server.ShardRequest{Campaign: n, Lo: 0, Hi: clusterRange})
	if err != nil {
		return err
	}
	respBytes, err := json.Marshal(server.ShardResponse{Partial: p})
	if err != nil {
		return err
	}
	l.v["cluster.wire_bytes"] = float64(len(reqBytes) + len(respBytes))
	info, err := beam.PlanInfo(l.ctx, cfg)
	if err != nil {
		return err
	}
	var partials []*beam.Partial
	for lo := 0; lo < info.Shards; lo += clusterRange {
		part, err := beam.RunRange(l.ctx, cfg, lo, min(lo+clusterRange, info.Shards))
		if err != nil {
			return err
		}
		partials = append(partials, part)
	}
	merge, err := l.ms("cluster.merge", 5, func() error {
		_, err := beam.AssemblePartials(l.ctx, cfg, partials)
		return err
	})
	l.v["cluster.merge_us"] = merge * 1e3
	return err
}

// workloads times one fault-free replay of each kernel: workload.New,
// Reset and every Step, the unit of work behind each data-fault upset.
func (l *suite) workloads() error {
	for _, name := range workload.Names() {
		var xs []float64
		start := time.Now()
		for len(xs) < 5 || (len(xs) < 200 && time.Since(start) < 50*time.Millisecond) {
			var err error
			d := l.sp.time("workload.replay."+name, 0, suiteReq, func() {
				var w workload.Workload
				if w, err = workload.New(name); err != nil {
					return
				}
				w.Reset(suiteSeed)
				for i := 0; i < w.Steps() && err == nil; i++ {
					err = w.Step(i)
				}
			})
			if err != nil {
				return fmt.Errorf("replay %s: %w", name, err)
			}
			xs = append(xs, float64(d.Nanoseconds())/1e6)
		}
		l.v["workload.replay_ms."+name] = stats.Median(xs)
	}
	return nil
}

// assessKeys name assessDevices in metric names, which allow no "+".
var assessKeys = []string{"K20", "XeonPhi", "APU", "Zynq7000"}

// assessBoost is the quick budget's sensitive-fraction boost, which the
// assess workload's requests leave at its default.
const assessBoost = 50

// coreReps is how many times the suite times each assessment and,
// right after it, each of its campaigns.
const coreReps = 3

// core times the assess workload's four assessments directly, each
// followed by its beam campaigns on their own, configured as
// core.AssessContext configures them. What an assessment spends outside
// its campaigns is core's own time; timing both in the same repetition
// and taking the median difference keeps a change in host speed between
// them out of it.
func (l *suite) core() error {
	var upsets int64
	var unattributed float64
	for i, ad := range assessDevices {
		dev, err := server.DeviceByName(ad.device)
		if err != nil {
			return err
		}
		dut := *dev
		dut.SensitiveFraction *= assessBoost
		var assessMs, outsideMs []float64
		for rep := 0; rep < coreReps; rep++ {
			var a *core.Assessment
			ms, err := l.ms("core.assess."+assessKeys[i], 1, func() error {
				var err error
				a, err = core.AssessContext(l.ctx, dev, ad.workloads,
					core.Budget{FastSeconds: ad.fast, ThermalSeconds: ad.thermal, Boost: assessBoost}, suiteSeed)
				return err
			})
			if err != nil {
				return err
			}
			assessMs = append(assessMs, ms)
			outside := ms
			for j, wl := range a.Workloads {
				if rep == 0 {
					upsets += a.PerWorkload[wl].Fast.Upsets + a.PerWorkload[wl].Thermal.Upsets
				}
				for k, c := range []struct {
					beam    spectrum.Spectrum
					seconds float64
				}{{spectrum.ChipIR(), ad.fast}, {spectrum.ROTAX(), ad.thermal}} {
					cfg := beam.Config{Device: &dut, WorkloadName: wl, Beam: c.beam, DurationSeconds: c.seconds,
						Seed: suiteSeed + uint64(j)*2 + uint64(k)}
					ms, err := l.ms("core.campaign."+wl+"."+c.beam.Name(), 1, func() error {
						_, err := beam.RunContext(l.ctx, cfg)
						return err
					})
					if err != nil {
						return err
					}
					outside -= ms
				}
			}
			outsideMs = append(outsideMs, outside)
		}
		l.v["core.assess_s."+assessKeys[i]] = stats.Median(assessMs) / 1e3
		unattributed += stats.Median(outsideMs) / 1e3
	}
	l.v["faultinject.upsets_total"] = float64(upsets)
	l.v["core.unattributed_s"] = unattributed
	return nil
}
