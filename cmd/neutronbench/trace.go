package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"neutronsim/internal/plan"
	"neutronsim/internal/server"
	"neutronsim/internal/stats"
	"neutronsim/internal/surrogate"
	"neutronsim/internal/telemetry"
)

// spanRec is one timed call, one record of the span file. Start and End
// are nanoseconds since the traced run began; spans of one traced request
// share Request.
type spanRec struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
	Parent  int    `json:"parent,omitempty"`
	Request string `json:"request,omitempty"`
}

// spans keeps the traced run's spans in memory until the run ends. The
// traced run drives one client from one goroutine, so it takes no lock.
type spans struct {
	t0   time.Time
	list []spanRec
}

func (s *spans) add(name string, start, end time.Time, parent int, request string) int {
	id := len(s.list) + 1
	s.list = append(s.list, spanRec{ID: id, Name: name, Start: start.Sub(s.t0).Nanoseconds(),
		End: end.Sub(s.t0).Nanoseconds(), Parent: parent, Request: request})
	return id
}

// time runs fn as one span and returns its duration.
func (s *spans) time(name string, parent int, request string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	s.add(name, start, end, parent, request)
	return end.Sub(start)
}

func (s *spans) write(path string) error {
	data, err := json.Marshal(s.list)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// jobProbe is how many beam campaigns every traced run sends after the
// workload's own sample, so the job-path metrics exist for workloads
// whose traffic never queues a job.
const jobProbe = 8

// traced starts the topology once, replays the workload's fixed sample
// with one client while splitting every request into parts, sends the
// job probe, reads the nodes' counters, and times the layer suite.
func traced(ctx context.Context, o options, w traffic, bin string, frontArgs []string, rec *record) (map[string]float64, *tally, error) {
	sp := &spans{t0: time.Now()}
	s, err := startSUT(bin, w.topology(), frontArgs...)
	if err != nil {
		return nil, nil, err
	}
	c := newClient(s.front(), 1)
	v := map[string]float64{}
	t := newTally()
	var probe checks
	err = func() error {
		if err := w.warmup(ctx, c, 0); err != nil {
			return err
		}
		var model *surrogate.Model
		if m, ok := w.(interface{ surrogateModel() *surrogate.Model }); ok {
			model = m.surrogateModel()
		}
		d := newDecomposer(sp, model)
		if err := d.measureFloor(ctx, c); err != nil {
			return err
		}
		deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
		for i := 0; i < w.traceSample() && time.Now().Before(deadline); i++ {
			k := w.next(0, i)
			a, err := c.campaign(ctx, k.req)
			t.record(a, err)
			if err != nil {
				continue
			}
			w.check(k, a)
			d.request(k.req, a, fmt.Sprintf("r%d", i), true)
		}
		if len(d.wall) == 0 {
			return fmt.Errorf("no successful traced requests (%d failed): %v", t.failed, t.errs)
		}
		variants := beamVariants()
		for j := 0; j < jobProbe; j++ {
			req := variants[j%len(variants)](mix(o.seed, 5, uint64(j)))
			a, err := c.campaign(ctx, req)
			if err != nil {
				return fmt.Errorf("job probe: %w", err)
			}
			probe.later(call{req: req}, a.body)
			d.request(req, a, fmt.Sprintf("p%d", j), false)
		}
		d.metrics(v, rec.Diagnostics)
		if err := scrape(ctx, s, v); err != nil {
			return err
		}
		return layerSuite(ctx, sp, s, v)
	}()
	c.close()
	if stopErr := s.stop(); err == nil && stopErr != nil {
		err = fmt.Errorf("stop: %w", stopErr)
	}
	if err != nil {
		return nil, nil, err
	}
	if err := probe.verify(ctx); err != nil {
		return nil, nil, err
	}
	rec.Wrong = append(rec.Wrong, probe.wrong()...)
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, nil, err
	}
	if err := sp.write(filepath.Join(o.out, recordName(o)+".spans.json")); err != nil {
		return nil, nil, err
	}
	return v, t, nil
}

// Parts a traced request splits into, all in microseconds. Each server
// part is the benchmark's own call into the same public function the
// handler makes, on the same request, made right after the request
// returns; http.floor is a GET /healthz round trip on the same
// connection, once per round trip the request took; the job stages are
// the ones GET /v1/jobs/{id} reports.
var partNames = []string{
	"http.floor", "server.decode", "server.normalize", "server.cache_key", "server.cache_get",
	"surrogate.features", "surrogate.predict", "server.encode", "server.cache_put",
	"stage.queue", "stage.compile", "stage.run", "stage.merge",
}

// decomposer splits traced requests into parts.
type decomposer struct {
	sp      *spans
	model   *surrogate.Model
	cache   *server.Cache // private: holds what neutrond's result cache holds
	floorUs float64
	// all holds each part of every live request, zero where the part does
	// not apply, so the medians of the parts and of the remainder add up
	// to the median wall time.
	all map[string][]float64
	// applied holds each part only where it applied, across live and probe
	// requests; the per-layer metrics are its medians.
	applied map[string][]float64
	// gapMs is, per job, the wall time outside the job's stages: the
	// submit, the event-stream notification and the result fetch. The job
	// can start before the POST's 202 arrives, so the POST round trip
	// itself may overlap the stages.
	gapMs []float64
	wall  []float64 // live wall times, µs
}

func newDecomposer(sp *spans, model *surrogate.Model) *decomposer {
	return &decomposer{
		sp: sp, model: model,
		cache:   server.NewCache(256, 64<<20, telemetry.NewRegistry()),
		all:     map[string][]float64{},
		applied: map[string][]float64{},
	}
}

// measureFloor times GET /healthz on the traced connection.
func (d *decomposer) measureFloor(ctx context.Context, c *client) error {
	var us []float64
	for i := 0; i < 200; i++ {
		var err error
		var status int
		dur := d.sp.time("http.floor", 0, "", func() {
			status, _, _, err = c.do(ctx, http.MethodGet, "/healthz", nil)
		})
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("GET /healthz: status %d", status)
		}
		us = append(us, micros(dur))
	}
	d.floorUs = stats.Median(us)
	return nil
}

// request records one answered request and replays its server-side steps.
// live requests belong to the workload's sample; the probe's do not.
func (d *decomposer) request(req *server.CampaignRequest, a answer, id string, live bool) {
	root := d.sp.add("request", a.sent, a.done, 0, id)
	d.sp.add("http.post", a.sent, a.posted, root, id)
	if a.tier == tierExact {
		d.sp.add("sse.wait", a.posted, a.notified, root, id)
		d.sp.add("http.fetch", a.notified, a.done, root, id)
	}
	parts := d.replay(req, a, root, id)
	parts["http.floor"] = d.floorUs * float64(a.trips)
	for name, x := range parts {
		d.applied[name] = append(d.applied[name], x)
	}
	if a.tier == tierExact {
		gap := float64(a.latency().Nanoseconds()) / 1e6
		for _, st := range a.stages {
			gap -= st.Seconds * 1e3
		}
		d.gapMs = append(d.gapMs, gap)
	}
	if !live {
		return
	}
	for _, name := range partNames {
		d.all[name] = append(d.all[name], parts[name])
	}
	d.wall = append(d.wall, micros(a.latency()))
}

// replay makes the handler's calls for req in this process, each as a
// span under the request, and returns the parts that applied.
func (d *decomposer) replay(req *server.CampaignRequest, a answer, root int, id string) map[string]float64 {
	parts := map[string]float64{}
	timed := func(name string, fn func()) { parts[name] = micros(d.sp.time(name, root, id, fn)) }
	blob, err := json.Marshal(req)
	if err != nil {
		return parts
	}
	// neutrond accepted this request, so decoding and normalizing it
	// again cannot fail; a nil n would only end the replay early.
	var raw server.CampaignRequest
	timed("server.decode", func() {
		dec := json.NewDecoder(bytes.NewReader(blob))
		dec.DisallowUnknownFields()
		_ = dec.Decode(&raw)
	})
	var n *server.CampaignRequest
	timed("server.normalize", func() { n, _ = raw.Normalize() })
	if n == nil {
		return parts
	}
	var key string
	timed("server.cache_key", func() { key = n.CacheKey() })
	if a.tier == tierHit {
		if _, _, ok := d.cache.Get(key); !ok {
			d.cache.Put(key, a.body)
		}
	}
	timed("server.cache_get", func() { _, _, _ = d.cache.Get(key) })
	var env server.ResultEnvelope
	if a.tier != tierHit {
		_ = json.Unmarshal(a.body, &env)
	}
	if a.tier == tierSurrogate && d.model != nil && n.Xsection != nil {
		if spec, err := server.SpectrumByName(n.Xsection.Spectrum); err == nil {
			var f []float64
			timed("surrogate.features", func() {
				f = surrogate.FeatureVector(n.Xsection.BoronPerCm2, n.Xsection.QcritFC, spec, plan.Bias{})
			})
			timed("surrogate.predict", func() {
				if d.model.Hull.Contains(f) {
					_ = d.model.PredictSigma(f)
				}
			})
		}
	}
	if a.tier != tierHit {
		timed("server.encode", func() { _, _ = json.Marshal(&env) })
	}
	if a.tier == tierExact {
		timed("server.cache_put", func() { d.cache.Put(key, a.body) })
		for _, st := range a.stages {
			parts["stage."+st.Stage] += st.Seconds * 1e6
		}
	}
	return parts
}

// metrics reports the decomposition. The parts' medians over the live
// sample plus the unattributed remainder add up to its median wall time.
func (d *decomposer) metrics(v, diag map[string]float64) {
	wall := percentile(d.wall, 0.50)
	rest := wall
	for _, name := range partNames {
		m := stats.Median(d.all[name])
		diag["decomposition."+name+"_us"] = m
		rest -= m
	}
	diag["decomposition.wall_p50_us"] = wall
	diag["decomposition.unattributed_us"] = rest
	diag["decomposition.requests"] = float64(len(d.wall))
	v["request.wall_p50_ms"] = wall / 1e3
	v["request.unattributed_share"] = rest / wall
	v["http.floor_us"] = d.floorUs
	med := func(name string) float64 { return stats.Median(d.applied[name]) }
	for _, name := range []string{"decode", "normalize", "cache_key", "cache_get", "encode", "cache_put"} {
		v["server."+name+"_us"] = med("server." + name)
	}
	v["server.queue_wait_ms"] = med("stage.queue") / 1e3
	v["server.job_compile_ms"] = med("stage.compile") / 1e3
	v["server.job_run_ms"] = med("stage.run") / 1e3
	v["server.completion_gap_ms"] = stats.Median(d.gapMs)
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// scrape reads every node's /v1/stats and the front door's /metrics.
func scrape(ctx context.Context, s *sut, v map[string]float64) error {
	var planHits, planMisses int64
	var front server.StatsResponse
	for i, n := range s.nodes {
		c := newClient(n.url, 1)
		var st server.StatsResponse
		err := c.getJSON(ctx, "/v1/stats", &st)
		c.close()
		if err != nil {
			return err
		}
		if i == 0 {
			front = st
		}
		planHits += st.PlanCache.Hits
		planMisses += st.PlanCache.Misses
	}
	v["server.cache_hit_ratio"] = front.ResultCache.HitRatio
	v["surrogate.served_ratio"] = ratio(float64(front.Surrogate.Served), float64(front.ResultCache.Hits+front.ResultCache.Misses))
	v["plan.hit_ratio"] = ratio(float64(planHits), float64(planHits+planMisses))
	v["cluster.compiles_per_campaign"] = ratio(float64(planMisses), float64(front.Jobs.Completed))
	prom, err := promCounters(ctx, s.front())
	if err != nil {
		return err
	}
	remote, local := prom["cluster_ranges_dispatched_total"], prom["cluster_ranges_local_total"]
	v["cluster.ranges_remote_share"] = ratio(remote, remote+local)
	v["cluster.redispatch_total"] = prom["cluster_ranges_redispatched_total"]
	return nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// promCounters reads the unlabelled samples of a Prometheus text page.
func promCounters(ctx context.Context, base string) (map[string]float64, error) {
	c := newClient(base, 1)
	defer c.close()
	status, _, payload, err := c.do(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(payload))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if x, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = x
		}
	}
	return out, nil
}
