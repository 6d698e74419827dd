package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"

	"neutronsim/internal/device"
	"neutronsim/internal/physics"
	"neutronsim/internal/plan"
	"neutronsim/internal/spectrum"
	"neutronsim/internal/telemetry"
	"neutronsim/internal/telemetry/trace"
	"neutronsim/internal/workload"
)

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("POST /v1/shards", s.handleShards)
	s.mux.Handle("GET /metrics", telemetry.PrometheusHandler(s.cfg.Registry))
	s.mux.HandleFunc("GET /v1/devices", s.handleDevices)
	s.mux.HandleFunc("GET /v1/spectra", s.handleSpectra)
	s.mux.HandleFunc("GET /v1/materials", s.handleMaterials)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
}

// writeJSON writes v as a compact JSON response. Compact output keeps an
// embedded result (json.RawMessage) byte-identical to the cached campaign
// body, which the cache's strong ETags and the conformance suite rely on.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError writes the service's error envelope.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// decodeCampaign reads a submit body strictly: unknown fields are an
// error, so a misspelled knob is rejected instead of silently defaulted.
func decodeCampaign(body io.Reader) (*CampaignRequest, error) {
	var raw CampaignRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&raw); err != nil {
		return nil, err
	}
	return &raw, nil
}

// handleSubmit is POST /v1/campaigns: cache-first, then enqueue.
//
//	200  cached result (X-Cache: hit), or 304 on a matching If-None-Match
//	202  job accepted (body JobInfo, Location /v1/jobs/{id})
//	400  malformed or invalid request
//	429  queue full (Retry-After set)
//	503  draining (Retry-After set)
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.unavailable(w)
		return
	}
	raw, err := decodeCampaign(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	req, err := raw.Normalize()
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid request: %v", err)
		return
	}
	key := req.CacheKey()
	if body, etag, ok := s.cache.Get(key); ok {
		w.Header().Set("ETag", etag)
		w.Header().Set("X-Cache", "hit")
		if match := r.Header.Get("If-None-Match"); match != "" && match == etag {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(body)
		return
	}
	// Surrogate tier: after the exact-result cache (an exact answer is
	// strictly better than an approximate one), before the job queue.
	// The gate reads the raw request's tolerance — Normalize zeroes it on
	// the canonical form so it can't perturb the cache key. Served
	// answers are marked X-Cache: surrogate and are never cached: the
	// result cache holds only exact, byte-identical campaign results.
	if env := s.surrogate.answer(req, raw.Tolerance); env != nil {
		body, merr := json.Marshal(env)
		if merr != nil {
			writeError(w, http.StatusInternalServerError, "marshal surrogate result: %v", merr)
			return
		}
		w.Header().Set("X-Cache", "surrogate")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(body)
		return
	}
	// A valid incoming traceparent links the job's trace into the caller's;
	// a malformed or absent one starts a fresh trace (W3C behavior).
	var parent *trace.Traceparent
	if tp, perr := trace.ParseTraceparent(r.Header.Get(trace.Header)); perr == nil {
		parent = &tp
	}
	j, coalesced, err := s.submit(req, key, parent)
	if errors.Is(err, errDraining) {
		s.unavailable(w)
		return
	}
	if j == nil {
		s.cfg.Registry.Counter("server.queue_full").Add(1)
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg))
		writeError(w, http.StatusTooManyRequests, "queue full (depth %d); retry later", s.cfg.QueueDepth)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	w.Header().Set("X-Cache", "miss")
	if coalesced {
		w.Header().Set("X-Coalesced", "true")
	}
	if tp := j.root.Traceparent(); tp != "" {
		w.Header().Set(trace.Header, tp)
	}
	if !coalesced {
		telemetry.Log().Info("job accepted",
			"job_id", j.ID, "kind", j.Req.Kind, "trace_id", j.tr.ID().String())
	}
	writeJSON(w, http.StatusAccepted, j.Info())
}

// handleTrace is GET /v1/jobs/{id}/trace: the job's span tree with
// per-stage durations. Live jobs return a snapshot with in-flight spans
// marked; the tree is final once the job is terminal.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobByID(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.TraceSnapshot())
}

func (s *Server) unavailable(w http.ResponseWriter) {
	w.Header().Set("Retry-After", retryAfterSeconds(s.cfg))
	writeError(w, http.StatusServiceUnavailable, "server is draining")
}

// retryAfterSeconds renders the 429/503 Retry-After hint with ±20% jitter
// so that a burst of rejected clients — or a coordinator fan-out hitting
// a saturated worker fleet — does not come back as a synchronized retry
// herd that saturates the queue all over again. The result is always at
// least 1 second (the header is integer seconds).
func retryAfterSeconds(cfg Config) string {
	base := cfg.RetryAfter.Seconds()
	secs := int(math.Round(base * (0.8 + 0.4*rand.Float64())))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// handleJob is GET /v1/jobs/{id}. Finished jobs carry the result body and
// its strong ETag; If-None-Match short-circuits to 304.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobByID(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	if etag := j.ETag(); etag != "" {
		w.Header().Set("ETag", etag)
		if match := r.Header.Get("If-None-Match"); match != "" && match == etag {
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	writeJSON(w, http.StatusOK, j.Info())
}

// handleCancel is DELETE /v1/jobs/{id}.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobByID(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	if j.Cancel() {
		s.clearInflight(j)
	}
	writeJSON(w, http.StatusOK, j.Info())
}

// DeviceInfo is one row of GET /v1/devices.
type DeviceInfo struct {
	Name       string   `json:"name"`
	Kind       string   `json:"kind"`
	Process    string   `json:"process"`
	DieAreaCm2 float64  `json:"die_area_cm2"`
	Workloads  []string `json:"workloads"`
}

func (s *Server) handleDevices(w http.ResponseWriter, _ *http.Request) {
	var rows []DeviceInfo
	for _, d := range device.All() {
		rows = append(rows, DeviceInfo{
			Name:       d.Name,
			Kind:       d.Kind.String(),
			Process:    d.Process,
			DieAreaCm2: d.DieAreaCm2,
			Workloads:  workload.ForDeviceKind(d.Kind.String()),
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"devices": rows})
}

// SpectrumInfo is one row of GET /v1/spectra.
type SpectrumInfo struct {
	Name        string  `json:"name"`
	TotalFlux   float64 `json:"total_flux"`
	ThermalFlux float64 `json:"thermal_flux"`
	FastFlux    float64 `json:"fast_flux"`
}

func (s *Server) handleSpectra(w http.ResponseWriter, _ *http.Request) {
	var rows []SpectrumInfo
	for _, sp := range []spectrum.Spectrum{spectrum.ChipIR(), spectrum.ROTAX()} {
		rows = append(rows, SpectrumInfo{
			Name:        sp.Name(),
			TotalFlux:   float64(sp.TotalFlux()),
			ThermalFlux: float64(sp.FluxInBand(physics.BandThermal)),
			FastFlux:    float64(sp.FluxInBand(physics.BandFast)),
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"spectra": rows})
}

func (s *Server) handleMaterials(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"materials": MaterialNames()})
}

// JobStats summarizes the job pipeline for GET /v1/stats.
type JobStats struct {
	Submitted  int64 `json:"submitted"`
	Completed  int64 `json:"completed"`
	Failed     int64 `json:"failed"`
	Canceled   int64 `json:"canceled"`
	Running    int   `json:"running"`
	QueueDepth int   `json:"queue_depth"`
}

// StatsResponse is the GET /v1/stats body: the job pipeline, the result
// cache, the process-wide compiled-plan cache shared by the worker
// pool, and the surrogate serving tier.
type StatsResponse struct {
	Jobs        JobStats       `json:"jobs"`
	ResultCache CacheStats     `json:"result_cache"`
	PlanCache   PlanStats      `json:"plan_cache"`
	Surrogate   SurrogateStats `json:"surrogate"`
}

// PlanStats mirrors plan.Cache stats plus the derived hit ratio, so the
// JSON surface is self-contained.
type PlanStats struct {
	plan.Stats
	HitRatio float64 `json:"hit_ratio"`
}

// handleStats is GET /v1/stats: operational counters for the job queue,
// the result cache, and the compiled-plan cache. Plan-cache numbers come
// from plan.Shared because beam compiles through it; they therefore cover
// every campaign this process ran, not only neutrond jobs.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	reg := s.cfg.Registry
	ps := plan.Shared.Stats()
	writeJSON(w, http.StatusOK, StatsResponse{
		Jobs: JobStats{
			Submitted:  reg.Counter("server.jobs_submitted").Value(),
			Completed:  reg.Counter("server.jobs_completed").Value(),
			Failed:     reg.Counter("server.jobs_failed").Value(),
			Canceled:   reg.Counter("server.jobs_canceled").Value(),
			Running:    int(s.jobsRunning.Value()),
			QueueDepth: int(s.queueDepth.Value()),
		},
		ResultCache: s.cache.Stats(),
		PlanCache:   PlanStats{Stats: ps, HitRatio: ps.HitRatio()},
		Surrogate:   s.surrogate.stats(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// ReadyzInfo is the GET /readyz body: readiness plus the saturation
// signals an operator (or a cluster coordinator's health checker) needs
// without scraping /metrics — queue depth, in-flight jobs, drain state.
type ReadyzInfo struct {
	Status      string `json:"status"` // ready | draining
	QueueDepth  int    `json:"queue_depth"`
	JobsRunning int    `json:"jobs_running"`
	Draining    bool   `json:"draining"`
}

// handleReadyz reports 200 while accepting work and 503 once draining, so
// load balancers stop routing before shutdown completes. Both answers
// carry the ReadyzInfo saturation snapshot.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	info := ReadyzInfo{
		Status:      "ready",
		QueueDepth:  int(s.queueDepth.Value()),
		JobsRunning: int(s.jobsRunning.Value()),
	}
	if s.draining.Load() {
		info.Status = "draining"
		info.Draining = true
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg))
		writeJSON(w, http.StatusServiceUnavailable, info)
		return
	}
	writeJSON(w, http.StatusOK, info)
}
