package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

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

// decodeBody decodes the body of POST /v1/campaigns or POST /v1/shards
// into v with decodeStrict, reading at most maxBodyBytes of it. When it
// fails it has answered 413 (the body is over the cap) or 400, and it
// returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := decodeStrict(http.MaxBytesReader(w, r.Body, maxBodyBytes), v)
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", maxBodyBytes)
	} else {
		writeError(w, http.StatusBadRequest, "decode request: %v", err)
	}
	return false
}

// decodeStrict reads a JSON request body into v. Unknown fields are an
// error, so a misspelled knob is rejected instead of silently defaulted.
// So is an object that repeats a member name under case folding:
// encoding/json matches names case-insensitively and keeps the last
// match, so in {"seed":2,"Seed":1} the member order would pick the seed,
// and a reordered copy of the same body would get another cache key.
// Only whitespace may follow the value: a body with a second value or
// trailing bytes is not one request.
func decodeStrict(body io.Reader, v any) error {
	var read bytes.Buffer // what the decoder consumed: the whole value, perhaps more
	dec := json.NewDecoder(io.TeeReader(body, &read))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return clipDecodeError(err)
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("another value")
		}
		return fmt.Errorf("json: data after the request value: %w", err) // %w keeps a *http.MaxBytesError a 413
	}
	return checkRepeatedMembers(read.Bytes())
}

// clipDecodeError clips the body text that encoding/json quotes in its
// errors: an unknown member's name, and a number that does not fit its
// field.
func clipDecodeError(err error) error {
	var typeErr *json.UnmarshalTypeError
	if errors.As(err, &typeErr) {
		typeErr.Value = clip(typeErr.Value)
	} else if name, ok := strings.CutPrefix(err.Error(), "json: unknown field "); ok {
		return fmt.Errorf("json: unknown field %s", clip(name))
	}
	return err
}

// checkRepeatedMembers fails on the first member of an object in the JSON
// value at the start of data whose name matches an earlier member's under
// bytes.EqualFold, the folding encoding/json matches names with. The value
// must have decoded into a request, so a byte scan of strings and nesting
// suffices: the value is well-formed, and each member names a struct field
// (the request types hold no maps), so the scan meets a repeat before it
// compares a name with more earlier names than its struct has fields.
func checkRepeatedMembers(data []byte) error {
	data = bytes.TrimLeft(data, " \t\r\n")
	if len(data) == 0 || data[0] != '{' {
		return nil // null: no members
	}
	names := make([][]byte, 0, 32) // member names of the open objects, outermost first
	open := make([]int, 0, 8)      // per open object, its first index in names; -1 for an array
	inKey := false                 // the next string is a member name
	for i := 0; i < len(data); i++ {
		switch data[i] {
		case '{':
			open = append(open, len(names))
			inKey = true
		case '[':
			open = append(open, -1)
			inKey = false
		case ',':
			inKey = open[len(open)-1] >= 0
		case '}', ']':
			if first := open[len(open)-1]; first >= 0 {
				names = names[:first]
			}
			if open = open[:len(open)-1]; len(open) == 0 {
				return nil
			}
		case '"':
			end := i + 1
			for data[end] != '"' {
				if data[end] == '\\' {
					end++
				}
				end++
			}
			if inKey {
				name := data[i+1 : end]
				if bytes.IndexByte(name, '\\') >= 0 {
					var s string
					_ = json.Unmarshal(data[i:end+1], &s) // Decode already read it as a string
					name = []byte(s)
				}
				for _, prev := range names[open[len(open)-1]:] {
					if bytes.EqualFold(prev, name) {
						return fmt.Errorf("json: object repeats member %q (names match case-insensitively)", name)
					}
				}
				names = append(names, name)
				inKey = false
			}
			i = end
		}
	}
	return nil
}

// handleSubmit is POST /v1/campaigns: cache-first, then enqueue.
//
//	200  cached result (X-Cache: hit), or 304 on a matching If-None-Match
//	202  job accepted (body JobInfo, Location /v1/jobs/{id})
//	400  malformed or invalid request
//	413  body over maxBodyBytes
//	429  queue full (Retry-After set)
//	503  draining (Retry-After set)
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.unavailable(w)
		return
	}
	var raw CampaignRequest
	if !decodeBody(w, r, &raw) {
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
		w.Header().Set("Retry-After", retryAfter)
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
			"job_id", j.ID, "kind", j.Req.Kind, "trace_id", j.root.Trace().ID().String())
	}
	writeJSON(w, http.StatusAccepted, j.Info())
}

// handleTrace is GET /v1/jobs/{id}/trace: the job's span tree with
// per-stage durations. Live jobs return a snapshot with in-flight spans
// marked; the tree is final once the job is terminal.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := s.jobOr404(w, r)
	if j == nil {
		return
	}
	writeJSON(w, http.StatusOK, j.TraceSnapshot())
}

func (s *Server) unavailable(w http.ResponseWriter) {
	w.Header().Set("Retry-After", retryAfter)
	writeError(w, http.StatusServiceUnavailable, "server is draining")
}

// handleJob is GET /v1/jobs/{id}. Finished jobs carry the result body and
// its strong ETag; If-None-Match short-circuits to 304.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.jobOr404(w, r)
	if j == nil {
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
	j := s.jobOr404(w, r)
	if j == nil {
		return
	}
	if j.Cancel() {
		s.cfg.Registry.Counter("server.jobs_canceled").Add(1)
	}
	s.clearInflight(j)
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
		w.Header().Set("Retry-After", retryAfter)
		writeJSON(w, http.StatusServiceUnavailable, info)
		return
	}
	writeJSON(w, http.StatusOK, info)
}
