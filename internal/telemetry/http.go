package telemetry

import (
	"encoding/json"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"

	"neutronsim/internal/telemetry/trace"
)

// Serve starts an observability HTTP server on addr exposing
//
//   - /metrics — Prometheus text exposition of this registry,
//   - /debug/vars — the standard expvar JSON (memstats, cmdline),
//   - /debug/traces — recent completed traces from trace.Default
//     (?n=N bounds the count), and
//   - /debug/pprof/ — the standard net/http/pprof profiles.
//
// It returns the running server and the bound address (useful with ":0").
// The caller owns shutdown via (*http.Server).Close.
func Serve(addr string, r *Registry) (*http.Server, string, error) {
	mux := http.NewServeMux()
	mux.Handle("/metrics", PrometheusHandler(r))
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, req *http.Request) {
		n := 0
		if s := req.URL.Query().Get("n"); s != "" {
			if v, err := strconv.Atoi(s); err == nil {
				n = v
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc, err := json.MarshalIndent(map[string]any{
			"total":  trace.Default.Total(),
			"traces": trace.Default.Recent(n),
		}, "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Write(enc)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}
