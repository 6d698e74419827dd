package telemetry

import (
	"bufio"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4), implemented without
// the client library: the registry's metric model is already atomic and
// race-safe, so exposition is a read-only walk. It is the registry's only
// serialization: /metrics serves it and -metrics-out writes it. Metric
// names are sanitized to the Prometheus grammar ([a-zA-Z_:][a-zA-Z0-9_:]*):
// the registry's dotted names ("beam.sdc_events") become underscore names
// ("beam_sdc_events"), and counters gain the conventional _total suffix.
//
// The format rules this writer (and the strict validator in
// internal/telemetry/promcheck) pins down:
//
//   - one "# TYPE <name> <type>" line per metric family, before samples;
//   - histogram buckets are CUMULATIVE, their le bounds inclusive, and
//     they end with le="+Inf" equal to _count;
//   - floats use Go 'g' formatting; +Inf/-Inf/NaN spelled exactly so.

// ContentType is the exposition content type served at /metrics.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus writes the registry's current state in Prometheus text
// exposition format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for name, c := range r.counters {
		counters[name] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for name, g := range r.gauges {
		gauges[name] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for name, h := range r.hists {
		hists[name] = h
	}
	r.mu.RUnlock()

	for _, name := range sortedKeys(counters) {
		prom := promName(name)
		if !strings.HasSuffix(prom, "_total") {
			prom += "_total"
		}
		bw.WriteString("# TYPE " + prom + " counter\n")
		bw.WriteString(prom + " " + strconv.FormatInt(counters[name].Value(), 10) + "\n")
	}
	for _, name := range sortedKeys(gauges) {
		prom := promName(name)
		bw.WriteString("# TYPE " + prom + " gauge\n")
		bw.WriteString(prom + " " + promFloat(gauges[name].Value()) + "\n")
	}
	for _, name := range sortedKeys(hists) {
		h := hists[name]
		prom := promName(name)
		bw.WriteString("# TYPE " + prom + " histogram\n")
		var cum int64
		for i := 0; i < histBuckets-1; i++ {
			cum += h.buckets[i].Load()
			bw.WriteString(prom + `_bucket{le="` + promFloat(bucketUpper(i)) + `"} ` +
				strconv.FormatInt(cum, 10) + "\n")
		}
		count := h.Count()
		bw.WriteString(prom + `_bucket{le="+Inf"} ` + strconv.FormatInt(count, 10) + "\n")
		bw.WriteString(prom + "_sum " + promFloat(h.Sum()) + "\n")
		bw.WriteString(prom + "_count " + strconv.FormatInt(count, 10) + "\n")
	}
	return bw.Flush()
}

// PrometheusHandler serves the registry at /metrics.
func PrometheusHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		_ = r.WritePrometheus(w)
	})
}

// promName sanitizes a registry metric name to the Prometheus grammar.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// promFloat renders a float64 the way the exposition format spells it.
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
