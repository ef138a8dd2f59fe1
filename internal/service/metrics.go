package service

import (
	"net/http"
	"sync"
	"time"

	"optspeed/internal/telemetry"
)

// endpointMetrics holds one endpoint's instruments in the shared
// telemetry registry (the Prometheus page). The legacy /v1/metrics JSON
// is a view over the same instruments: its count, exact average and
// maximum latency come from the histogram's count, integer-nanosecond
// sum and max.
type endpointMetrics struct {
	errors    *telemetry.Counter // responses with status >= 400, excluding 499
	cancelled *telemetry.Counter // requests aborted by the client (status 499)
	latency   *telemetry.Histogram
}

// EndpointSnapshot is the JSON form of one endpoint's metrics.
type EndpointSnapshot struct {
	Count     uint64  `json:"count"`
	Errors    uint64  `json:"errors"`
	Cancelled uint64  `json:"cancelled"`
	AvgMillis float64 `json:"avg_ms"`
	MaxMillis float64 `json:"max_ms"`
}

// metricsRegistry tracks per-endpoint latency, backed by the telemetry
// registry so one observation feeds both the Prometheus exposition and
// the legacy JSON snapshot. Endpoints materialize on first observation,
// exactly as the pre-telemetry map did.
type metricsRegistry struct {
	reg       *telemetry.Registry
	mu        sync.Mutex
	endpoints map[string]*endpointMetrics
}

func newMetricsRegistry(reg *telemetry.Registry) *metricsRegistry {
	return &metricsRegistry{reg: reg, endpoints: make(map[string]*endpointMetrics)}
}

// endpoint returns the instruments for name, creating them (and their
// registry series) on first use.
func (m *metricsRegistry) endpoint(name string) *endpointMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	ep := m.endpoints[name]
	if ep == nil {
		lbl := telemetry.L("endpoint", name)
		ep = &endpointMetrics{
			errors: m.reg.NewCounter("optspeed_http_request_errors_total",
				"HTTP responses with status >= 400 (excluding client aborts).", lbl),
			cancelled: m.reg.NewCounter("optspeed_http_requests_cancelled_total",
				"HTTP requests aborted by the client before a response.", lbl),
			latency: m.reg.NewHistogram("optspeed_http_request_duration_seconds",
				"HTTP request latency in seconds.", telemetry.DefLatencyBuckets, lbl),
		}
		m.endpoints[name] = ep
	}
	return ep
}

func (m *metricsRegistry) observe(name string, status int, d time.Duration) {
	ep := m.endpoint(name)
	switch {
	case status == statusClientClosedRequest:
		ep.cancelled.Inc()
	case status >= 400:
		ep.errors.Inc()
	}
	ep.latency.Observe(d)
}

func (m *metricsRegistry) snapshot() map[string]EndpointSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]EndpointSnapshot, len(m.endpoints))
	for name, ep := range m.endpoints {
		count := ep.latency.Count()
		s := EndpointSnapshot{
			Count:     count,
			Errors:    ep.errors.Value(),
			Cancelled: ep.cancelled.Value(),
			MaxMillis: float64(ep.latency.Max()) / float64(time.Millisecond),
		}
		if count > 0 {
			s.AvgMillis = float64(ep.latency.Sum()) / float64(count) / float64(time.Millisecond)
		}
		out[name] = s
	}
	return out
}

// statusRecorder captures the response status for metrics and the
// access log.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Unwrap exposes the underlying writer so http.ResponseController can
// reach Flush/SetWriteDeadline through the recorder — the streaming
// endpoint depends on both.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// instrument wraps a handler with latency recording under name.
func (m *metricsRegistry) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, req)
		m.observe(name, rec.status, time.Since(start))
	}
}
