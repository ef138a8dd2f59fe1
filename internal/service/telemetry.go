// Telemetry wiring: the Prometheus exposition endpoint, the trace
// read API, and the per-request span middleware that ties the two
// halves of internal/telemetry into the HTTP surface.
package service

import (
	"net/http"
	"time"

	"optspeed/internal/telemetry"
)

// registerCollectors bridges every subsystem's counters into the
// telemetry registry as scrape-time reads. New calls it once, after all
// subsystems exist, whether or not metrics are disabled:
// DisableMetrics only removes the GET /metrics route, and every series
// registered here is a Func read only when a page is rendered.
func (s *Server) registerCollectors() {
	s.telemetry.NewGaugeFunc("optspeed_uptime_seconds",
		"Seconds since this process started serving.",
		func() float64 { return time.Since(s.started).Seconds() })
	s.engine.RegisterMetrics(s.telemetry)
	s.dispatcher.RegisterMetrics(s.telemetry)
	s.admission.RegisterMetrics(s.telemetry)
	s.store.RegisterMetrics(s.telemetry)
	if s.persistence != nil {
		s.persistence.RegisterMetrics(s.telemetry)
	}
	if s.tracer != nil {
		s.tracer.RegisterMetrics(s.telemetry)
	}
}

// handlePrometheus serves the registry in Prometheus text exposition
// format (version 0.0.4). The endpoint is deliberately outside the
// instrumented routing table: scraping must not perturb the latency
// metrics it reports, and the legacy /v1/metrics endpoint map must not
// grow an entry just because a scraper came by.
func (s *Server) handlePrometheus(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.telemetry.WritePrometheus(w)
}

// TraceSpanJSON is the wire form of one recorded span.
type TraceSpanJSON struct {
	SpanID     string            `json:"span_id"`
	ParentID   string            `json:"parent_id,omitempty"`
	Name       string            `json:"name"`
	Start      time.Time         `json:"start"`
	DurationMs float64           `json:"duration_ms"`
	Attrs      map[string]string `json:"attrs,omitempty"`
}

// TraceResponse is the body of GET /v1/traces/{id}: the trace's
// summary timings plus every recorded span, parents before children
// where starts tie.
type TraceResponse struct {
	TraceID        string          `json:"trace_id"`
	SpanCount      int             `json:"span_count"`
	SpansDropped   int             `json:"spans_dropped,omitempty"`
	WallMs         float64         `json:"wall_ms"`
	CriticalPathMs float64         `json:"critical_path_ms"`
	SerialMs       float64         `json:"serial_ms"`
	Spans          []TraceSpanJSON `json:"spans"`
}

func traceResponse(view telemetry.TraceView) TraceResponse {
	sum := view.Summary()
	resp := TraceResponse{
		TraceID:        view.ID,
		SpanCount:      sum.Spans,
		SpansDropped:   sum.Dropped,
		WallMs:         sum.WallMs,
		CriticalPathMs: sum.CriticalPathMs,
		SerialMs:       sum.SerialMs,
		Spans:          make([]TraceSpanJSON, len(view.Spans)),
	}
	for i, sp := range view.Spans {
		j := TraceSpanJSON{
			SpanID:     sp.SpanID,
			ParentID:   sp.ParentID,
			Name:       sp.Name,
			Start:      sp.Start,
			DurationMs: float64(sp.Duration) / float64(time.Millisecond),
		}
		if len(sp.Attrs) > 0 {
			j.Attrs = make(map[string]string, len(sp.Attrs))
			for _, a := range sp.Attrs {
				j.Attrs[a.Key] = a.Value
			}
		}
		resp.Spans[i] = j
	}
	return resp
}

// handleTraceGet serves one recorded trace. 404 covers every way a
// trace can be unknown: tracing disabled, a malformed id, an id never
// seen, or a trace already evicted from the bounded buffer.
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.tracer == nil || !validRequestID(id) {
		s.writeV2Error(w, r, http.StatusNotFound, codeNotFound, "no such trace")
		return
	}
	view, ok := s.tracer.Trace(id)
	if !ok {
		s.writeV2Error(w, r, http.StatusNotFound, codeNotFound, "no such trace")
		return
	}
	s.writeJSONPretty(w, r, http.StatusOK, traceResponse(view))
}

// traced wraps an evaluation handler with a request-scoped span. The
// span adopts the caller's X-Trace-Id/X-Parent-Span when present (the
// distributed case: a coordinator's shard span becomes the parent of
// this worker's request span) and mints a fresh trace otherwise, then
// echoes the trace id on the response so the submitter can fetch the
// trace later. Read-only routes stay untraced: a status poll is not an
// evaluation and would only churn the bounded trace buffer.
func (s *Server) traced(name string, h http.HandlerFunc) http.HandlerFunc {
	if s.tracer == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		tid := r.Header.Get(telemetry.TraceIDHeader)
		pid := r.Header.Get(telemetry.ParentSpanHeader)
		if !validRequestID(tid) {
			tid, pid = "", ""
		} else if !validRequestID(pid) {
			pid = ""
		}
		ctx, span := s.tracer.StartRoot(r.Context(), name, tid, pid)
		span.SetAttr("endpoint", name)
		if id := telemetry.RequestIDFrom(ctx); id != "" {
			span.SetAttr("request_id", id)
		}
		if tn := s.tenantFrom(ctx); tn != nil {
			span.SetAttr("tenant", tn.Name())
		}
		w.Header().Set(telemetry.TraceIDHeader, telemetry.TraceIDFrom(ctx))
		h(w, r.WithContext(ctx))
		span.End()
	}
}

// jobTrace assembles the job resource's trace block from the trace
// buffer, or nil when there is nothing to show (tracing off, the job
// predates this process, or the trace was evicted).
func (s *Server) jobTrace(traceID string) *JobTraceJSON {
	if s.tracer == nil || traceID == "" {
		return nil
	}
	view, ok := s.tracer.Trace(traceID)
	if !ok || len(view.Spans) == 0 {
		return nil
	}
	sum := view.Summary()
	return &JobTraceJSON{
		ID:             traceID,
		Spans:          sum.Spans,
		WallMs:         sum.WallMs,
		CriticalPathMs: sum.CriticalPathMs,
		SerialMs:       sum.SerialMs,
	}
}
