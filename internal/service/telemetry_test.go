package service

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"optspeed/internal/dispatch"
	"optspeed/internal/sweep"
	"optspeed/internal/telemetry"
)

// TestV1MetricsEndpointsGolden pins the /v1/metrics endpoint map bytes
// after the telemetry migration: a fixed observation sequence must
// marshal exactly as the pre-telemetry accumulator did.
func TestV1MetricsEndpointsGolden(t *testing.T) {
	m := newMetricsRegistry(telemetry.NewRegistry())
	m.observe("optimize", 200, 1500*time.Microsecond)
	m.observe("optimize", 200, 2500*time.Microsecond)
	m.observe("optimize", 400, 980*time.Microsecond)
	m.observe("sweep", 200, 12*time.Millisecond)
	m.observe("sweep", statusClientClosedRequest, 3*time.Millisecond)
	m.observe("jobs_submit", 202, 410*time.Microsecond)

	got, err := json.MarshalIndent(m.snapshot(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "v1_metrics_endpoints.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if string(got) != string(want) {
		t.Fatalf("endpoint snapshot diverged from golden\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// legacyEndpoint is the pre-telemetry accumulator, kept verbatim as the
// equivalence oracle for the migrated adapter.
type legacyEndpoint struct {
	count     uint64
	errors    uint64
	cancelled uint64
	total     time.Duration
	max       time.Duration
}

func (ep *legacyEndpoint) observe(status int, d time.Duration) {
	ep.count++
	switch {
	case status == statusClientClosedRequest:
		ep.cancelled++
	case status >= 400:
		ep.errors++
	}
	ep.total += d
	if d > ep.max {
		ep.max = d
	}
}

func (ep *legacyEndpoint) snapshot() EndpointSnapshot {
	s := EndpointSnapshot{
		Count:     ep.count,
		Errors:    ep.errors,
		Cancelled: ep.cancelled,
		MaxMillis: float64(ep.max) / float64(time.Millisecond),
	}
	if ep.count > 0 {
		s.AvgMillis = float64(ep.total) / float64(ep.count) / float64(time.Millisecond)
	}
	return s
}

// TestV1MetricsLegacyOracle drives the migrated adapter and the
// pre-telemetry accumulator with an identical pseudo-random observation
// stream and requires bit-identical snapshots — including the exact
// float division order for avg_ms.
func TestV1MetricsLegacyOracle(t *testing.T) {
	m := newMetricsRegistry(telemetry.NewRegistry())
	legacy := map[string]*legacyEndpoint{}
	names := []string{"optimize", "sweep", "jobs_get", "sweep_stream"}
	statuses := []int{200, 200, 200, 202, 400, 404, 499, 503}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		name := names[rng.Intn(len(names))]
		status := statuses[rng.Intn(len(statuses))]
		d := time.Duration(rng.Int63n(int64(40 * time.Millisecond)))
		m.observe(name, status, d)
		ep := legacy[name]
		if ep == nil {
			ep = &legacyEndpoint{}
			legacy[name] = ep
		}
		ep.observe(status, d)
	}
	got := m.snapshot()
	if len(got) != len(legacy) {
		t.Fatalf("endpoint count %d, want %d", len(got), len(legacy))
	}
	for name, ep := range legacy {
		want := ep.snapshot()
		g, ok := got[name]
		if !ok {
			t.Fatalf("endpoint %q missing from migrated snapshot", name)
		}
		if g != want {
			t.Fatalf("endpoint %q diverged:\n got %+v\nwant %+v", name, g, want)
		}
	}
}

// TestPrometheusEndpoint boots a full server, drives a little traffic,
// and checks GET /metrics serves valid exposition covering every
// subsystem the issue names.
func TestPrometheusEndpoint(t *testing.T) {
	_, ts := newTestServerWith(t, Config{})
	doJSON(t, http.MethodPost, ts.URL+"/v1/optimize",
		`{"n":64,"stencil":"5-point","shape":"square","machine":{"type":"sync-bus"}}`)
	resp, raw := doJSON(t, http.MethodGet, ts.URL+"/metrics", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics status %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	if err := telemetry.CheckExposition(raw); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, raw)
	}
	for _, family := range []string{
		"optspeed_http_request_duration_seconds_count",
		"optspeed_http_request_duration_seconds_bucket",
		"optspeed_engine_evaluations_total",
		"optspeed_engine_cache_hits_total",
		"optspeed_admission_gate_capacity",
		"optspeed_tenant_admitted_total",
		"optspeed_jobs_submitted_total",
		"optspeed_jobs_finished_total",
		"optspeed_dispatch_shards_planned_total",
		"optspeed_trace_spans_recorded_total",
		"optspeed_uptime_seconds",
	} {
		if !strings.Contains(string(raw), family) {
			t.Fatalf("exposition missing %s:\n%s", family, raw)
		}
	}
}

// TestPrometheusDisabled: -metrics=false removes the route entirely.
func TestPrometheusDisabled(t *testing.T) {
	_, ts := newTestServerWith(t, Config{DisableMetrics: true})
	resp, _ := doJSON(t, http.MethodGet, ts.URL+"/metrics", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /metrics with metrics disabled: status %d, want 404", resp.StatusCode)
	}
}

// TestTraceDistributedSweep is the end-to-end trace check: a
// coordinator scatters one job across two worker daemons, and the
// recorded trace must contain the job span, one span per shard, and
// summary timings consistent with the job's measured wall time.
func TestTraceDistributedSweep(t *testing.T) {
	w1, ts1 := newTestServerWith(t, Config{Engine: sweep.New(sweep.Options{Workers: 2})})
	w2, ts2 := newTestServerWith(t, Config{Engine: sweep.New(sweep.Options{Workers: 2})})
	eng := sweep.New(sweep.Options{Workers: 2})
	_, ts := newTestServerWith(t, Config{
		Engine: eng,
		Dispatcher: dispatch.New(dispatch.Options{
			Engine:    eng,
			Peers:     []string{ts1.URL, ts2.URL},
			ShardSize: 4,
		}),
	})

	// 2 ns × 2 stencils × 2 shapes = 8 specs over shard size 4: the
	// scatter plans at least 2 shards.
	resp, raw := doJSON(t, http.MethodPost, ts.URL+"/v2/jobs",
		`{"sweep":{"space":{"ns":[64,128],"stencils":["5-point","9-point"],"shapes":["strip","square"],`+
			`"machines":[{"type":"sync-bus"}]}}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, raw)
	}
	if resp.Header.Get(telemetry.TraceIDHeader) == "" {
		t.Fatalf("202 response carries no %s header", telemetry.TraceIDHeader)
	}
	var accepted JobJSON
	if err := json.Unmarshal(raw, &accepted); err != nil {
		t.Fatal(err)
	}

	job := pollJob(t, ts.URL, accepted.ID, func(j JobJSON) bool {
		return j.State.Terminal()
	})
	if job.State != "succeeded" {
		t.Fatalf("job ended %s (%s)", job.State, job.Reason)
	}
	if job.Progress.Shards < 2 {
		t.Fatalf("job ran %d shards, want >= 2 (the distributed path)", job.Progress.Shards)
	}
	if job.Trace == nil || job.Trace.ID == "" {
		t.Fatalf("terminal job carries no trace block: %+v", job)
	}
	if job.Trace.CriticalPathMs > job.Trace.WallMs*1.0001+0.001 {
		t.Fatalf("critical path %.3fms exceeds wall %.3fms", job.Trace.CriticalPathMs, job.Trace.WallMs)
	}

	resp, raw = doJSON(t, http.MethodGet, ts.URL+"/v1/traces/"+job.Trace.ID, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace status %d: %s", resp.StatusCode, raw)
	}
	var tr TraceResponse
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.SpanCount != len(tr.Spans) || tr.SpanCount != job.Trace.Spans {
		t.Fatalf("span counts disagree: response %d, spans %d, job block %d",
			tr.SpanCount, len(tr.Spans), job.Trace.Spans)
	}
	var jobSpans, shardSpans int
	var jobSpanID string
	for _, sp := range tr.Spans {
		switch sp.Name {
		case "job":
			jobSpans++
			jobSpanID = sp.SpanID
		case "shard":
			shardSpans++
		}
	}
	if jobSpans != 1 {
		t.Fatalf("trace has %d job spans, want 1:\n%s", jobSpans, raw)
	}
	if shardSpans != job.Progress.Shards {
		t.Fatalf("trace has %d shard spans, job ran %d shards:\n%s", shardSpans, job.Progress.Shards, raw)
	}
	for _, sp := range tr.Spans {
		if sp.Name == "shard" && sp.ParentID != jobSpanID {
			t.Fatalf("shard span %s parented to %q, want job span %s", sp.SpanID, sp.ParentID, jobSpanID)
		}
	}
	// Summary consistency: the wall covers the job span, the critical
	// path threads job→slowest shard, and the job's own measured
	// runtime bounds both (the HTTP submit span isn't part of this
	// trace's job subtree, so compare against the job timestamps).
	if tr.CriticalPathMs > tr.WallMs*1.0001+0.001 {
		t.Fatalf("critical path %.3fms exceeds wall %.3fms", tr.CriticalPathMs, tr.WallMs)
	}
	if tr.SerialMs < tr.CriticalPathMs {
		t.Fatalf("serial %.3fms below critical path %.3fms", tr.SerialMs, tr.CriticalPathMs)
	}
	if job.StartedAt != nil && job.FinishedAt != nil {
		measured := job.FinishedAt.Sub(*job.StartedAt).Seconds() * 1000
		if tr.WallMs > measured*1.5+10 {
			t.Fatalf("trace wall %.3fms wildly exceeds job runtime %.3fms", tr.WallMs, measured)
		}
	}

	// Header propagation: each worker recorded its stream handling
	// under the same trace id, parented to a coordinator shard span.
	workerSpans := 0
	for _, w := range []*Server{w1, w2} {
		if view, ok := w.Tracer().Trace(job.Trace.ID); ok {
			for _, sp := range view.Spans {
				if sp.Name == "sweep_stream" && sp.ParentID != "" {
					workerSpans++
				}
			}
		}
	}
	if workerSpans == 0 {
		t.Fatal("no worker recorded a sweep_stream span under the coordinator's trace id")
	}
}

// TestTraceDisabled: DisableTracing removes every trace artifact —
// no response header, no job trace block, 404 on the read API.
func TestTraceDisabled(t *testing.T) {
	_, ts := newTestServerWith(t, Config{DisableTracing: true})
	resp, raw := doJSON(t, http.MethodPost, ts.URL+"/v2/jobs",
		`{"sweep":{"space":{"ns":[64],"stencils":["5-point"],"shapes":["square"],"machines":[{"type":"sync-bus"}]}}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, raw)
	}
	if h := resp.Header.Get(telemetry.TraceIDHeader); h != "" {
		t.Fatalf("tracing disabled but response carries %s: %q", telemetry.TraceIDHeader, h)
	}
	var accepted JobJSON
	if err := json.Unmarshal(raw, &accepted); err != nil {
		t.Fatal(err)
	}
	job := pollJob(t, ts.URL, accepted.ID, func(j JobJSON) bool { return j.State.Terminal() })
	if job.Trace != nil {
		t.Fatalf("tracing disabled but job carries a trace block: %+v", job.Trace)
	}
	resp, _ = doJSON(t, http.MethodGet, ts.URL+"/v1/traces/0123456789abcdef", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET trace with tracing disabled: status %d, want 404", resp.StatusCode)
	}
}

// TestTraceHeaderAdoption: a caller-supplied X-Trace-Id is adopted
// verbatim (and echoed), so a client can pre-name the trace and fetch
// it without parsing the response.
func TestTraceHeaderAdoption(t *testing.T) {
	_, ts := newTestServerWith(t, Config{})
	const tid = "feedfacecafebeef"
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/optimize",
		strings.NewReader(`{"n":64,"stencil":"5-point","shape":"square","machine":{"type":"sync-bus"}}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(telemetry.TraceIDHeader, tid)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(telemetry.TraceIDHeader); got != tid {
		t.Fatalf("echoed trace id %q, want %q", got, tid)
	}
	resp, raw := doJSON(t, http.MethodGet, ts.URL+"/v1/traces/"+tid, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET adopted trace status %d: %s", resp.StatusCode, raw)
	}
	var tr TraceResponse
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.TraceID != tid || tr.SpanCount == 0 {
		t.Fatalf("adopted trace came back %+v", tr)
	}
}

// TestAccessLogTenantAndAdmission: the access log line names the tenant
// and the admission outcome for an admitted evaluation request.
func TestAccessLogTenantAndAdmission(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewJSONHandler(&syncWriter{mu: &mu, w: &buf}, nil))
	_, ts := newTestServerWith(t, Config{Logger: logger})
	doJSON(t, http.MethodPost, ts.URL+"/v1/optimize",
		`{"n":64,"stencil":"5-point","shape":"square","machine":{"type":"sync-bus"}}`)
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	var entry map[string]any
	if err := json.Unmarshal([]byte(out), &entry); err != nil {
		t.Fatalf("access log is not one JSON line: %q", out)
	}
	if entry["tenant"] != "anonymous" {
		t.Fatalf("access log entry has tenant %v, want anonymous: %+v", entry["tenant"], entry)
	}
	if entry["admission"] != "admitted" {
		t.Fatalf("access log entry has admission %v, want admitted: %+v", entry["admission"], entry)
	}
}
