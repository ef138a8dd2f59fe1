package main

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"optspeed/internal/telemetry"
)

// TestLiveMetricsConformance boots the real daemon, drives a little
// traffic, scrapes GET /metrics over real HTTP, and runs the strict
// in-repo exposition parser on the live page — the same check the CI
// observability job performs against a production-shaped process.
func TestLiveMetricsConformance(t *testing.T) {
	bin := buildDaemon(t)
	d := startDaemon(t, bin, t.TempDir())
	defer d.kill(t)

	httpJSON(t, http.MethodPost, d.base+"/v1/optimize",
		`{"n":64,"stencil":"5-point","shape":"square","machine":{"type":"sync-bus"}}`, nil)
	var job wireJob
	httpJSON(t, http.MethodPost, d.base+"/v2/jobs",
		`{"sweep":{"space":{"ns":[64],"stencils":["5-point"],"shapes":["square"],"machines":[{"type":"sync-bus"}]}}}`,
		&job)
	waitJobTerminal(t, d.base, job.ID)

	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.CheckExposition(raw); err != nil {
		t.Fatalf("live exposition invalid: %v\n%s", err, raw)
	}
	for _, family := range []string{
		"optspeed_http_request_duration_seconds",
		"optspeed_engine_evaluations_total",
		"optspeed_admission_gate_capacity",
		"optspeed_jobs_finished_total",
		"optspeed_wal_fsyncs_total", // startDaemon always passes -data-dir
		"optspeed_trace_traces_resident",
	} {
		if !strings.Contains(string(raw), family) {
			t.Fatalf("live exposition missing %s:\n%s", family, raw)
		}
	}
}

// TestLiveTraceRoundTrip: a job submitted to the real daemon yields a
// trace readable through GET /v1/traces/{id}.
func TestLiveTraceRoundTrip(t *testing.T) {
	bin := buildDaemon(t)
	d := startDaemon(t, bin, t.TempDir())
	defer d.kill(t)

	var job wireJob
	httpJSON(t, http.MethodPost, d.base+"/v2/jobs",
		`{"sweep":{"space":{"ns":[64,128],"stencils":["5-point"],"shapes":["square"],"machines":[{"type":"sync-bus"}]}}}`,
		&job)
	waitJobTerminal(t, d.base, job.ID)

	var full struct {
		Trace *struct {
			ID string `json:"id"`
		} `json:"trace"`
	}
	httpJSON(t, http.MethodGet, d.base+"/v2/jobs/"+job.ID, "", &full)
	if full.Trace == nil || full.Trace.ID == "" {
		t.Fatal("terminal job carries no trace block")
	}
	var tr struct {
		TraceID        string  `json:"trace_id"`
		SpanCount      int     `json:"span_count"`
		WallMs         float64 `json:"wall_ms"`
		CriticalPathMs float64 `json:"critical_path_ms"`
	}
	httpJSON(t, http.MethodGet, d.base+"/v1/traces/"+full.Trace.ID, "", &tr)
	if tr.TraceID != full.Trace.ID || tr.SpanCount == 0 {
		t.Fatalf("trace came back %+v", tr)
	}
	if tr.CriticalPathMs > tr.WallMs*1.0001+0.001 {
		t.Fatalf("critical path %.3fms exceeds wall %.3fms", tr.CriticalPathMs, tr.WallMs)
	}
}

// TestTraceBufferZeroDisables: -trace-buffer 0 turns tracing off.
func TestTraceBufferZeroDisables(t *testing.T) {
	bin := buildDaemon(t)
	d := startDaemon(t, bin, t.TempDir(), "-trace-buffer", "0")
	defer d.kill(t)

	req, err := http.NewRequest(http.MethodPost, d.base+"/v1/optimize",
		strings.NewReader(`{"n":64,"stencil":"5-point","shape":"square","machine":{"type":"sync-bus"}}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h := resp.Header.Get(telemetry.TraceIDHeader); h != "" {
		t.Fatalf("tracing disabled but response carries %s: %q", telemetry.TraceIDHeader, h)
	}
}

// waitJobTerminal polls one job to a terminal state.
func waitJobTerminal(t *testing.T, base, id string) wireJob {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var job wireJob
		raw := httpJSON(t, http.MethodGet, base+"/v2/jobs/"+id, "", &job)
		switch job.State {
		case "succeeded", "failed", "cancelled":
			return job
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 30s: %s", id, job.State, raw)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
