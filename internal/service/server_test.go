package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"optspeed/internal/core"
	"optspeed/internal/partition"
	"optspeed/internal/stencil"
	"optspeed/internal/sweep"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestOptimizeEndpoint(t *testing.T) {
	ts := newTestServer(t)
	cases := []struct {
		name       string
		body       string
		wantStatus int
		check      func(t *testing.T, body []byte)
	}{
		{
			name:       "valid sync-bus optimize",
			body:       `{"n":512,"stencil":"5-point","shape":"square","machine":{"type":"sync-bus"}}`,
			wantStatus: http.StatusOK,
			check: func(t *testing.T, body []byte) {
				var got OptimizeResponse
				if err := json.Unmarshal(body, &got); err != nil {
					t.Fatal(err)
				}
				p := core.MustProblem(512, stencil.FivePoint, partition.Square)
				want, err := core.Optimize(p, core.DefaultSyncBus(0))
				if err != nil {
					t.Fatal(err)
				}
				if got.Procs != want.Procs || got.Speedup != want.Speedup {
					t.Fatalf("served %d/%g, core says %d/%g",
						got.Procs, got.Speedup, want.Procs, want.Speedup)
				}
				if got.Arch != "sync-bus" {
					t.Fatalf("arch %q", got.Arch)
				}
			},
		},
		{
			name:       "snapped optimize",
			body:       `{"n":256,"stencil":"9-point","shape":"square","machine":{"type":"sync-bus"},"snapped":true}`,
			wantStatus: http.StatusOK,
			check: func(t *testing.T, body []byte) {
				var got OptimizeResponse
				if err := json.Unmarshal(body, &got); err != nil {
					t.Fatal(err)
				}
				if got.Procs < 1 || got.Speedup <= 0 {
					t.Fatalf("degenerate snapped result: %+v", got)
				}
			},
		},
		{
			name:       "invalid stencil",
			body:       `{"n":512,"stencil":"7-point","shape":"square","machine":{"type":"sync-bus"}}`,
			wantStatus: http.StatusBadRequest,
			check: func(t *testing.T, body []byte) {
				var got errorResponse
				if err := json.Unmarshal(body, &got); err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(got.Error, "7-point") {
					t.Fatalf("error does not name the bad stencil: %q", got.Error)
				}
			},
		},
		{
			name:       "invalid machine type",
			body:       `{"n":512,"stencil":"5-point","shape":"square","machine":{"type":"quantum"}}`,
			wantStatus: http.StatusBadRequest,
		},
		{
			name:       "invalid grid size",
			body:       `{"n":-4,"stencil":"5-point","shape":"square","machine":{"type":"sync-bus"}}`,
			wantStatus: http.StatusBadRequest,
		},
		{
			name:       "unknown field rejected",
			body:       `{"n":512,"stencil":"5-point","shape":"square","machne":{"type":"sync-bus"}}`,
			wantStatus: http.StatusBadRequest,
		},
		{
			name:       "malformed json",
			body:       `{"n":`,
			wantStatus: http.StatusBadRequest,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/v1/optimize", tc.body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d; body %s", resp.StatusCode, tc.wantStatus, body)
			}
			if tc.check != nil {
				tc.check(t, body)
			}
		})
	}
}

func TestOptimizeMethodNotAllowed(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/optimize")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/optimize returned %d, want 405", resp.StatusCode)
	}
}

func TestSweepEndpointCacheHits(t *testing.T) {
	ts := newTestServer(t)
	body := `{"space":{"ns":[64,128,256],"stencils":["5-point","9-point"],` +
		`"shapes":["strip","square"],"machines":[{"type":"sync-bus"},{"type":"banyan"}]}}`

	resp, raw := postJSON(t, ts.URL+"/v1/sweep", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var first SweepResponse
	if err := json.Unmarshal(raw, &first); err != nil {
		t.Fatal(err)
	}
	wantSpecs := 3 * 2 * 2 * 2
	if first.Stats.Specs != wantSpecs || len(first.Results) != wantSpecs {
		t.Fatalf("first sweep returned %d/%d results, want %d",
			first.Stats.Specs, len(first.Results), wantSpecs)
	}
	if first.Stats.Evaluated != wantSpecs || first.Stats.Errors != 0 {
		t.Fatalf("first sweep stats %+v", first.Stats)
	}
	for i, r := range first.Results {
		if r.Index != i {
			t.Fatalf("results out of order at %d: %+v", i, r)
		}
		if r.Procs < 1 || r.Speedup <= 0 {
			t.Fatalf("degenerate result %d: %+v", i, r)
		}
	}

	// The identical request again: all answers must come from the cache.
	resp, raw = postJSON(t, ts.URL+"/v1/sweep", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var second SweepResponse
	if err := json.Unmarshal(raw, &second); err != nil {
		t.Fatal(err)
	}
	if second.Stats.CacheHits == 0 {
		t.Fatal("repeated sweep reported zero cache hits")
	}
	if second.Stats.CacheHits != wantSpecs || second.Stats.Evaluated != 0 {
		t.Fatalf("repeated sweep stats %+v, want all %d hits", second.Stats, wantSpecs)
	}
	for i := range second.Results {
		a, b := first.Results[i], second.Results[i]
		if a.Procs != b.Procs || a.Speedup != b.Speedup {
			t.Fatalf("cached result %d diverges: %+v vs %+v", i, a, b)
		}
	}
}

func TestSweepExplicitSpecsAndErrors(t *testing.T) {
	ts := newTestServer(t)
	body := `{"specs":[
		{"op":"min-grid","n":16,"stencil":"5-point","shape":"strip","machine":{"type":"sync-bus"},"procs":8},
		{"n":128,"stencil":"bogus","shape":"square","machine":{"type":"sync-bus"}}
	]}`
	resp, raw := postJSON(t, ts.URL+"/v1/sweep", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var got SweepResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Stats.Errors != 1 || got.Stats.Evaluated != 1 {
		t.Fatalf("stats %+v, want 1 evaluated + 1 error", got.Stats)
	}
	if got.Results[0].Grid < 2 {
		t.Fatalf("min-grid result %+v", got.Results[0])
	}
	if got.Results[1].Error == "" {
		t.Fatal("bad spec produced no error")
	}
}

func TestSweepRequestLimits(t *testing.T) {
	srv := New(Config{MaxSweepSpecs: 4})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, _ := postJSON(t, ts.URL+"/v1/sweep", `{}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty sweep: status %d, want 400", resp.StatusCode)
	}

	big := `{"space":{"ns":[64,128,256],"stencils":["5-point","9-point"],` +
		`"shapes":["square"],"machines":[{"type":"sync-bus"}]}}`
	resp, _ = postJSON(t, ts.URL+"/v1/sweep", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized sweep: status %d, want 413", resp.StatusCode)
	}

	// An axis product that overflows int64 must be rejected, not
	// expanded: (2^13)^5 = 2^65 wraps to 0 if multiplied naively,
	// slipping under any limit and sending Expand into ~10^19 appends.
	ints := strings.TrimSuffix(strings.Repeat("1,", 1<<13), ",")
	strs := strings.TrimSuffix(strings.Repeat(`"x",`, 1<<13), ",")
	objs := strings.TrimSuffix(strings.Repeat("{},", 1<<13), ",")
	overflow := `{"space":{"ns":[` + ints + `],"stencils":[` + strs + `],` +
		`"shapes":[` + strs + `],"machines":[` + objs + `],"procs":[` + ints + `]}}`
	resp, _ = postJSON(t, ts.URL+"/v1/sweep", overflow)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("overflowing sweep: status %d, want 413", resp.StatusCode)
	}
}

func TestBodySizeLimit(t *testing.T) {
	srv := New(Config{MaxBodyBytes: 256})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	huge := `{"n":512,"stencil":"5-point","shape":"square","machine":{"type":"sync-bus"}` +
		strings.Repeat(" ", 1024) + `}`
	resp, raw := postJSON(t, ts.URL+"/v1/optimize", huge)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413; %s", resp.StatusCode, raw)
	}
}

func TestSweepScaledOpPayload(t *testing.T) {
	ts := newTestServer(t)
	body := `{"specs":[{"op":"scaled","n":256,"stencil":"5-point","shape":"square",` +
		`"machine":{"type":"hypercube"},"points_per_proc":64}]}`
	resp, raw := postJSON(t, ts.URL+"/v1/sweep", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var got SweepResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	r := got.Results[0]
	if r.ProcsUsed <= 0 || r.CycleTime <= 0 || r.Speedup <= 0 {
		t.Fatalf("scaled payload dropped on the wire: %+v", r)
	}
	p := core.MustProblem(256, stencil.FivePoint, partition.Square)
	series, err := core.ScaledSpeedupSeries(p, core.DefaultHypercube(0), 64, []int{256})
	if err != nil {
		t.Fatal(err)
	}
	if r.ProcsUsed != series[0].Procs || r.Speedup != series[0].Speedup {
		t.Fatalf("scaled wire values %+v != core %+v", r, series[0])
	}
}

func TestArchitecturesEndpoint(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/architectures")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var got ArchitecturesResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got.Architectures) != len(core.MachineTypes()) {
		t.Fatalf("catalog has %d entries, want %d", len(got.Architectures), len(core.MachineTypes()))
	}
	for i, typ := range core.MachineTypes() {
		if got.Architectures[i].Type != typ {
			t.Fatalf("catalog[%d] = %q, want %q", i, got.Architectures[i].Type, typ)
		}
		if got.Architectures[i].Default.Tflp == 0 {
			t.Fatalf("catalog[%d] defaults not filled: %+v", i, got.Architectures[i].Default)
		}
	}
	if len(got.Stencils) != 4 || len(got.Shapes) != 2 {
		t.Fatalf("stencils %v shapes %v", got.Stencils, got.Shapes)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	// Drive some traffic: one ok optimize, one failing optimize.
	postJSON(t, ts.URL+"/v1/optimize",
		`{"n":128,"stencil":"5-point","shape":"square","machine":{"type":"sync-bus"}}`)
	postJSON(t, ts.URL+"/v1/optimize",
		`{"n":128,"stencil":"nope","shape":"square","machine":{"type":"sync-bus"}}`)

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	ep, ok := got.Endpoints["optimize"]
	if !ok {
		t.Fatalf("no optimize endpoint metrics: %+v", got.Endpoints)
	}
	if ep.Count != 2 || ep.Errors != 1 {
		t.Fatalf("optimize metrics %+v, want count=2 errors=1", ep)
	}
	if got.Engine.Evaluations != 1 {
		t.Fatalf("engine stats %+v, want 1 evaluation", got.Engine)
	}
}

func TestCancelledRequestRecordedNotAsSuccess(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/optimize",
		strings.NewReader(`{"n":256,"stencil":"5-point","shape":"square","machine":{"type":"sync-bus"}}`))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req.WithContext(ctx))
	if rec.Code != 499 {
		t.Fatalf("cancelled request recorded status %d, want 499", rec.Code)
	}
	ep := srv.metrics.snapshot()["optimize"]
	if ep.Cancelled != 1 || ep.Errors != 0 {
		t.Fatalf("cancelled request metrics %+v, want cancelled=1 errors=0", ep)
	}
}

// slowV1Sweep posts slowSpace to /v1/sweep on a Workers:1 server, with
// ctx and headers, and returns the recorded response and the engine's
// evaluation count once the handler has returned.
func slowV1Sweep(t *testing.T, ctx context.Context, headers map[string]string, onStart func(*sweep.Engine)) (*Server, *httptest.ResponseRecorder, uint64) {
	t.Helper()
	eng := sweep.New(sweep.Options{Workers: 1})
	srv := New(Config{Engine: eng})
	t.Cleanup(srv.Close)
	raw, err := json.Marshal(SweepRequest{Space: slowSpace()})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(raw)).WithContext(ctx)
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	if onStart != nil {
		go onStart(eng)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	return srv, rec, eng.Stats().Evaluations
}

// TestSweepCancelledMidEvaluation: a /v1/sweep whose client hangs up
// while the engine is evaluating records 499 and writes no body — no
// partial results array.
func TestSweepCancelledMidEvaluation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, rec, evals := slowV1Sweep(t, ctx, nil, func(eng *sweep.Engine) {
		for eng.Stats().Evaluations == 0 && ctx.Err() == nil {
			time.Sleep(50 * time.Microsecond)
		}
		cancel()
	})
	if rec.Code != statusClientClosedRequest || rec.Body.Len() != 0 {
		t.Fatalf("cancelled sweep: status %d with %d body bytes, want 499 and none", rec.Code, rec.Body.Len())
	}
	if total := uint64(slowSpace().Size()); evals == 0 || evals >= total {
		t.Fatalf("cancel landed outside evaluation: %d of %d specs evaluated", evals, total)
	}
	ep := srv.metrics.snapshot()["sweep"]
	if ep.Cancelled != 1 || ep.Errors != 0 {
		t.Fatalf("cancelled sweep metrics %+v, want cancelled=1 errors=0", ep)
	}
}

// TestSweepDeadlineExceededMidEvaluation: a /v1/sweep whose
// X-Request-Deadline budget runs out while the engine is evaluating
// answers 504 deadline_exceeded.
func TestSweepDeadlineExceededMidEvaluation(t *testing.T) {
	_, rec, evals := slowV1Sweep(t, context.Background(),
		map[string]string{deadlineHeader: "20ms"}, nil)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", rec.Code, rec.Body.Bytes())
	}
	if code, _, _ := envelope(t, rec.Body.Bytes()); code != codeDeadlineExceeded {
		t.Fatalf("code %q, want %q: %s", code, codeDeadlineExceeded, rec.Body.Bytes())
	}
	if total := uint64(slowSpace().Size()); evals >= total {
		t.Fatalf("the whole sweep (%d specs) finished inside a 20ms budget", total)
	}
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

func TestServerSharesEngine(t *testing.T) {
	eng := sweep.New(sweep.Options{})
	srv := New(Config{Engine: eng})
	defer srv.Close()
	if srv.Engine() != eng {
		t.Fatal("server did not adopt the provided engine")
	}
}
