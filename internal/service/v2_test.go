package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"optspeed/internal/core"
	"optspeed/internal/sweep"
)

// newTestServerWith builds a closable test server around cfg.
func newTestServerWith(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func doJSON(t *testing.T, method, url, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
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

// pollJob GETs the job until pred holds or the deadline lapses.
func pollJob(t *testing.T, base, id string, pred func(JobJSON) bool) JobJSON {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, raw := doJSON(t, http.MethodGet, base+"/v2/jobs/"+id, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll status %d: %s", resp.StatusCode, raw)
		}
		var j JobJSON
		if err := json.Unmarshal(raw, &j); err != nil {
			t.Fatal(err)
		}
		if pred(j) {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never satisfied predicate; last %+v", id, j)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func terminal(j JobJSON) bool {
	switch j.State {
	case "succeeded", "failed", "cancelled":
		return true
	}
	return false
}

// slowSpace is a cold space large enough that a Workers:1 engine
// cannot finish it before the test observes and cancels it: 1365
// distinct grid sizes times every stencil, shape and machine type is
// 65,520 optimize specs (just under DefaultMaxSweepSpecs), none of them
// cached, a few microseconds each.
func slowSpace() *sweep.Space {
	ns := make([]int, 1365)
	for i := range ns {
		ns[i] = 4096 + i
	}
	var machines []core.MachineSpec
	for _, typ := range core.MachineTypes() {
		machines = append(machines, core.MachineSpec{Type: typ})
	}
	return &sweep.Space{
		Ns: ns, Stencils: []string{"5-point", "9-point", "9-star", "13-point"},
		Shapes: []string{"strip", "square"}, Machines: machines,
	}
}

// slowSweepBody submits slowSpace as a v2 job.
func slowSweepBody(t *testing.T) string {
	t.Helper()
	raw, err := json.Marshal(JobSubmitRequest{Kind: "sweep", Sweep: &SweepRequest{Space: slowSpace()}})
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func TestJobLifecycleOverHTTP(t *testing.T) {
	_, ts := newTestServerWith(t, Config{})
	body := `{"kind":"sweep","sweep":{"space":{"ns":[64,128],"stencils":["5-point","9-point"],` +
		`"shapes":["strip","square"],"machines":[{"type":"sync-bus"}]}}}`
	resp, raw := doJSON(t, http.MethodPost, ts.URL+"/v2/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, raw)
	}
	var accepted JobJSON
	if err := json.Unmarshal(raw, &accepted); err != nil {
		t.Fatal(err)
	}
	if accepted.ID == "" || accepted.Kind != "sweep" {
		t.Fatalf("accepted job %+v", accepted)
	}
	if loc := resp.Header.Get("Location"); loc != "/v2/jobs/"+accepted.ID {
		t.Fatalf("Location %q", loc)
	}

	fin := pollJob(t, ts.URL, accepted.ID, terminal)
	const total = 2 * 2 * 2
	if fin.State != "succeeded" {
		t.Fatalf("job finished %q (%s)", fin.State, fin.Reason)
	}
	p := fin.Progress
	if p.Total != total || p.Completed != total || p.Errors != 0 ||
		p.Evaluated+p.CacheHits != total {
		t.Fatalf("progress %+v", p)
	}
	if fin.StartedAt == nil || fin.FinishedAt == nil {
		t.Fatalf("terminal job missing timestamps: %+v", fin)
	}

	// Paginate in pages of 3 until done; every submission index arrives
	// exactly once.
	seen := map[int]bool{}
	cursor := "0"
	for {
		resp, raw := doJSON(t, http.MethodGet,
			fmt.Sprintf("%s/v2/jobs/%s/results?cursor=%s&limit=3", ts.URL, accepted.ID, cursor), "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("results status %d: %s", resp.StatusCode, raw)
		}
		var page JobResultsResponse
		if err := json.Unmarshal(raw, &page); err != nil {
			t.Fatal(err)
		}
		for _, r := range page.Results {
			if seen[r.Index] {
				t.Fatalf("index %d served twice", r.Index)
			}
			seen[r.Index] = true
			if r.Error != "" || r.Speedup <= 0 {
				t.Fatalf("bad result %+v", r)
			}
		}
		if page.Done {
			break
		}
		cursor = page.NextCursor
	}
	if len(seen) != total {
		t.Fatalf("paginated %d results, want %d", len(seen), total)
	}

	// The jobs list includes it; cancelling a terminal job is a 409
	// conflict with the stable already_terminal code.
	resp, raw = doJSON(t, http.MethodGet, ts.URL+"/v2/jobs", "")
	var list JobListResponse
	if err := json.Unmarshal(raw, &list); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(list.Jobs) != 1 || list.Jobs[0].ID != accepted.ID {
		t.Fatalf("list %d: %+v", resp.StatusCode, list)
	}
	resp, raw = doJSON(t, http.MethodDelete, ts.URL+"/v2/jobs/"+accepted.ID, "")
	var conflict V2ErrorResponse
	if err := json.Unmarshal(raw, &conflict); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusConflict || conflict.Error.Code != codeAlreadyTerminal {
		t.Fatalf("cancel of terminal job: %d %s", resp.StatusCode, raw)
	}
}

func TestJobSubmitOptimize(t *testing.T) {
	_, ts := newTestServerWith(t, Config{})
	body := `{"optimize":{"n":256,"stencil":"5-point","shape":"square","machine":{"type":"sync-bus"}}}`
	resp, raw := doJSON(t, http.MethodPost, ts.URL+"/v2/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, raw)
	}
	var accepted JobJSON
	if err := json.Unmarshal(raw, &accepted); err != nil {
		t.Fatal(err)
	}
	if accepted.Kind != "optimize" {
		t.Fatalf("inferred kind %q", accepted.Kind)
	}
	fin := pollJob(t, ts.URL, accepted.ID, terminal)
	if fin.State != "succeeded" || fin.Progress.Total != 1 {
		t.Fatalf("optimize job %+v", fin)
	}
	_, raw = doJSON(t, http.MethodGet, ts.URL+"/v2/jobs/"+accepted.ID+"/results", "")
	var page JobResultsResponse
	if err := json.Unmarshal(raw, &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Results) != 1 || page.Results[0].Procs < 1 || page.Results[0].Speedup <= 0 {
		t.Fatalf("optimize result page %+v", page)
	}
}

func TestJobSubmitValidation(t *testing.T) {
	_, ts := newTestServerWith(t, Config{MaxSweepSpecs: 4})
	cases := []struct {
		name, body string
		status     int
		code       string
	}{
		{"no payload", `{}`, http.StatusBadRequest, codeInvalidRequest},
		{"both payloads", `{"sweep":{"specs":[]},"optimize":{"n":64,"stencil":"5-point","shape":"square","machine":{"type":"sync-bus"}}}`,
			http.StatusBadRequest, codeInvalidRequest},
		{"kind mismatch", `{"kind":"optimize","sweep":{"specs":[]}}`, http.StatusBadRequest, codeInvalidRequest},
		{"empty sweep", `{"sweep":{}}`, http.StatusBadRequest, codeInvalidRequest},
		{"oversized sweep", `{"sweep":{"space":{"ns":[64,128,256],"stencils":["5-point","9-point"],` +
			`"shapes":["square"],"machines":[{"type":"sync-bus"}]}}}`, http.StatusRequestEntityTooLarge, codeTooLarge},
		{"malformed json", `{"sweep":`, http.StatusBadRequest, codeInvalidRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, raw := doJSON(t, http.MethodPost, ts.URL+"/v2/jobs", tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, raw)
			}
			var env V2ErrorResponse
			if err := json.Unmarshal(raw, &env); err != nil {
				t.Fatalf("non-envelope error body %s: %v", raw, err)
			}
			if env.Error.Code != tc.code || env.Error.Message == "" || env.Error.RequestID == "" {
				t.Fatalf("envelope %+v, want code %q with message and request id", env.Error, tc.code)
			}
		})
	}
}

func TestJobNotFound(t *testing.T) {
	_, ts := newTestServerWith(t, Config{})
	for _, tc := range []struct{ method, path string }{
		{http.MethodGet, "/v2/jobs/deadbeef"},
		{http.MethodGet, "/v2/jobs/deadbeef/results"},
		{http.MethodDelete, "/v2/jobs/deadbeef"},
	} {
		resp, raw := doJSON(t, tc.method, ts.URL+tc.path, "")
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s: status %d: %s", tc.method, tc.path, resp.StatusCode, raw)
		}
		var env V2ErrorResponse
		if err := json.Unmarshal(raw, &env); err != nil || env.Error.Code != codeNotFound {
			t.Fatalf("%s %s: envelope %s", tc.method, tc.path, raw)
		}
	}
}

func TestJobResultsBadCursor(t *testing.T) {
	_, ts := newTestServerWith(t, Config{})
	resp, raw := doJSON(t, http.MethodPost, ts.URL+"/v2/jobs",
		`{"sweep":{"space":{"ns":[64],"stencils":["5-point"],"shapes":["square"],"machines":[{"type":"sync-bus"}]}}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, raw)
	}
	var accepted JobJSON
	if err := json.Unmarshal(raw, &accepted); err != nil {
		t.Fatal(err)
	}
	pollJob(t, ts.URL, accepted.ID, terminal)
	for _, q := range []string{"cursor=abc", "cursor=99999", "limit=-2", "cursor=-1"} {
		resp, raw := doJSON(t, http.MethodGet, ts.URL+"/v2/jobs/"+accepted.ID+"/results?"+q, "")
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d: %s", q, resp.StatusCode, raw)
		}
	}
}

func TestJobCancelMidRunOverHTTP(t *testing.T) {
	_, ts := newTestServerWith(t, Config{Engine: sweep.New(sweep.Options{Workers: 1})})
	resp, raw := doJSON(t, http.MethodPost, ts.URL+"/v2/jobs", slowSweepBody(t))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, raw)
	}
	var accepted JobJSON
	if err := json.Unmarshal(raw, &accepted); err != nil {
		t.Fatal(err)
	}
	mid := pollJob(t, ts.URL, accepted.ID, func(j JobJSON) bool { return j.Progress.Completed >= 1 || terminal(j) })
	if terminal(mid) || mid.Progress.Completed >= mid.Progress.Total {
		t.Fatalf("job not seen mid-flight before the cancel: %+v", mid)
	}
	resp, raw = doJSON(t, http.MethodDelete, ts.URL+"/v2/jobs/"+accepted.ID, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d %s", resp.StatusCode, raw)
	}
	fin := pollJob(t, ts.URL, accepted.ID, terminal)
	if fin.State != "cancelled" {
		t.Fatalf("job finished %q, want cancelled", fin.State)
	}
	if fin.Progress.Completed >= fin.Progress.Total {
		t.Fatalf("cancelled job completed everything: %+v", fin.Progress)
	}
	// Partial results stay readable after cancellation.
	resp, raw = doJSON(t, http.MethodGet, ts.URL+"/v2/jobs/"+accepted.ID+"/results?limit=5", "")
	var page JobResultsResponse
	if err := json.Unmarshal(raw, &page); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(page.Results) == 0 {
		t.Fatalf("post-cancel results: %d %+v", resp.StatusCode, page)
	}
}

func TestJobStoreFullOverHTTP(t *testing.T) {
	_, ts := newTestServerWith(t, Config{
		Engine: sweep.New(sweep.Options{Workers: 1}), JobCapacity: 1,
	})
	resp, raw := doJSON(t, http.MethodPost, ts.URL+"/v2/jobs", slowSweepBody(t))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, raw)
	}
	var first JobJSON
	if err := json.Unmarshal(raw, &first); err != nil {
		t.Fatal(err)
	}
	resp, raw = doJSON(t, http.MethodPost, ts.URL+"/v2/jobs",
		`{"sweep":{"space":{"ns":[64],"stencils":["5-point"],"shapes":["square"],"machines":[{"type":"sync-bus"}]}}}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %d %s", resp.StatusCode, raw)
	}
	var env V2ErrorResponse
	if err := json.Unmarshal(raw, &env); err != nil || env.Error.Code != codeStoreFull {
		t.Fatalf("envelope %s", raw)
	}
	doJSON(t, http.MethodDelete, ts.URL+"/v2/jobs/"+first.ID, "")
}

func TestJobTTLExpiryOverHTTP(t *testing.T) {
	_, ts := newTestServerWith(t, Config{JobTTL: 30 * time.Millisecond})
	resp, raw := doJSON(t, http.MethodPost, ts.URL+"/v2/jobs",
		`{"sweep":{"space":{"ns":[64],"stencils":["5-point"],"shapes":["square"],"machines":[{"type":"sync-bus"}]}}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, raw)
	}
	var accepted JobJSON
	if err := json.Unmarshal(raw, &accepted); err != nil {
		t.Fatal(err)
	}
	pollJob(t, ts.URL, accepted.ID, terminal)
	time.Sleep(60 * time.Millisecond)
	resp, raw = doJSON(t, http.MethodGet, ts.URL+"/v2/jobs/"+accepted.ID, "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("expired job GET: %d %s", resp.StatusCode, raw)
	}
}

func TestSweepStreamNDJSON(t *testing.T) {
	_, ts := newTestServerWith(t, Config{})
	body := `{"space":{"op":"speedup","ns":[64,128],"stencils":["5-point"],` +
		`"shapes":["square"],"machines":[{"type":"sync-bus"}],"procs":[2,4,8]}}`
	resp, err := http.Post(ts.URL+"/v2/sweeps/stream", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	const total = 2 * 3
	var results int
	var sawDone bool
	sc := bufio.NewScanner(resp.Body)
	seen := map[int]bool{}
	for sc.Scan() {
		var line StreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch {
		case line.Result != nil:
			if sawDone {
				t.Fatal("result after done line")
			}
			if seen[line.Result.Index] {
				t.Fatalf("index %d streamed twice", line.Result.Index)
			}
			seen[line.Result.Index] = true
			if line.Result.Error != "" || line.Result.Value <= 0 {
				t.Fatalf("bad streamed result %+v", line.Result)
			}
			results++
		case line.Done:
			sawDone = true
			if line.Stats == nil || line.Stats.Specs != total || line.Stats.Errors != 0 {
				t.Fatalf("done stats %+v", line.Stats)
			}
		default:
			t.Fatalf("unrecognized line %q", sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if results != total || !sawDone {
		t.Fatalf("streamed %d results (done=%v), want %d", results, sawDone, total)
	}
}

func TestSweepStreamValidation(t *testing.T) {
	_, ts := newTestServerWith(t, Config{})
	resp, raw := doJSON(t, http.MethodPost, ts.URL+"/v2/sweeps/stream", `{}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty stream request: %d %s", resp.StatusCode, raw)
	}
	var env V2ErrorResponse
	if err := json.Unmarshal(raw, &env); err != nil || env.Error.Code != codeInvalidRequest {
		t.Fatalf("envelope %s", raw)
	}
}

func TestRequestIDMiddleware(t *testing.T) {
	_, ts := newTestServerWith(t, Config{})
	// A well-formed client id is honored and echoed.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v2/jobs/missing", nil)
	req.Header.Set("X-Request-ID", "client-id-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var env V2ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "client-id-42" {
		t.Fatalf("echoed id %q", got)
	}
	if env.Error.RequestID != "client-id-42" {
		t.Fatalf("envelope id %q", env.Error.RequestID)
	}
	// A malformed id is replaced with a generated one.
	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "bad id with spaces")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	got := resp.Header.Get("X-Request-ID")
	if got == "" || strings.Contains(got, " ") {
		t.Fatalf("malformed id passed through: %q", got)
	}
}

func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewJSONHandler(&syncWriter{mu: &mu, w: &buf}, nil))
	_, ts := newTestServerWith(t, Config{Logger: logger})
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/architectures", nil)
	req.Header.Set("X-Request-ID", "log-probe-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	var entry map[string]any
	if err := json.Unmarshal([]byte(out), &entry); err != nil {
		t.Fatalf("access log is not one JSON line: %q", out)
	}
	if entry["request_id"] != "log-probe-1" || entry["path"] != "/v1/architectures" ||
		entry["method"] != http.MethodGet || entry["status"] != float64(http.StatusOK) {
		t.Fatalf("access log entry %+v", entry)
	}
	if _, ok := entry["duration"]; !ok {
		t.Fatalf("access log entry lacks duration: %+v", entry)
	}
}

// syncWriter guards the log buffer: the handler goroutine writes while
// the test reads.
type syncWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

func TestMetricsEndpointInstrumented(t *testing.T) {
	_, ts := newTestServerWith(t, Config{})
	// First call creates the metrics entry; the second must observe it.
	doJSON(t, http.MethodGet, ts.URL+"/v1/metrics", "")
	_, raw := doJSON(t, http.MethodGet, ts.URL+"/v1/metrics", "")
	var got MetricsResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	ep, ok := got.Endpoints["metrics"]
	if !ok || ep.Count < 1 {
		t.Fatalf("metrics endpoint not instrumented: %+v", got.Endpoints)
	}
}
