package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"optspeed/internal/admit"
)

const optimizeBody = `{"n":256,"stencil":"5-point","shape":"square","machine":{"type":"sync-bus"}}`

// doRequest is doJSON plus arbitrary request headers.
func doRequest(t *testing.T, method, url, body string, headers map[string]string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// envelope decodes a v2 error body's fields under test.
func envelope(t *testing.T, raw []byte) (code, tenant string, retryAfterMs int64) {
	t.Helper()
	var env struct {
		Error struct {
			Code         string `json:"code"`
			Tenant       string `json:"tenant"`
			RetryAfterMs int64  `json:"retry_after_ms"`
		} `json:"error"`
	}
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("bad error envelope %s: %v", raw, err)
	}
	return env.Error.Code, env.Error.Tenant, env.Error.RetryAfterMs
}

func testTenantsController(t *testing.T, tf *admit.TenantsFile, gate admit.GateConfig) *admit.Controller {
	t.Helper()
	return admit.New(admit.Config{Tenants: tf, Gate: gate})
}

// TestTenantRateLimit429 drives a burst-1 tenant past its rate and
// checks the whole rejection contract: status, stable code, tenant
// attribution, Retry-After header, and the millisecond envelope field.
func TestTenantRateLimit429(t *testing.T) {
	adm := testTenantsController(t, &admit.TenantsFile{
		Tenants: []admit.TenantConfig{{Name: "acme", Key: "k-acme", Rate: 0.001, Burst: 1}},
	}, admit.GateConfig{})
	_, ts := newTestServerWith(t, Config{Admission: adm})

	bearer := map[string]string{"Authorization": "Bearer k-acme"}
	resp, raw := doRequest(t, http.MethodPost, ts.URL+"/v1/optimize", optimizeBody, bearer)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request status %d: %s", resp.StatusCode, raw)
	}
	resp, raw = doRequest(t, http.MethodPost, ts.URL+"/v1/optimize", optimizeBody, bearer)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("rate-limited request status %d: %s", resp.StatusCode, raw)
	}
	code, tenant, retryMs := envelope(t, raw)
	if code != admit.CodeRateLimited || tenant != "acme" || retryMs <= 0 {
		t.Fatalf("envelope code=%q tenant=%q retry_after_ms=%d: %s", code, tenant, retryMs, raw)
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
		t.Fatalf("Retry-After header %q, want whole seconds >= 1", resp.Header.Get("Retry-After"))
	}
	// X-API-Key resolves to the same tenant, which is still limited.
	resp, raw = doRequest(t, http.MethodPost, ts.URL+"/v1/optimize", optimizeBody,
		map[string]string{"X-API-Key": "k-acme"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("X-API-Key request status %d: %s", resp.StatusCode, raw)
	}
}

// TestUnknownAPIKey401: a typo'd key must be a hard authentication
// failure, never a silent fall-through into the anonymous tier.
func TestUnknownAPIKey401(t *testing.T) {
	adm := testTenantsController(t, &admit.TenantsFile{
		Tenants: []admit.TenantConfig{{Name: "acme", Key: "k-acme"}},
	}, admit.GateConfig{})
	_, ts := newTestServerWith(t, Config{Admission: adm})
	resp, raw := doRequest(t, http.MethodPost, ts.URL+"/v1/optimize", optimizeBody,
		map[string]string{"Authorization": "Bearer nope"})
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unknown key status %d: %s", resp.StatusCode, raw)
	}
	if code, _, _ := envelope(t, raw); code != codeUnknownAPIKey {
		t.Fatalf("unknown key code %q: %s", code, raw)
	}
}

// TestGateShed503: with the single slot held and no queue, a request is
// shed with an explicit 503 overloaded carrying Retry-After.
func TestGateShed503(t *testing.T) {
	adm := admit.New(admit.Config{Gate: admit.GateConfig{
		MaxConcurrent: 1, MaxQueue: -1, MaxWait: 20 * time.Millisecond,
	}})
	_, ts := newTestServerWith(t, Config{Admission: adm})

	release, err := adm.Gate().Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	resp, raw := doRequest(t, http.MethodPost, ts.URL+"/v1/optimize", optimizeBody, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed status %d: %s", resp.StatusCode, raw)
	}
	code, _, retryMs := envelope(t, raw)
	if code != admit.CodeOverloaded || retryMs <= 0 {
		t.Fatalf("shed envelope code=%q retry_after_ms=%d: %s", code, retryMs, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed 503 without a Retry-After header")
	}
}

// TestDeadlineHeader covers the X-Request-Deadline contract: expired on
// arrival is an immediate 504, garbage is a 400, a live budget passes.
func TestDeadlineHeader(t *testing.T) {
	_, ts := newTestServerWith(t, Config{})
	cases := []struct {
		value  string
		status int
		code   string
	}{
		{"0s", http.StatusGatewayTimeout, codeDeadlineExceeded},
		{"-5s", http.StatusGatewayTimeout, codeDeadlineExceeded},
		{time.Now().Add(-time.Minute).UTC().Format(time.RFC3339Nano), http.StatusGatewayTimeout, codeDeadlineExceeded},
		{"not-a-deadline", http.StatusBadRequest, codeInvalidRequest},
		{"10s", http.StatusOK, ""},
		{time.Now().Add(time.Minute).UTC().Format(time.RFC3339Nano), http.StatusOK, ""},
	}
	for _, tc := range cases {
		resp, raw := doRequest(t, http.MethodPost, ts.URL+"/v1/optimize", optimizeBody,
			map[string]string{"X-Request-Deadline": tc.value})
		if resp.StatusCode != tc.status {
			t.Fatalf("deadline %q: status %d, want %d: %s", tc.value, resp.StatusCode, tc.status, raw)
		}
		if tc.code != "" {
			if code, _, _ := envelope(t, raw); code != tc.code {
				t.Fatalf("deadline %q: code %q, want %q: %s", tc.value, code, tc.code, raw)
			}
		}
	}
}

// TestJobQuotaLifecycle: a tenant at its concurrent-job quota gets a
// 429 quota_exceeded on submit, and the quota slot is returned when the
// job reaches a terminal state — so the next submit is admitted.
func TestJobQuotaLifecycle(t *testing.T) {
	adm := testTenantsController(t, &admit.TenantsFile{
		Tenants: []admit.TenantConfig{{Name: "quota", Key: "k-quota", MaxConcurrentJobs: 1}},
	}, admit.GateConfig{})
	_, ts := newTestServerWith(t, Config{Admission: adm})
	bearer := map[string]string{"Authorization": "Bearer k-quota"}
	jobBody := `{"sweep":{"space":{"ns":[64],"stencils":["5-point"],"shapes":["strip"],"machines":[{"type":"sync-bus"}]}}}`

	// Fill the tenant's only job slot out of band, then watch the HTTP
	// submit bounce deterministically.
	tn, err := adm.Resolve("k-quota")
	if err != nil {
		t.Fatal(err)
	}
	release, rej := tn.AcquireJob(1)
	if rej != nil {
		t.Fatal(rej)
	}
	resp, raw := doRequest(t, http.MethodPost, ts.URL+"/v2/jobs", jobBody, bearer)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit status %d: %s", resp.StatusCode, raw)
	}
	if code, tenant, _ := envelope(t, raw); code != admit.CodeQuotaExceeded || tenant != "quota" {
		t.Fatalf("over-quota envelope code=%q tenant=%q: %s", code, tenant, raw)
	}
	release()

	// With the slot free the submit is admitted; once that job turns
	// terminal, its OnDone release frees the quota for the next one.
	resp, raw = doRequest(t, http.MethodPost, ts.URL+"/v2/jobs", jobBody, bearer)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, raw)
	}
	var job JobJSON
	if err := json.Unmarshal(raw, &job); err != nil {
		t.Fatal(err)
	}
	pollJob(t, ts.URL, job.ID, terminal)
	// The OnDone release fires as the runner unwinds, which can trail
	// the terminal snapshot by a beat — retry briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, raw = doRequest(t, http.MethodPost, ts.URL+"/v2/jobs", jobBody, bearer)
		if resp.StatusCode == http.StatusAccepted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("quota never released after terminal job: status %d: %s", resp.StatusCode, raw)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFailedSubmitReleasesQuota: a submission the store rejects must
// hand the reserved quota straight back.
func TestFailedSubmitReleasesQuota(t *testing.T) {
	adm := testTenantsController(t, &admit.TenantsFile{
		Tenants: []admit.TenantConfig{{Name: "q1", Key: "k-q1", MaxConcurrentJobs: 1}},
	}, admit.GateConfig{})
	srv, ts := newTestServerWith(t, Config{Admission: adm})
	bearer := map[string]string{"Authorization": "Bearer k-q1"}
	jobBody := `{"sweep":{"space":{"ns":[64],"stencils":["5-point"],"shapes":["strip"],"machines":[{"type":"sync-bus"}]}}}`

	// Closing the store makes every submit fail with ErrClosed.
	srv.store.Close()
	resp, raw := doRequest(t, http.MethodPost, ts.URL+"/v2/jobs", jobBody, bearer)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit to closed store status %d: %s", resp.StatusCode, raw)
	}
	tn, err := adm.Resolve("k-q1")
	if err != nil {
		t.Fatal(err)
	}
	if st := tn.Stats(); st.InFlightJobs != 0 || st.QueuedCost != 0 {
		t.Fatalf("quota leaked after failed submit: %+v", st)
	}
}

// TestMetricsReportsAdmission: /v1/metrics carries the admission block
// with gate counters and per-tenant stats.
func TestMetricsReportsAdmission(t *testing.T) {
	adm := testTenantsController(t, &admit.TenantsFile{
		Tenants: []admit.TenantConfig{{Name: "acme", Key: "k-acme", Rate: 0.001, Burst: 1}},
	}, admit.GateConfig{})
	_, ts := newTestServerWith(t, Config{Admission: adm})
	bearer := map[string]string{"Authorization": "Bearer k-acme"}
	doRequest(t, http.MethodPost, ts.URL+"/v1/optimize", optimizeBody, bearer)
	doRequest(t, http.MethodPost, ts.URL+"/v1/optimize", optimizeBody, bearer) // rate-limited
	resp, raw := doRequest(t, http.MethodGet, ts.URL+"/v1/metrics", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d: %s", resp.StatusCode, raw)
	}
	var m struct {
		Admission *admit.Stats `json:"admission"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.Admission == nil {
		t.Fatalf("metrics without admission block: %s", raw)
	}
	if m.Admission.Gate.Capacity <= 0 {
		t.Fatalf("admission gate capacity %d", m.Admission.Gate.Capacity)
	}
	acme := m.Admission.Tenants["acme"]
	if acme.Admitted != 1 || acme.RateLimited != 1 {
		t.Fatalf("acme stats %+v, want 1 admitted / 1 rate-limited", acme)
	}
	if _, ok := m.Admission.Tenants[admit.AnonymousTenant]; !ok {
		t.Fatalf("metrics missing the anonymous tenant: %s", raw)
	}
}

// TestShedRequestsDoNotLeakGoroutines hammers a zero-queue gate with
// concurrent requests that all shed, plus a volley of expired-deadline
// requests, and asserts the goroutine count settles back to its
// starting neighborhood — shed paths must not park anything.
func TestShedRequestsDoNotLeakGoroutines(t *testing.T) {
	adm := admit.New(admit.Config{Gate: admit.GateConfig{
		MaxConcurrent: 1, MaxQueue: -1, MaxWait: 10 * time.Millisecond,
	}})
	_, ts := newTestServerWith(t, Config{Admission: adm})
	client := &http.Client{}

	before := runtime.NumGoroutine()
	release, err := adm.Gate().Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var sheds, timeouts, unexpected [64]int
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			headers := map[string]string{}
			want := http.StatusServiceUnavailable
			if i%4 == 0 {
				headers["X-Request-Deadline"] = "0s"
				want = http.StatusGatewayTimeout
			}
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/optimize", strings.NewReader(optimizeBody))
			if err != nil {
				unexpected[i]++
				return
			}
			req.Header.Set("Content-Type", "application/json")
			for k, v := range headers {
				req.Header.Set(k, v)
			}
			resp, err := client.Do(req)
			if err != nil {
				unexpected[i]++
				return
			}
			resp.Body.Close()
			switch {
			case resp.StatusCode == want && want == http.StatusServiceUnavailable:
				sheds[i]++
			case resp.StatusCode == want:
				timeouts[i]++
			default:
				unexpected[i]++
			}
		}(i)
	}
	wg.Wait()
	release()

	var nShed, nTimeout, nOther int
	for i := range sheds {
		nShed += sheds[i]
		nTimeout += timeouts[i]
		nOther += unexpected[i]
	}
	if nOther != 0 || nShed == 0 || nTimeout == 0 {
		t.Fatalf("sheds=%d timeouts=%d unexpected=%d", nShed, nTimeout, nOther)
	}

	client.CloseIdleConnections()
	ts.Client().CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+8 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d never settled near baseline %d after shed burst",
				runtime.NumGoroutine(), before)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// overloadTally is one overload client's private outcome counts.
type overloadTally struct {
	admitted     []time.Duration // latencies of non-stream 200s
	streamed     int             // 200 streams read through the done line
	sheds        int             // explicit 429/503 rejections
	noRetryAfter int             // sheds without a Retry-After header
	severed      int             // 200 streams that ended without the done line
	hard         int             // transport errors and any other status
}

// overloadClient posts body to url back to back until end. A stream
// client reads each 200 through to the NDJSON done line; a severed
// stream is one that ends before it.
func overloadClient(client *http.Client, url, body string, stream bool, end time.Time, o *overloadTally) {
	for time.Now().Before(end) {
		start := time.Now()
		resp, err := client.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			o.hard++
			continue
		}
		switch {
		case resp.StatusCode == http.StatusOK && stream:
			done := false
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				done = bytes.Contains(sc.Bytes(), []byte(`"done":true`))
			}
			if sc.Err() != nil || !done {
				o.severed++
			} else {
				o.streamed++
			}
		case resp.StatusCode == http.StatusOK:
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				o.hard++
			} else {
				o.admitted = append(o.admitted, time.Since(start))
			}
		case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
			o.sheds++
			if resp.Header.Get("Retry-After") == "" {
				o.noRetryAfter++
			}
			io.Copy(io.Discard, resp.Body)
		default:
			o.hard++
			io.Copy(io.Discard, resp.Body)
		}
		resp.Body.Close()
	}
}

// driveOverload runs optimize clients (and stream clients) for d and
// merges their tallies.
func driveOverload(client *http.Client, base string, clients, streams int, d time.Duration) overloadTally {
	// A deliberately tiny stream space (2 specs), so streams contend for
	// gate slots without each one hogging the server.
	const streamBody = `{"space":{"ns":[96,160],"stencils":["5-point"],"shapes":["strip"],` +
		`"machines":[{"type":"sync-bus"}]}}`
	end := time.Now().Add(d)
	tallies := make([]overloadTally, clients+streams)
	var wg sync.WaitGroup
	for i := range tallies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i < clients {
				overloadClient(client, base+"/v1/optimize", optimizeBody, false, end, &tallies[i])
			} else {
				overloadClient(client, base+"/v2/sweeps/stream", streamBody, true, end, &tallies[i])
			}
		}(i)
	}
	wg.Wait()
	var all overloadTally
	for _, o := range tallies {
		all.admitted = append(all.admitted, o.admitted...)
		all.streamed += o.streamed
		all.sheds += o.sheds
		all.noRetryAfter += o.noRetryAfter
		all.severed += o.severed
		all.hard += o.hard
	}
	slices.Sort(all.admitted)
	return all
}

// p99 is the nearest-rank 99th percentile of sorted latencies.
func p99(sorted []time.Duration) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[(len(sorted)*99+99)/100-1]
}

// TestOverloadDegradesGracefully drives a capacity-4 admission gate at
// 3x its capacity, with NDJSON stream clients on the same gate, and
// checks that overload degrades gracefully: every rejection is an
// explicit 429/503 carrying Retry-After, no admitted stream is severed,
// goroutines settle, and admitted p99 stays within 2x the uncontended
// p99 plus the gate's 25ms wait bound (the floor keeps sub-millisecond
// baselines from gating on scheduler noise).
func TestOverloadDegradesGracefully(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test; skipped under -short")
	}
	const capacity = 4
	const maxWait = 25 * time.Millisecond
	adm := admit.New(admit.Config{Gate: admit.GateConfig{
		MaxConcurrent: capacity, MaxQueue: capacity, MaxWait: maxWait,
	}})
	_, ts := newTestServerWith(t, Config{Admission: adm})
	client := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 4 * capacity},
		Timeout:   30 * time.Second,
	}
	before := runtime.NumGoroutine()

	// Prime the engine cache, then measure exactly capacity clients: the
	// gate never queues them, so this is the uncontended latency floor.
	driveOverload(client, ts.URL, 1, 0, 100*time.Millisecond)
	base := driveOverload(client, ts.URL, capacity, 0, time.Second)
	over := driveOverload(client, ts.URL, 3*capacity, 2, 2*time.Second)
	t.Logf("baseline p99 %v over %d requests; overload p99 %v over %d admitted, %d streams, %d sheds",
		p99(base.admitted), len(base.admitted), p99(over.admitted), len(over.admitted), over.streamed, over.sheds)

	if base.hard != 0 || len(base.admitted) == 0 {
		t.Fatalf("uncontended baseline: %d admitted, %d hard errors", len(base.admitted), base.hard)
	}
	if over.sheds == 0 || over.streamed == 0 {
		t.Fatalf("overload not exercised: %d sheds, %d completed streams", over.sheds, over.streamed)
	}
	if over.hard != 0 {
		t.Errorf("%d responses were neither admitted nor an explicit 429/503 shed", over.hard)
	}
	if over.noRetryAfter != 0 {
		t.Errorf("%d of %d sheds carried no Retry-After header", over.noRetryAfter, over.sheds)
	}
	if over.severed != 0 {
		t.Errorf("%d admitted streams were severed before their done line", over.severed)
	}
	if limit := 2*p99(base.admitted) + maxWait; p99(over.admitted) > limit {
		t.Errorf("admitted p99 %v exceeds 2x baseline p99 + %v = %v", p99(over.admitted), maxWait, limit)
	}

	client.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+8 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d never settled near baseline %d after overload",
				runtime.NumGoroutine(), before)
		}
		time.Sleep(25 * time.Millisecond)
	}
}
