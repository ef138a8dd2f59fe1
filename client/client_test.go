package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"optspeed/client"
)

// TestRetryOnTransient5xx: idempotent reads retry past 5xx responses
// and succeed once the server recovers.
func TestRetryOnTransient5xx(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(client.Job{ID: "j1", Kind: "sweep", State: client.JobSucceeded})
	}))
	defer ts.Close()
	c, err := client.New(ts.URL, client.WithRetries(3, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	job, err := c.Job(context.Background(), "j1")
	if err != nil {
		t.Fatal(err)
	}
	if job.ID != "j1" || calls.Load() != 3 {
		t.Fatalf("job %+v after %d calls", job, calls.Load())
	}
}

// TestRetriesExhausted: a persistently failing read surfaces the last
// APIError after the configured attempts.
func TestRetriesExhausted(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer ts.Close()
	c, err := client.New(ts.URL, client.WithRetries(2, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Job(context.Background(), "j1")
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusInternalServerError {
		t.Fatalf("error %v", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("%d calls, want 3 (1 + 2 retries)", calls.Load())
	}
}

// TestWritesNeverRetried: submissions are not idempotent and must run
// exactly once even when they fail retryably.
func TestWritesNeverRetried(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	c, err := client.New(ts.URL, client.WithRetries(5, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitSweep(context.Background(), client.SweepRequest{}); err == nil {
		t.Fatal("failed submit reported success")
	}
	if calls.Load() != 1 {
		t.Fatalf("submit ran %d times, want exactly 1", calls.Load())
	}
}

// TestRetryBackoffHonorsContext: cancelling mid-backoff aborts promptly
// with the context error instead of sleeping out the schedule.
func TestRetryBackoffHonorsContext(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer ts.Close()
	c, err := client.New(ts.URL, client.WithRetries(10, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.Job(ctx, "j1")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("retry loop slept %v past its context", elapsed)
	}
}

// TestWaitHonorsContext: polling a never-finishing job stops with the
// context.
func TestWaitHonorsContext(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(client.Job{ID: "j1", State: client.JobRunning})
	}))
	defer ts.Close()
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := c.Wait(ctx, "j1"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait returned %v, want deadline exceeded", err)
	}
}

// TestAPIErrorEnvelope: the v2 envelope decodes into a typed APIError.
func TestAPIErrorEnvelope(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		_, _ = w.Write([]byte(`{"error":{"code":"not_found","message":"no such job","request_id":"rid-1"}}`))
	}))
	defer ts.Close()
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Job(context.Background(), "nope")
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("error %v", err)
	}
	if apiErr.Status != 404 || apiErr.Code != "not_found" || apiErr.RequestID != "rid-1" {
		t.Fatalf("APIError %+v", apiErr)
	}
}

func TestBadBaseURL(t *testing.T) {
	for _, raw := range []string{"", "not a url", "localhost:8080"} {
		if _, err := client.New(raw); err == nil {
			t.Fatalf("New(%q) accepted a bad base URL", raw)
		}
	}
}

// TestNegativeRetriesStillRequests: a bogus negative retry count must
// not zero out the attempt loop and fabricate empty successes.
func TestNegativeRetriesStillRequests(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(client.Job{ID: "j1", State: client.JobSucceeded})
	}))
	defer ts.Close()
	c, err := client.New(ts.URL, client.WithRetries(-5, 0))
	if err != nil {
		t.Fatal(err)
	}
	job, err := c.Job(context.Background(), "j1")
	if err != nil || job.ID != "j1" {
		t.Fatalf("job %+v, err %v", job, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("%d requests issued, want 1", calls.Load())
	}
}

// TestRetryHonorsRetryAfterOn429: a rate-limited read waits out the
// server's advisory interval (not just the local backoff) and succeeds
// on the next attempt.
func TestRetryHonorsRetryAfterOn429(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			_, _ = w.Write([]byte(`{"error":{"code":"rate_limited","message":"slow down","tenant":"acme","retry_after_ms":60}}`))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(client.Job{ID: "j1", State: client.JobSucceeded})
	}))
	defer ts.Close()
	c, err := client.New(ts.URL, client.WithRetries(2, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	job, err := c.Job(context.Background(), "j1")
	if err != nil || job.ID != "j1" {
		t.Fatalf("job %+v, err %v", job, err)
	}
	if calls.Load() != 2 {
		t.Fatalf("%d calls, want 2", calls.Load())
	}
	// The envelope advertised 60ms; even at maximum downward jitter
	// (x0.75) the wait must dwarf the 1ms local backoff base.
	if elapsed := time.Since(start); elapsed < 45*time.Millisecond {
		t.Fatalf("retried after %v, ignoring the 60ms Retry-After hint", elapsed)
	}
}

// TestRejection429CarriesTenantAndRetryAfter: a rate-limited write is
// not retried, and the typed error exposes who was limited and the
// server's advisory interval.
func TestRejection429CarriesTenantAndRetryAfter(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "1")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		_, _ = w.Write([]byte(`{"error":{"code":"rate_limited","message":"slow down","tenant":"acme","retry_after_ms":250}}`))
	}))
	defer ts.Close()
	c, err := client.New(ts.URL, client.WithRetries(5, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.SubmitSweep(context.Background(), client.SweepRequest{})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("error %v", err)
	}
	if apiErr.Status != http.StatusTooManyRequests || apiErr.Code != "rate_limited" {
		t.Fatalf("APIError %+v", apiErr)
	}
	if apiErr.Tenant != "acme" || apiErr.RetryAfter != 250*time.Millisecond {
		t.Fatalf("tenant %q retry-after %v, want acme / 250ms", apiErr.Tenant, apiErr.RetryAfter)
	}
	if calls.Load() != 1 {
		t.Fatalf("rate-limited submit ran %d times, want exactly 1", calls.Load())
	}
}

// TestRetryAfterHeaderFallback: a shed 503 without a JSON envelope
// still yields the Retry-After header through the typed error.
func TestRetryAfterHeaderFallback(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "2")
		http.Error(w, "overloaded", http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	c, err := client.New(ts.URL, client.WithRetries(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Job(context.Background(), "j1")
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("error %v", err)
	}
	if apiErr.Status != http.StatusServiceUnavailable || apiErr.RetryAfter != 2*time.Second {
		t.Fatalf("APIError %+v, want 503 with 2s Retry-After", apiErr)
	}
}

// TestAPIKeySentAsBearer: WithAPIKey stamps every request with the
// tenant credential.
func TestAPIKeySentAsBearer(t *testing.T) {
	var got atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got.Store(r.Header.Get("Authorization"))
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(client.Job{ID: "j1", State: client.JobSucceeded})
	}))
	defer ts.Close()
	c, err := client.New(ts.URL, client.WithAPIKey("sekret"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Job(context.Background(), "j1"); err != nil {
		t.Fatal(err)
	}
	if auth, _ := got.Load().(string); auth != "Bearer sekret" {
		t.Fatalf("Authorization %q, want Bearer sekret", auth)
	}
}

// TestJobCarriesShardsHedged: a job body's progress.shards_hedged
// counter reaches the SDK's Job, with every other progress field.
func TestJobCarriesShardsHedged(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"id":"j1","kind":"sweep","state":"running",` +
			`"created_at":"2024-01-02T03:04:05Z","progress":{"total":16,"completed":8,` +
			`"evaluated":6,"cache_hits":2,"errors":0,"shards":2,"shards_done":1,"shards_hedged":2}}`))
	}))
	defer ts.Close()
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	job, err := c.Job(context.Background(), "j1")
	if err != nil {
		t.Fatal(err)
	}
	want := client.Progress{Total: 16, Completed: 8, Evaluated: 6, CacheHits: 2,
		Shards: 2, ShardsDone: 1, ShardsHedged: 2}
	if job.State != client.JobRunning || job.Progress != want {
		t.Fatalf("job %s progress %+v, want running with %+v", job.State, job.Progress, want)
	}
}
