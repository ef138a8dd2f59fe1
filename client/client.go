// Package client is the typed Go SDK for the optspeedd v2 job API:
// submit sweep or optimize jobs, poll and wait on them, page through
// their results, stream results live over NDJSON, and cancel them —
// all with context support and transparent retries of idempotent
// reads. Its request and response types are the server's own wire
// types, re-exported as aliases, so the SDK decodes every field the
// server encodes.
//
//	c, _ := client.New("http://localhost:8080")
//	job, _ := c.SubmitSweep(ctx, client.SweepRequest{Space: &client.Space{...}})
//	job, _ = c.Wait(ctx, job.ID)
//	it := c.JobResults(ctx, job.ID)
//	for it.Next() {
//		r := it.Result()
//		// ...
//	}
//	if err := it.Err(); err != nil { ... }
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"optspeed/internal/service"
)

// Defaults for retry and polling behavior.
const (
	DefaultRetries      = 2
	DefaultRetryBackoff = 100 * time.Millisecond
	DefaultPollInterval = 25 * time.Millisecond
	DefaultPollMax      = time.Second
	// RetryAfterCap bounds how long a server Retry-After hint is
	// honored between retry attempts: an overloaded server advertising
	// a long cooldown should push the caller into its own backoff
	// policy, not park an interactive request for minutes.
	RetryAfterCap = 5 * time.Second
)

// Client talks to one optspeedd server.
type Client struct {
	base    *url.URL
	hc      *http.Client
	retries int
	backoff time.Duration
	apiKey  string
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the transport (timeouts, proxies, test
// doubles). The default is a plain http.Client without a global
// timeout — per-call contexts bound each request instead, and a global
// timeout would sever long NDJSON streams.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithRetries sets how many times idempotent reads are retried after
// transport errors or 5xx responses, and the base backoff between
// attempts (doubled each retry). Writes are never retried: resubmitting
// a job is not idempotent.
func WithRetries(n int, backoff time.Duration) Option {
	return func(c *Client) {
		if n >= 0 {
			c.retries = n
		}
		if backoff > 0 {
			c.backoff = backoff
		}
	}
}

// WithAPIKey authenticates every request as the tenant the key maps to
// (sent as "Authorization: Bearer <key>"). Without it the client runs
// in the server's anonymous tier.
func WithAPIKey(key string) Option {
	return func(c *Client) { c.apiKey = key }
}

// New builds a client for the server at baseURL (scheme://host[:port]).
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(strings.TrimSuffix(baseURL, "/"))
	if err != nil {
		return nil, fmt.Errorf("client: bad base URL %q: %w", baseURL, err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("client: base URL %q needs a scheme and host", baseURL)
	}
	c := &Client{
		base:    u,
		hc:      &http.Client{},
		retries: DefaultRetries,
		backoff: DefaultRetryBackoff,
	}
	for _, opt := range opts {
		opt(c)
	}
	return c, nil
}

// APIError is a non-2xx server response, decoded from the v2 error
// envelope when present. RequestID correlates the failure with the
// server's access log.
type APIError struct {
	Status    int
	Code      string
	Message   string
	RequestID string
	// Tenant names the admission principal a 429 rejection applies to
	// ("" on non-admission errors).
	Tenant string
	// RetryAfter is the server's advisory retry interval from a 429 or
	// 503 rejection — the envelope's retry_after_ms when present, else
	// the Retry-After header; 0 when the server gave none. The GET
	// retry loop honors it (capped at RetryAfterCap, jittered).
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	msg := e.Message
	if msg == "" {
		msg = http.StatusText(e.Status)
	}
	if e.Code != "" {
		return fmt.Sprintf("client: %s (%s, http %d)", msg, e.Code, e.Status)
	}
	return fmt.Sprintf("client: %s (http %d)", msg, e.Status)
}

// apiError decodes a failed response into an *APIError.
func apiError(resp *http.Response, body []byte) *APIError {
	e := &APIError{Status: resp.StatusCode}
	var env service.V2ErrorResponse
	if json.Unmarshal(body, &env) == nil && (env.Error.Code != "" || env.Error.Message != "") {
		e.Code = env.Error.Code
		e.Message = env.Error.Message
		e.RequestID = env.Error.RequestID
		e.Tenant = env.Error.Tenant
		if env.Error.RetryAfterMs > 0 {
			e.RetryAfter = time.Duration(env.Error.RetryAfterMs) * time.Millisecond
		}
	} else {
		// v1-style or non-JSON error; keep a short snippet.
		s := strings.TrimSpace(string(body))
		if len(s) > 200 {
			s = s[:200]
		}
		e.Message = s
	}
	if e.RetryAfter == 0 {
		if secs, err := strconv.Atoi(strings.TrimSpace(resp.Header.Get("Retry-After"))); err == nil && secs > 0 {
			e.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return e
}

// endpoint joins the base URL with a path and query.
func (c *Client) endpoint(path string, query url.Values) string {
	u := *c.base
	u.Path = strings.TrimSuffix(u.Path, "/") + path
	if query != nil {
		u.RawQuery = query.Encode()
	}
	return u.String()
}

// retryable reports whether a response status is worth retrying on an
// idempotent request: server errors (the shed 503 among them) and the
// admission layer's 429, both of which advertise a Retry-After.
func retryable(status int) bool {
	return status == http.StatusTooManyRequests || status >= 500
}

// retryWait converts a server Retry-After hint into the actual pause:
// capped at RetryAfterCap, jittered ±25% so clients shed together do
// not re-arrive in lockstep and overload the gate all over again.
func retryWait(hint time.Duration) time.Duration {
	if hint > RetryAfterCap {
		hint = RetryAfterCap
	}
	return time.Duration(float64(hint) * (0.75 + 0.5*rand.Float64()))
}

// sleep waits d or until ctx dies.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// do runs one JSON round trip. GETs are retried on transport errors and
// 5xx responses with exponential backoff, honoring ctx between
// attempts; other methods run exactly once.
func (c *Client) do(ctx context.Context, method, path string, query url.Values, in, out any) error {
	var payload []byte
	if in != nil {
		var err error
		payload, err = json.Marshal(in)
		if err != nil {
			return fmt.Errorf("client: encode request: %w", err)
		}
	}
	attempts := 1
	if method == http.MethodGet {
		attempts += c.retries
	}
	backoff := c.backoff
	var serverWait time.Duration // Retry-After from the last rejection
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			wait := backoff
			backoff *= 2
			if serverWait > 0 {
				// The server said when to come back; its word beats the
				// local backoff schedule.
				wait = retryWait(serverWait)
				serverWait = 0
			}
			if err := sleep(ctx, wait); err != nil {
				return err
			}
		}
		var body io.Reader
		if payload != nil {
			body = bytes.NewReader(payload)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.endpoint(path, query), body)
		if err != nil {
			return fmt.Errorf("client: build request: %w", err)
		}
		if payload != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if c.apiKey != "" {
			req.Header.Set("Authorization", "Bearer "+c.apiKey)
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			lastErr = fmt.Errorf("client: %s %s: %w", method, path, err)
			continue
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			lastErr = fmt.Errorf("client: read response: %w", err)
			continue
		}
		if resp.StatusCode < 200 || resp.StatusCode > 299 {
			apiErr := apiError(resp, raw)
			if retryable(resp.StatusCode) {
				lastErr = apiErr
				serverWait = apiErr.RetryAfter
				continue
			}
			return apiErr
		}
		if out == nil {
			return nil
		}
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("client: decode response: %w", err)
		}
		return nil
	}
	return lastErr
}
