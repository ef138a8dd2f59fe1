package service

import (
	"context"
	"errors"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"optspeed/internal/admit"
	"optspeed/internal/telemetry"
)

// deadlineHeader carries a propagated request deadline: either an
// RFC3339(Nano) absolute timestamp or a Go duration relative to
// arrival ("2s", "750ms"). The service derives the request context's
// deadline from it, job runners inherit it, and the dispatch layer
// forwards it to peers — so one budget governs the whole call tree.
const deadlineHeader = "X-Request-Deadline"

// apiKey extracts the caller's API key: "Authorization: Bearer <key>"
// preferred, X-API-Key accepted. Empty means the anonymous tier.
func apiKey(r *http.Request) string {
	if h := r.Header.Get("Authorization"); h != "" {
		const prefix = "Bearer "
		if len(h) > len(prefix) && strings.EqualFold(h[:len(prefix)], prefix) {
			return strings.TrimSpace(h[len(prefix):])
		}
	}
	return r.Header.Get("X-API-Key")
}

// withTenant resolves the request's API key to a tenant and stashes it
// in the context. An unknown key is a hard 401 — it must not silently
// fall into the anonymous tier, or a typo'd key consumes someone
// else's quota.
func (s *Server) withTenant(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tn, err := s.admission.Resolve(apiKey(r))
		if err != nil {
			s.writeV2Error(w, r, http.StatusUnauthorized, codeUnknownAPIKey,
				"unknown API key")
			return
		}
		noteTenant(r.Context(), tn.Name())
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), tenantCtxKey, tn)))
	})
}

// parseDeadline interprets the deadline header value.
func parseDeadline(raw string, now time.Time) (time.Time, bool) {
	if d, err := time.ParseDuration(raw); err == nil {
		if d <= 0 {
			return now, true // already expired on arrival
		}
		return now.Add(d), true
	}
	if t, err := time.Parse(time.RFC3339Nano, raw); err == nil {
		return t, true
	}
	return time.Time{}, false
}

// withDeadline derives the request context's deadline from the
// deadline header. A deadline already expired on arrival is answered
// 504 immediately — cheaper than evaluating work nobody will read —
// and the context is flagged so handlers can report an in-flight
// expiry as 504 deadline_exceeded rather than a silent client abort.
func (s *Server) withDeadline(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		raw := r.Header.Get(deadlineHeader)
		if raw == "" {
			next.ServeHTTP(w, r)
			return
		}
		deadline, ok := parseDeadline(raw, time.Now())
		if !ok {
			s.writeV2Error(w, r, http.StatusBadRequest, codeInvalidRequest,
				"invalid %s %q: want a Go duration or an RFC3339 timestamp", deadlineHeader, raw)
			return
		}
		if !deadline.After(time.Now()) {
			s.writeV2Error(w, r, http.StatusGatewayTimeout, codeDeadlineExceeded,
				"request deadline already expired on arrival")
			return
		}
		ctx := context.WithValue(r.Context(), deadlineCtxKey, true)
		ctx, cancel := context.WithDeadline(ctx, deadline)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// hadDeadline reports whether the request carried a deadline header —
// the discriminator between "client hung up" (499, nothing to say) and
// "the propagated budget ran out" (504, worth answering).
func hadDeadline(ctx context.Context) bool {
	had, _ := ctx.Value(deadlineCtxKey).(bool)
	return had
}

// tenantFrom returns the tenant the middleware resolved (anonymous for
// requests that bypassed it, e.g. direct handler tests).
func (s *Server) tenantFrom(ctx context.Context) *admit.Tenant {
	if tn, ok := ctx.Value(tenantCtxKey).(*admit.Tenant); ok {
		return tn
	}
	return s.admission.Anonymous()
}

// writeRejection renders an admission rejection: the typed v2 envelope
// plus a Retry-After header in whole seconds (rounded up, at least 1)
// so dumb clients can pace themselves off the header alone while
// richer ones read the millisecond field in the body.
func (s *Server) writeRejection(w http.ResponseWriter, r *http.Request, rej *admit.Rejection) {
	retryAfter := rej.RetryAfter
	if retryAfter <= 0 {
		retryAfter = admit.DefaultQuotaRetryAfter
	}
	secs := int64(math.Ceil(retryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	// Access-log vocabulary: both tenant-level rejections (token bucket,
	// job quota) log as rate_limited; a gate shed logs as shed.
	switch rej.Code {
	case admit.CodeOverloaded:
		noteAdmission(r.Context(), "shed")
	default:
		noteAdmission(r.Context(), "rate_limited")
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	s.writeJSON(w, r, rej.Status, V2ErrorResponse{Error: APIErrorBody{
		Code:         rej.Code,
		Message:      rej.Message,
		RequestID:    telemetry.RequestIDFrom(r.Context()),
		Tenant:       rej.Tenant,
		RetryAfterMs: retryAfter.Milliseconds(),
	}})
}

// admitRequest runs the per-tenant rate check for one evaluation
// request. A false return means the 429 was already written.
func (s *Server) admitRequest(w http.ResponseWriter, r *http.Request) (*admit.Tenant, bool) {
	tn := s.tenantFrom(r.Context())
	if rej := tn.AllowRequest(); rej != nil {
		s.writeRejection(w, r, rej)
		return nil, false
	}
	noteAdmission(r.Context(), "admitted")
	return tn, true
}

// admitEvaluation passes the server-wide gate ahead of a synchronous
// evaluation of the given cost (estimated spec count). A false return
// means the rejection was already written: 503 overloaded on a shed,
// 499/504 when the caller's context died while queued. On true the
// returned release must be called when evaluation finishes.
func (s *Server) admitEvaluation(w http.ResponseWriter, r *http.Request, cost int) (func(), bool) {
	release, err := s.admission.Gate().Acquire(r.Context(), cost)
	if err == nil {
		return release, true
	}
	var rej *admit.Rejection
	switch {
	case errors.As(err, &rej):
		s.writeRejection(w, r, rej)
	case hadDeadline(r.Context()) && errors.Is(err, context.DeadlineExceeded):
		s.writeV2Error(w, r, http.StatusGatewayTimeout, codeDeadlineExceeded,
			"request deadline expired while waiting for admission")
	default:
		// The client hung up while queued; nobody reads a body, but the
		// abort should be visible in metrics.
		w.WriteHeader(statusClientClosedRequest)
	}
	return nil, false
}

// writeSyncFailure reports a synchronous evaluation that ended with a
// dead context: an explicit 504 when the request carried a deadline
// budget that ran out, otherwise the recorded-not-sent 499.
func (s *Server) writeSyncFailure(w http.ResponseWriter, r *http.Request) {
	if hadDeadline(r.Context()) && errors.Is(r.Context().Err(), context.DeadlineExceeded) {
		s.writeV2Error(w, r, http.StatusGatewayTimeout, codeDeadlineExceeded,
			"request deadline exceeded during evaluation")
		return
	}
	w.WriteHeader(statusClientClosedRequest)
}
