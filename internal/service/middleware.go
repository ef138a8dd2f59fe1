package service

import (
	"context"
	"log/slog"
	"net/http"
	"time"

	"optspeed/internal/jobs"
	"optspeed/internal/telemetry"
)

// requestIDHeader is honored on requests and echoed on every response.
const requestIDHeader = "X-Request-ID"

type ctxKey int

// Context keys (explicit values keep the space auditable; the request
// id itself lives on telemetry's keys so dispatch can forward it to
// peers without importing this package).
const (
	accessInfoKey  ctxKey = 0
	tenantCtxKey   ctxKey = 1
	deadlineCtxKey ctxKey = 2
)

// validRequestID accepts client-supplied ids that are safe to echo into
// headers and logs: short and limited to URL-ish token characters.
func validRequestID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '_' || c == '.':
		default:
			return false
		}
	}
	return true
}

// withRequestID honors an incoming X-Request-ID (when well-formed) or
// generates one, echoes it on the response, and stashes it in the
// request context for the error envelope, the access log, and — via
// telemetry's context keys — peer forwarding in the dispatch layer.
func (s *Server) withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(requestIDHeader)
		if !validRequestID(id) {
			id = jobs.NewID()
		}
		w.Header().Set(requestIDHeader, id)
		next.ServeHTTP(w, r.WithContext(telemetry.WithRequestID(r.Context(), id)))
	})
}

// accessInfo collects per-request facts discovered after the access-log
// middleware ran but worth one log line: the resolved tenant and how
// admission treated the request. The holder is mutable through the
// context on purpose — inner middleware and handlers fill it, the
// access log reads it after the handler returns.
type accessInfo struct {
	tenant    string
	admission string // "", "admitted", "rate_limited", "shed"
}

// accessInfoFrom returns the request's accessInfo holder, nil outside
// the access-log middleware (direct handler tests, nil logger).
func accessInfoFrom(ctx context.Context) *accessInfo {
	ai, _ := ctx.Value(accessInfoKey).(*accessInfo)
	return ai
}

// noteTenant records the resolved tenant for the access log.
func noteTenant(ctx context.Context, name string) {
	if ai := accessInfoFrom(ctx); ai != nil {
		ai.tenant = name
	}
}

// noteAdmission records the admission outcome for the access log.
// Later notes win: a request admitted by the tenant rate check and
// then shed by the gate logs as shed.
func noteAdmission(ctx context.Context, outcome string) {
	if ai := accessInfoFrom(ctx); ai != nil {
		ai.admission = outcome
	}
}

// withAccessLog emits one structured line per request. A nil logger
// disables the log without disturbing the middleware chain.
func (s *Server) withAccessLog(next http.Handler) http.Handler {
	if s.logger == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		info := &accessInfo{}
		r = r.WithContext(context.WithValue(r.Context(), accessInfoKey, info))
		next.ServeHTTP(rec, r)
		attrs := []slog.Attr{
			slog.String("request_id", telemetry.RequestIDFrom(r.Context())),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", rec.status),
			slog.Duration("duration", time.Since(start)),
		}
		if info.tenant != "" {
			attrs = append(attrs, slog.String("tenant", info.tenant))
		}
		if info.admission != "" {
			attrs = append(attrs, slog.String("admission", info.admission))
		}
		s.logger.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
	})
}
