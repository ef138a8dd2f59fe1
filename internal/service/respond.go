package service

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"

	"optspeed/internal/telemetry"
)

// logEncodeError records a response-encoding or response-write failure
// at error level, tagged with the middleware's request id so the access
// log line and the failure correlate. Encode errors were previously
// discarded, which hid both marshal bugs (unrepresentable values) and
// mid-body client disconnects on large sweep responses.
func (s *Server) logEncodeError(r *http.Request, err error) {
	if s.logger == nil || err == nil {
		return
	}
	s.logger.LogAttrs(r.Context(), slog.LevelError, "response encode failed",
		slog.String("request_id", telemetry.RequestIDFrom(r.Context())),
		slog.String("path", r.URL.Path),
		slog.String("error", err.Error()),
	)
}

// writeJSON emits compact JSON: sweep responses at the request limit run
// to tens of MB, where indentation is pure wire overhead.
func (s *Server) writeJSON(w http.ResponseWriter, r *http.Request, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.logEncodeError(r, err)
	}
}

// writeJSONPretty indents the small human-facing catalog and metrics
// payloads.
func (s *Server) writeJSONPretty(w http.ResponseWriter, r *http.Request, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.logEncodeError(r, err)
	}
}

// writeRaw emits a pre-encoded JSON body built by the AppendJSON
// encoders (already newline-terminated, matching json.Encoder output).
func (s *Server) writeRaw(w http.ResponseWriter, r *http.Request, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		s.logEncodeError(r, err)
	}
}

// errorResponse is the v1 error envelope. Its shape is part of the
// byte-for-byte v1 compatibility contract and must not change.
type errorResponse struct {
	Error string `json:"error"`
}

// writeError emits a v1-style error.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, status int, format string, args ...any) {
	s.writeJSON(w, r, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// v2 error codes. Stable machine-readable strings; the human text in
// Message may change freely.
const (
	codeInvalidRequest  = "invalid_request"
	codeNotFound        = "not_found"
	codeConflict        = "conflict"
	codeTooLarge        = "too_large"
	codeStoreFull       = "store_full"
	codeAlreadyTerminal = "already_terminal"
	codeUnavailable     = "unavailable"
	codeInternal        = "internal"
	// Admission-control codes. rate_limited/quota_exceeded/overloaded
	// mirror the admit package's Rejection codes; these two are the
	// service's own.
	codeUnknownAPIKey    = "unknown_api_key"
	codeDeadlineExceeded = "deadline_exceeded"
)

// APIErrorBody is the v2 error payload: a stable code, a human
// message, and the request id so one client-side line is enough to
// correlate with the server's access log.
type APIErrorBody struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	RequestID string `json:"request_id,omitempty"`
	// Tenant names the admission principal a 429 applies to; empty on
	// non-admission errors (omitempty keeps older envelopes identical).
	Tenant string `json:"tenant,omitempty"`
	// RetryAfterMs is the advisory retry interval for 429/503
	// rejections, duplicating the Retry-After header at millisecond
	// resolution for clients that want finer pacing.
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
}

// V2ErrorResponse is the uniform v2 error envelope. The Go SDK
// decodes failed responses into it.
type V2ErrorResponse struct {
	Error APIErrorBody `json:"error"`
}

// writeV2Error emits a v2 error envelope, stamping the request id from
// the request context.
func (s *Server) writeV2Error(w http.ResponseWriter, r *http.Request, status int, code, format string, args ...any) {
	s.writeJSON(w, r, status, V2ErrorResponse{Error: APIErrorBody{
		Code:      code,
		Message:   fmt.Sprintf(format, args...),
		RequestID: telemetry.RequestIDFrom(r.Context()),
	}})
}

// requestProblem is a validation failure carried between the shared
// validation layer and the version-specific error writers: v1 renders
// it as {"error": msg}, v2 as the code/message envelope.
type requestProblem struct {
	status int
	code   string
	msg    string
}

func (p *requestProblem) writeV1(s *Server, w http.ResponseWriter, r *http.Request) {
	s.writeError(w, r, p.status, "%s", p.msg)
}

func (p *requestProblem) writeV2(s *Server, w http.ResponseWriter, r *http.Request) {
	s.writeV2Error(w, r, p.status, p.code, "%s", p.msg)
}
