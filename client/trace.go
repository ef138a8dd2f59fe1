package client

import (
	"context"
	"net/http"

	"optspeed/internal/service"
)

// Trace is the body of GET /v1/traces/{id}: summary timings plus every
// recorded TraceSpan, sorted by start time. CriticalPathMs is the
// longest parent-child chain — the part of WallMs that no amount of
// extra parallelism removes — while SerialMs sums every leaf span, the
// hypothetical single-node cost.
type (
	Trace     = service.TraceResponse
	TraceSpan = service.TraceSpanJSON
)

// Trace fetches one recorded trace by id — typically Job.Trace.ID from
// a finished job, or the X-Trace-Id header echoed on an evaluation
// response. Traces live in a bounded server-side buffer; an evicted or
// unknown id is a not_found APIError.
func (c *Client) Trace(ctx context.Context, id string) (*Trace, error) {
	var tr Trace
	if err := c.do(ctx, http.MethodGet, "/v1/traces/"+id, nil, nil, &tr); err != nil {
		return nil, err
	}
	return &tr, nil
}
