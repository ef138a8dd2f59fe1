package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"optspeed/internal/jobs"
	"optspeed/internal/sweep"
)

// decodeBody decodes a JSON request body with the configured size cap,
// rejecting unknown fields. It reports the failure as a requestProblem
// so v1 and v2 handlers render it in their own envelope.
func (s *Server) decodeBody(r *http.Request, w http.ResponseWriter, v any) *requestProblem {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return &requestProblem{
				status: http.StatusRequestEntityTooLarge,
				code:   codeTooLarge,
				msg:    fmt.Sprintf("request body exceeds %d bytes", s.maxBody),
			}
		}
		return &requestProblem{
			status: http.StatusBadRequest,
			code:   codeInvalidRequest,
			msg:    fmt.Sprintf("bad request body: %v", err),
		}
	}
	return nil
}

// sweepJobRequest is the single validation layer for every surface that
// accepts a sweep body (v1 /sweep, v2 job submission, v2 streaming): it
// enforces the expanded-size limit — including against adversarial
// spaces whose axis product overflows — and maps the wire request onto
// a jobs.Request, preserving the space-only fast path. The error
// messages are part of the v1 byte-compatibility contract.
func (s *Server) sweepJobRequest(req SweepRequest) (jobs.Request, *requestProblem) {
	specs := req.Specs
	spaceOnly := false
	if req.Space != nil {
		// Size() saturates at math.MaxInt on overflowing axis products,
		// and the two-step comparison avoids overflowing the sum, so a
		// crafted space cannot slip past the limit into Expand.
		size := req.Space.Size()
		if size > s.maxSpecs || len(specs) > s.maxSpecs-size {
			return jobs.Request{}, &requestProblem{
				status: http.StatusRequestEntityTooLarge,
				code:   codeTooLarge,
				msg:    fmt.Sprintf("sweep of %d+%d specs exceeds the limit of %d", len(specs), size, s.maxSpecs),
			}
		}
		spaceOnly = len(specs) == 0 && size > 0
		if !spaceOnly {
			specs = append(specs, req.Space.Expand()...)
		}
	}
	if len(specs) == 0 && !spaceOnly {
		return jobs.Request{}, &requestProblem{
			status: http.StatusBadRequest,
			code:   codeInvalidRequest,
			msg:    "empty sweep: provide specs or a space",
		}
	}
	if len(specs) > s.maxSpecs {
		return jobs.Request{}, &requestProblem{
			status: http.StatusRequestEntityTooLarge,
			code:   codeTooLarge,
			msg:    fmt.Sprintf("sweep of %d specs exceeds the limit of %d", len(specs), s.maxSpecs),
		}
	}
	if prob := badOpProblem(req); prob != nil {
		return jobs.Request{}, prob
	}
	if spaceOnly {
		// A pure space request keeps its Cartesian structure, so the
		// engine can resolve each machine axis value once and batch the
		// speedup-over-procs fast path; mixed requests fall back to the
		// flat spec list.
		return jobs.Request{Kind: jobs.KindSweep, Space: req.Space}, nil
	}
	return jobs.Request{Kind: jobs.KindSweep, Specs: specs}, nil
}

// badOpProblem returns the validation failure for the first unknown op
// in the request, or nil. Rejecting here — before the admission gate
// acquires a slot and before the job store mints a job — turns a typo'd
// op into an immediate 400 instead of an admitted request that fails
// per-result at evaluation time. A space's op covers every spec it
// expands to, so checking the space and the explicit specs covers the
// whole request.
func badOpProblem(req SweepRequest) *requestProblem {
	check := func(op sweep.Op) *requestProblem {
		if op.Valid() {
			return nil
		}
		return &requestProblem{
			status: http.StatusBadRequest,
			code:   codeInvalidRequest,
			msg:    fmt.Sprintf("unknown op %q (known ops: %s)", op, knownOpList()),
		}
	}
	if req.Space != nil {
		if prob := check(req.Space.Op); prob != nil {
			return prob
		}
	}
	for _, sp := range req.Specs {
		if prob := check(sp.Op); prob != nil {
			return prob
		}
	}
	return nil
}

// knownOpList renders the engine's op set for the unknown-op message.
func knownOpList() string {
	ops := sweep.Ops()
	var b []byte
	for i, op := range ops {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(b, op...)
	}
	return string(b)
}

// optimizeJobRequest maps one optimize query onto a single-spec
// jobs.Request — the same core that v1 /optimize runs synchronously.
func optimizeJobRequest(req OptimizeRequest) jobs.Request {
	op := sweep.OpOptimize
	if req.Snapped {
		op = sweep.OpOptimizeSnapped
	}
	return jobs.Request{Kind: jobs.KindOptimize, Specs: []sweep.Spec{{
		Op: op, N: req.N, Stencil: req.Stencil, Shape: req.Shape, Machine: req.Machine,
	}}}
}
