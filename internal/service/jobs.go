package service

import (
	"errors"
	"net/http"
	"sort"
	"strconv"
	"time"

	"optspeed/internal/jobs"
	"optspeed/internal/telemetry"
)

// JobSubmitRequest is the body of POST /v2/jobs: exactly one of Sweep
// or Optimize carries the work. Kind is optional and, when present,
// must match the payload ("sweep" or "optimize").
type JobSubmitRequest struct {
	Kind     string           `json:"kind,omitempty"`
	Sweep    *SweepRequest    `json:"sweep,omitempty"`
	Optimize *OptimizeRequest `json:"optimize,omitempty"`
}

// ProgressJSON is the wire form of a job's live counters. Evaluated is
// derived: completed minus cache hits minus errors. The shard pair
// appears only for jobs the coordinator scattered across peers.
type ProgressJSON struct {
	Total      int `json:"total"`
	Completed  int `json:"completed"`
	Evaluated  int `json:"evaluated"`
	CacheHits  int `json:"cache_hits"`
	Errors     int `json:"errors"`
	Shards     int `json:"shards,omitempty"`
	ShardsDone int `json:"shards_done,omitempty"`
	// ShardsHedged counts shards that launched a hedged second attempt
	// (only ever non-zero on scattered jobs with hedging enabled).
	ShardsHedged int `json:"shards_hedged,omitempty"`
}

// JobJSON is the wire form of one job resource. Persisted and
// Recovered appear only on servers running with a durable store
// (omitempty keeps in-memory deployments byte-identical): Persisted
// means the job's transitions are being written to the WAL; Recovered
// marks a job restored from the durable store after a restart rather
// than submitted to this process.
type JobJSON struct {
	ID              string        `json:"id"`
	Kind            string        `json:"kind"`
	State           jobs.State    `json:"state"`
	CancelRequested bool          `json:"cancel_requested,omitempty"`
	CreatedAt       time.Time     `json:"created_at"`
	StartedAt       *time.Time    `json:"started_at,omitempty"`
	FinishedAt      *time.Time    `json:"finished_at,omitempty"`
	Progress        ProgressJSON  `json:"progress"`
	Reason          string        `json:"reason,omitempty"`
	Persisted       bool          `json:"persisted,omitempty"`
	Recovered       bool          `json:"recovered,omitempty"`
	Trace           *JobTraceJSON `json:"trace,omitempty"`
}

// JobTraceJSON summarizes the job's recorded trace on the job
// resource: enough to see the span count and the critical-path/wall
// relationship at a glance, with GET /v1/traces/{id} serving the full
// span list. Omitted entirely when tracing is off or the trace has
// been evicted.
type JobTraceJSON struct {
	ID             string  `json:"id"`
	Spans          int     `json:"spans"`
	WallMs         float64 `json:"wall_ms"`
	CriticalPathMs float64 `json:"critical_path_ms"`
	SerialMs       float64 `json:"serial_ms"`
}

// jobJSON renders one job resource, stamping the server's persistence
// mode onto it.
func (s *Server) jobJSON(snap jobs.Snapshot) JobJSON {
	j := baseJobJSON(snap)
	j.Persisted = s.store.Persistent()
	j.Trace = s.jobTrace(snap.TraceID)
	return j
}

func baseJobJSON(snap jobs.Snapshot) JobJSON {
	j := JobJSON{
		ID:              snap.ID,
		Kind:            string(snap.Kind),
		State:           snap.State,
		CancelRequested: snap.CancelRequested,
		CreatedAt:       snap.Created,
		Progress: ProgressJSON{
			Total:        snap.Progress.Total,
			Completed:    snap.Progress.Completed,
			Evaluated:    snap.Progress.Completed - snap.Progress.CacheHits - snap.Progress.Errors,
			CacheHits:    snap.Progress.CacheHits,
			Errors:       snap.Progress.Errors,
			Shards:       snap.Progress.Shards,
			ShardsDone:   snap.Progress.ShardsDone,
			ShardsHedged: snap.Progress.ShardsHedged,
		},
		Reason:    snap.Reason,
		Recovered: snap.Recovered,
	}
	if !snap.Started.IsZero() {
		t := snap.Started
		j.StartedAt = &t
	}
	if !snap.Finished.IsZero() {
		t := snap.Finished
		j.FinishedAt = &t
	}
	return j
}

// storeProblem maps job-store errors onto v2 wire errors.
func storeProblem(err error) *requestProblem {
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		return &requestProblem{status: http.StatusNotFound, code: codeNotFound, msg: "no such job"}
	case errors.Is(err, jobs.ErrBadCursor):
		return &requestProblem{status: http.StatusBadRequest, code: codeInvalidRequest, msg: err.Error()}
	case errors.Is(err, jobs.ErrTerminal):
		return &requestProblem{status: http.StatusConflict, code: codeAlreadyTerminal,
			msg: "job is already in a terminal state"}
	case errors.Is(err, jobs.ErrStoreFull):
		return &requestProblem{status: http.StatusTooManyRequests, code: codeStoreFull,
			msg: "job store is full; retry after resident jobs finish"}
	case errors.Is(err, jobs.ErrClosed):
		return &requestProblem{status: http.StatusServiceUnavailable, code: codeUnavailable,
			msg: "server is shutting down"}
	default:
		return &requestProblem{status: http.StatusInternalServerError, code: codeInternal, msg: "internal error"}
	}
}

// handleJobSubmit accepts a sweep or optimize job and returns 202 with
// the pending job resource immediately; evaluation proceeds detached
// from this request.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	tenant, ok := s.admitRequest(w, r)
	if !ok {
		return
	}
	var req JobSubmitRequest
	if prob := s.decodeBody(r, w, &req); prob != nil {
		prob.writeV2(s, w, r)
		return
	}
	var jreq jobs.Request
	switch {
	case req.Sweep != nil && req.Optimize != nil:
		s.writeV2Error(w, r, http.StatusBadRequest, codeInvalidRequest,
			"provide exactly one of sweep or optimize")
		return
	case req.Sweep != nil:
		if req.Kind != "" && req.Kind != string(jobs.KindSweep) {
			s.writeV2Error(w, r, http.StatusBadRequest, codeInvalidRequest,
				"kind %q does not match the sweep payload", req.Kind)
			return
		}
		var prob *requestProblem
		jreq, prob = s.sweepJobRequest(*req.Sweep)
		if prob != nil {
			prob.writeV2(s, w, r)
			return
		}
	case req.Optimize != nil:
		if req.Kind != "" && req.Kind != string(jobs.KindOptimize) {
			s.writeV2Error(w, r, http.StatusBadRequest, codeInvalidRequest,
				"kind %q does not match the optimize payload", req.Kind)
			return
		}
		jreq = optimizeJobRequest(*req.Optimize)
	default:
		s.writeV2Error(w, r, http.StatusBadRequest, codeInvalidRequest,
			"provide a sweep or optimize payload")
		return
	}
	// Reserve the tenant's job quota for the job's whole lifetime: the
	// release rides the request as OnDone, fired exactly once when the
	// job reaches a terminal state (or below, if submission fails).
	release, rej := tenant.AcquireJob(jreq.Size())
	if rej != nil {
		s.writeRejection(w, r, rej)
		return
	}
	jreq.OnDone = release
	// Tie the job's spans into this request's trace: the traced
	// middleware opened a span for the submission, so the job span
	// becomes its child and the 202 response already names the trace.
	jreq.RequestID = telemetry.RequestIDFrom(r.Context())
	jreq.TraceID = telemetry.TraceIDFrom(r.Context())
	jreq.ParentSpanID = telemetry.SpanIDFrom(r.Context())
	snap, err := s.store.Submit(jreq)
	if err != nil {
		release()
		storeProblem(err).writeV2(s, w, r)
		return
	}
	w.Header().Set("Location", "/v2/jobs/"+snap.ID)
	s.writeJSON(w, r, http.StatusAccepted, s.jobJSON(snap))
}

// handleJobGet reports one job's status and live progress.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	snap, err := s.store.Get(r.PathValue("id"))
	if err != nil {
		storeProblem(err).writeV2(s, w, r)
		return
	}
	s.writeJSON(w, r, http.StatusOK, s.jobJSON(snap))
}

// JobListResponse is the body of GET /v2/jobs.
type JobListResponse struct {
	Jobs []JobJSON `json:"jobs"`
}

// handleJobList lists resident jobs, newest first.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	snaps := s.store.List()
	sort.Slice(snaps, func(i, k int) bool {
		if !snaps[i].Created.Equal(snaps[k].Created) {
			return snaps[i].Created.After(snaps[k].Created)
		}
		return snaps[i].ID < snaps[k].ID
	})
	resp := JobListResponse{Jobs: make([]JobJSON, len(snaps))}
	for i, snap := range snaps {
		resp.Jobs[i] = s.jobJSON(snap)
	}
	s.writeJSON(w, r, http.StatusOK, resp)
}

// JobResultsResponse is one cursor page of a job's results. Results are
// in completion order (each carries its submission index); NextCursor
// resumes where this page ended, and Done means the job is terminal and
// fully read — polling the same cursor again will never yield more.
type JobResultsResponse struct {
	JobID      string            `json:"job_id"`
	State      jobs.State        `json:"state"`
	Results    []SweepResultJSON `json:"results"`
	NextCursor string            `json:"next_cursor"`
	Done       bool              `json:"done"`
}

// handleJobResults serves cursor-paginated reads of a job's results,
// usable while the job is still running: a page may be short (or
// empty); Done tells the reader when to stop.
func (s *Server) handleJobResults(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	cursor := 0
	if raw := q.Get("cursor"); raw != "" {
		var err error
		cursor, err = strconv.Atoi(raw)
		if err != nil {
			s.writeV2Error(w, r, http.StatusBadRequest, codeInvalidRequest,
				"invalid cursor %q", raw)
			return
		}
	}
	limit := 0
	if raw := q.Get("limit"); raw != "" {
		var err error
		limit, err = strconv.Atoi(raw)
		if err != nil || limit < 0 {
			s.writeV2Error(w, r, http.StatusBadRequest, codeInvalidRequest,
				"invalid limit %q", raw)
			return
		}
	}
	page, err := s.store.Results(r.PathValue("id"), cursor, limit)
	if err != nil {
		storeProblem(err).writeV2(s, w, r)
		return
	}
	// The page is a zero-copy subslice of the job's slab storage; the
	// AppendJSON encoder serializes it straight into a pooled buffer, so
	// a results read allocates nothing per result end to end.
	buf := getBuf()
	*buf = appendJobResultsPage(*buf, r.PathValue("id"), string(page.State),
		page.Work, page.Results, page.NextCursor, page.Done)
	s.writeRaw(w, r, http.StatusOK, *buf)
	putBuf(buf)
}

// handleJobCancel requests cancellation and returns the job resource,
// which may report running with cancel_requested while the engine
// drains. Cancelling a job that already reached a terminal state is a
// 409 conflict (code "already_terminal"): the outcome cannot change,
// and the caller learns it raced the job's completion.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	snap, err := s.store.Cancel(r.PathValue("id"))
	if err != nil {
		storeProblem(err).writeV2(s, w, r)
		return
	}
	s.writeJSON(w, r, http.StatusOK, s.jobJSON(snap))
}
