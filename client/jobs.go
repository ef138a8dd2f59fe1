package client

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"optspeed"
)

// Spec, Space, and MachineSpec are the evaluation types shared with the
// engine, re-exported so SDK users need only this package and the
// optspeed facade.
type (
	Spec        = optspeed.SweepSpec
	Space       = optspeed.SweepSpace
	MachineSpec = optspeed.MachineSpec
)

// SweepRequest carries explicit specs, a Cartesian space, or both.
type SweepRequest struct {
	Specs []Spec `json:"specs,omitempty"`
	Space *Space `json:"space,omitempty"`
}

// OptimizeRequest is one optimize query.
type OptimizeRequest struct {
	N       int         `json:"n"`
	Stencil string      `json:"stencil"`
	Shape   string      `json:"shape"`
	Machine MachineSpec `json:"machine"`
	// Snapped is a compatibility alias: the server returns the same
	// answer with or without it.
	Snapped bool `json:"snapped,omitempty"`
}

// JobState is a job's lifecycle position.
type JobState string

// Job states.
const (
	JobPending   JobState = "pending"
	JobRunning   JobState = "running"
	JobSucceeded JobState = "succeeded"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobSucceeded || s == JobFailed || s == JobCancelled
}

// Progress is a job's live counters. Shards/ShardsDone appear only for
// jobs a coordinator scattered across worker peers.
type Progress struct {
	Total      int `json:"total"`
	Completed  int `json:"completed"`
	Evaluated  int `json:"evaluated"`
	CacheHits  int `json:"cache_hits"`
	Errors     int `json:"errors"`
	Shards     int `json:"shards,omitempty"`
	ShardsDone int `json:"shards_done,omitempty"`
}

// Job is one job resource.
type Job struct {
	ID              string     `json:"id"`
	Kind            string     `json:"kind"`
	State           JobState   `json:"state"`
	CancelRequested bool       `json:"cancel_requested,omitempty"`
	CreatedAt       time.Time  `json:"created_at"`
	StartedAt       *time.Time `json:"started_at,omitempty"`
	FinishedAt      *time.Time `json:"finished_at,omitempty"`
	Progress        Progress   `json:"progress"`
	Reason          string     `json:"reason,omitempty"`
	// Persisted reports that the server runs a durable job store
	// (-data-dir), so this job survives a restart. Recovered marks a
	// job that was replayed from that store after a restart.
	Persisted bool `json:"persisted,omitempty"`
	Recovered bool `json:"recovered,omitempty"`
	// Trace summarizes the job's recorded trace when the server runs
	// with tracing on; pass Trace.ID to Client.Trace for the full span
	// list.
	Trace *JobTrace `json:"trace,omitempty"`
}

// JobTrace is the job resource's trace summary.
type JobTrace struct {
	ID             string  `json:"id"`
	Spans          int     `json:"spans"`
	WallMs         float64 `json:"wall_ms"`
	CriticalPathMs float64 `json:"critical_path_ms"`
	SerialMs       float64 `json:"serial_ms"`
}

// Result is the wire form of one evaluated spec.
type Result struct {
	Index     int     `json:"index"`
	Spec      Spec    `json:"spec"`
	CacheHit  bool    `json:"cache_hit"`
	Procs     int     `json:"procs,omitempty"`
	ProcsUsed float64 `json:"procs_used,omitempty"`
	Area      float64 `json:"area,omitempty"`
	CycleTime float64 `json:"cycle_time,omitempty"`
	Speedup   float64 `json:"speedup,omitempty"`
	Grid      int     `json:"grid,omitempty"`
	Value     float64 `json:"value,omitempty"`
	Error     string  `json:"error,omitempty"`
}

// ResultsPage is one cursor page of a job's results.
type ResultsPage struct {
	JobID      string   `json:"job_id"`
	State      JobState `json:"state"`
	Results    []Result `json:"results"`
	NextCursor string   `json:"next_cursor"`
	Done       bool     `json:"done"`
}

// jobSubmitBody mirrors the server's submit request.
type jobSubmitBody struct {
	Kind     string           `json:"kind,omitempty"`
	Sweep    *SweepRequest    `json:"sweep,omitempty"`
	Optimize *OptimizeRequest `json:"optimize,omitempty"`
}

// SubmitSweep submits a sweep job and returns the accepted (pending)
// job immediately; the sweep runs server-side, detached from ctx.
func (c *Client) SubmitSweep(ctx context.Context, req SweepRequest) (*Job, error) {
	var job Job
	if err := c.do(ctx, http.MethodPost, "/v2/jobs", nil,
		jobSubmitBody{Kind: "sweep", Sweep: &req}, &job); err != nil {
		return nil, err
	}
	return &job, nil
}

// SubmitOptimize submits a single optimize query as a job.
func (c *Client) SubmitOptimize(ctx context.Context, req OptimizeRequest) (*Job, error) {
	var job Job
	if err := c.do(ctx, http.MethodPost, "/v2/jobs", nil,
		jobSubmitBody{Kind: "optimize", Optimize: &req}, &job); err != nil {
		return nil, err
	}
	return &job, nil
}

// Job fetches one job's status and live progress.
func (c *Client) Job(ctx context.Context, id string) (*Job, error) {
	var job Job
	if err := c.do(ctx, http.MethodGet, "/v2/jobs/"+url.PathEscape(id), nil, nil, &job); err != nil {
		return nil, err
	}
	return &job, nil
}

// Jobs lists resident jobs, newest first.
func (c *Client) Jobs(ctx context.Context) ([]Job, error) {
	var resp struct {
		Jobs []Job `json:"jobs"`
	}
	if err := c.do(ctx, http.MethodGet, "/v2/jobs", nil, nil, &resp); err != nil {
		return nil, err
	}
	return resp.Jobs, nil
}

// Cancel requests cancellation; the returned job may still report
// running (with CancelRequested set) while the server drains.
// Cancelling a job that is already terminal is a conflict: the server
// answers 409 with code "already_terminal", surfaced as an *APIError.
func (c *Client) Cancel(ctx context.Context, id string) (*Job, error) {
	var job Job
	if err := c.do(ctx, http.MethodDelete, "/v2/jobs/"+url.PathEscape(id), nil, nil, &job); err != nil {
		return nil, err
	}
	return &job, nil
}

// Wait polls the job with exponential backoff until it reaches a
// terminal state or ctx dies.
func (c *Client) Wait(ctx context.Context, id string) (*Job, error) {
	interval := DefaultPollInterval
	for {
		job, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if job.State.Terminal() {
			return job, nil
		}
		if err := sleep(ctx, interval); err != nil {
			return nil, err
		}
		if interval *= 2; interval > DefaultPollMax {
			interval = DefaultPollMax
		}
	}
}

// Results reads one page of a job's results. cursor "" starts from the
// beginning; limit 0 takes the server default.
func (c *Client) Results(ctx context.Context, id, cursor string, limit int) (*ResultsPage, error) {
	q := url.Values{}
	if cursor != "" {
		q.Set("cursor", cursor)
	}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	var page ResultsPage
	if err := c.do(ctx, http.MethodGet, "/v2/jobs/"+url.PathEscape(id)+"/results", q, nil, &page); err != nil {
		return nil, err
	}
	return &page, nil
}

// JobError reports a job that ended without succeeding: the result set
// read so far is partial (cancelled) or empty/failed. Callers that
// want a cancelled job's partial results can match it with errors.As.
type JobError struct {
	JobID  string
	State  JobState
	Reason string
}

func (e *JobError) Error() string {
	if e.Reason != "" {
		return fmt.Sprintf("client: job %s %s: %s", e.JobID, e.State, e.Reason)
	}
	return fmt.Sprintf("client: job %s %s", e.JobID, e.State)
}

// JobResults iterates a job's results through cursor pages, following a
// still-running job until the server reports Done — so iterating a live
// job yields results incrementally as they are computed. If the job
// ends cancelled or failed, the delivered results are partial and Err
// reports a *JobError, so truncation is never mistaken for completion.
//
//	it := c.JobResults(ctx, id)
//	for it.Next() {
//		r := it.Result()
//	}
//	err := it.Err()
func (c *Client) JobResults(ctx context.Context, id string) *ResultIterator {
	return &ResultIterator{c: c, ctx: ctx, id: id}
}

// JobResultsFrom is JobResults resuming at a cursor from an earlier
// page or interrupted iteration ("" = the beginning).
func (c *Client) JobResultsFrom(ctx context.Context, id, cursor string) *ResultIterator {
	return &ResultIterator{c: c, ctx: ctx, id: id, cursor: cursor}
}

// ResultIterator pages through a job's results.
type ResultIterator struct {
	c      *Client
	ctx    context.Context
	id     string
	cursor string
	buf    []Result
	pos    int
	done   bool
	state  JobState
	err    error
}

// Next advances to the next result, fetching (and, for a live job,
// awaiting) pages as needed. It returns false when the job is fully
// read or an error occurred; check Err afterwards.
func (it *ResultIterator) Next() bool {
	if it.err != nil {
		return false
	}
	interval := DefaultPollInterval
	for it.pos >= len(it.buf) {
		if it.done {
			it.finish()
			return false
		}
		page, err := it.c.Results(it.ctx, it.id, it.cursor, 0)
		if err != nil {
			it.err = err
			return false
		}
		it.buf, it.pos = page.Results, 0
		it.cursor = page.NextCursor
		it.done = page.Done
		it.state = page.State
		if len(page.Results) == 0 && !page.Done {
			// A live job with nothing new yet: back off and re-poll.
			if err := sleep(it.ctx, interval); err != nil {
				it.err = err
				return false
			}
			if interval *= 2; interval > DefaultPollMax {
				interval = DefaultPollMax
			}
		}
	}
	it.pos++
	return true
}

// finish records the terminal verdict once every produced result has
// been delivered: a job that did not succeed yields a *JobError.
func (it *ResultIterator) finish() {
	if it.err == nil && it.state != JobSucceeded {
		jobErr := &JobError{JobID: it.id, State: it.state}
		if job, err := it.c.Job(it.ctx, it.id); err == nil {
			jobErr.Reason = job.Reason
		}
		it.err = jobErr
	}
}

// Result returns the current result; valid after Next reports true.
func (it *ResultIterator) Result() Result { return it.buf[it.pos-1] }

// Err reports the first error the iterator hit (nil on clean end).
func (it *ResultIterator) Err() error { return it.err }

// Optimize is a convenience: submit an optimize job, wait for it, and
// return its single result.
func (c *Client) Optimize(ctx context.Context, req OptimizeRequest) (*Result, error) {
	job, err := c.SubmitOptimize(ctx, req)
	if err != nil {
		return nil, err
	}
	fin, err := c.Wait(ctx, job.ID)
	if err != nil {
		return nil, err
	}
	page, err := c.Results(ctx, job.ID, "", 1)
	if err != nil {
		return nil, err
	}
	if len(page.Results) == 0 {
		return nil, fmt.Errorf("client: optimize job %s finished %s with no result (%s)",
			job.ID, fin.State, fin.Reason)
	}
	r := page.Results[0]
	if r.Error != "" {
		return nil, fmt.Errorf("client: optimize failed: %s", r.Error)
	}
	return &r, nil
}
