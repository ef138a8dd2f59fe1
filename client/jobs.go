package client

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"optspeed/internal/core"
	"optspeed/internal/jobs"
	"optspeed/internal/service"
	"optspeed/internal/sweep"
)

// The SDK's types are the server's wire types: each name below is an
// alias of the struct the server encodes, so a field the server adds
// reaches SDK users with no second copy to keep in step.
type (
	// Spec, Space, and MachineSpec are the evaluation types shared
	// with the engine.
	Spec        = sweep.Spec
	Space       = sweep.Space
	MachineSpec = core.MachineSpec

	// SweepRequest carries explicit specs, a Cartesian space, or both.
	SweepRequest = service.SweepRequest
	// OptimizeRequest is one optimize query.
	OptimizeRequest = service.OptimizeRequest

	// Job is one job resource; Progress its live counters (the shard
	// counters appear only for jobs a coordinator scattered across
	// peers); JobTrace its trace summary when the server traces.
	Job      = service.JobJSON
	Progress = service.ProgressJSON
	JobTrace = service.JobTraceJSON
	// Result is the wire form of one evaluated spec.
	Result = service.SweepResultJSON
	// ResultsPage is one cursor page of a job's results.
	ResultsPage = service.JobResultsResponse

	// JobState is a job's lifecycle position; Terminal reports whether
	// it is final.
	JobState = jobs.State
)

// Job states.
const (
	JobPending   = jobs.StatePending
	JobRunning   = jobs.StateRunning
	JobSucceeded = jobs.StateSucceeded
	JobFailed    = jobs.StateFailed
	JobCancelled = jobs.StateCancelled
)

// SubmitSweep submits a sweep job and returns the accepted (pending)
// job immediately; the sweep runs server-side, detached from ctx.
func (c *Client) SubmitSweep(ctx context.Context, req SweepRequest) (*Job, error) {
	var job Job
	if err := c.do(ctx, http.MethodPost, "/v2/jobs", nil,
		service.JobSubmitRequest{Kind: "sweep", Sweep: &req}, &job); err != nil {
		return nil, err
	}
	return &job, nil
}

// SubmitOptimize submits a single optimize query as a job.
func (c *Client) SubmitOptimize(ctx context.Context, req OptimizeRequest) (*Job, error) {
	var job Job
	if err := c.do(ctx, http.MethodPost, "/v2/jobs", nil,
		service.JobSubmitRequest{Kind: "optimize", Optimize: &req}, &job); err != nil {
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
	var resp service.JobListResponse
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
