package jobs

import (
	"time"

	"optspeed/internal/sweep"
)

// PersistedJob is the full durable state of one job — the unit the
// persistence layer both snapshots and hands back at recovery. Results
// are flat, in completion order; replaying them through the slab append
// path reproduces the exact pre-crash slab layout (slab boundaries
// depend only on the result sequence, never on how the stream was
// chunked), which is what keeps recovered zero-copy cursor pages
// byte-identical to their pre-crash reads.
type PersistedJob struct {
	ID              string
	Kind            Kind
	State           State
	CancelRequested bool
	Created         time.Time
	Started         time.Time
	Finished        time.Time
	Reason          string
	// Total is the progress denominator fixed when the job started
	// (zero for a job that never started).
	Total int
	// Request is the submitted work, retained so a job that was still
	// pending at crash time can be re-dispatched through the engine.
	Request Request
	// Results are the stored answers in completion order; each names its
	// spec by Index into Request.
	Results []sweep.Answer
}

// Persister receives every job lifecycle transition as it is applied to
// the in-memory store — the write-ahead hook the durable store
// implements. The jobs store guarantees that each call happens
// atomically with the in-memory mutation it describes (with respect to
// Snapshot), and that calls for one job arrive in lifecycle order.
//
// Chunk is called with the engine's pooled result buffer and must not
// retain it past the call: encode or copy synchronously.
type Persister interface {
	// Submitted records a newly accepted job (state pending, no results).
	Submitted(job PersistedJob)
	// Started records the pending→running transition. A second Started
	// for the same id (a job re-dispatched after recovery) voids any
	// previously recorded results: evaluation restarts from zero.
	Started(id string, at time.Time, total int)
	// Chunk records one streamed chunk of results, in completion order.
	Chunk(id string, rs []sweep.Result)
	// Finished records the terminal transition.
	Finished(id string, state State, reason string, at time.Time)
	// CancelRequested records a cancellation request against a live job.
	CancelRequested(id string)
	// Removed records that the job left the store (TTL expiry or
	// capacity eviction) and need not be recovered.
	Removed(id string)
	// Snapshot persists a full point-in-time dump of every resident
	// job and lets the log be compacted up to it. The jobs store calls
	// it with all writers excluded, so the dump is consistent with the
	// record stream.
	Snapshot(dump []PersistedJob) error
}

// persisted builds the job's durable state. Caller must not hold j.mu.
func (j *Job) persisted() PersistedJob {
	j.mu.Lock()
	defer j.mu.Unlock()
	pj := PersistedJob{
		ID:              j.id,
		Kind:            j.kind,
		State:           j.state,
		CancelRequested: j.cancelRequested,
		Created:         j.created,
		Started:         j.started,
		Finished:        j.finished,
		Reason:          j.reason,
		Total:           j.progress.Total,
		Request:         j.req,
	}
	if j.count > 0 {
		out := make([]sweep.Answer, 0, j.count)
		for _, slab := range j.slabs {
			out = append(out, slab...)
		}
		pj.Results = out
	}
	return pj
}
