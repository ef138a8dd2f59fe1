// Package jobs makes sweep evaluations first-class resources: a job is
// submitted once, runs asynchronously on the shared sweep engine, and
// is then polled, paginated, streamed, or cancelled by id. The package
// holds jobs in a bounded in-memory store with TTL garbage collection
// of terminal jobs; live progress counters are fed from the engine's
// incremental result stream, so a caller can watch a long sweep advance
// point by point instead of holding one HTTP request open for its whole
// runtime.
package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"optspeed/internal/dispatch"
	"optspeed/internal/sweep"
)

// State is a job's lifecycle position. Transitions are linear:
// pending → running → one of the terminal states.
type State string

const (
	// StatePending is a job accepted but not yet started.
	StatePending State = "pending"
	// StateRunning is a job currently evaluating specs.
	StateRunning State = "running"
	// StateSucceeded is a finished job; individual specs may still have
	// failed (see Progress.Errors and each result's error).
	StateSucceeded State = "succeeded"
	// StateFailed is a finished job in which every spec failed, or whose
	// request could not be opened at all (e.g. an overflowing space).
	StateFailed State = "failed"
	// StateCancelled is a job stopped by DELETE or store shutdown before
	// completion.
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateSucceeded || s == StateFailed || s == StateCancelled
}

// Kind names what a job evaluates.
type Kind string

const (
	// KindSweep is a batch of specs or a Cartesian space.
	KindSweep Kind = "sweep"
	// KindOptimize is a single optimize query run through the same
	// machinery (the v1 adapter path).
	KindOptimize Kind = "optimize"
)

// Progress is a job's live counters. Completed = CacheHits + Errors +
// fresh evaluations; it reaches Total exactly when the job succeeds.
// Shards/ShardsDone are the distributed-execution counters: zero for
// jobs that ran on the local fast path, otherwise the scatter plan's
// shard count and how many shards have been gathered so far.
type Progress struct {
	Total      int `json:"total"`
	Completed  int `json:"completed"`
	CacheHits  int `json:"cache_hits"`
	Errors     int `json:"errors"`
	Shards     int `json:"shards,omitempty"`
	ShardsDone int `json:"shards_done,omitempty"`
	// ShardsHedged counts shards that launched a hedged second attempt.
	ShardsHedged int `json:"shards_hedged,omitempty"`
}

// Request describes the work one job runs. Exactly one of Specs/Space
// should be set: a Space keeps the engine's space-aware evaluation
// (each machine axis value resolved once, and the batched speedup fast
// path), a flat spec list covers explicit and mixed submissions.
type Request struct {
	Kind  Kind
	Specs []sweep.Spec
	Space *sweep.Space
	// OnDone, when non-nil, is called exactly once when the job leaves
	// the system (terminal transition) — the hook the service releases
	// per-tenant quota reservations through. It is not persisted: a
	// recovered job's quota reservation died with the old process.
	OnDone func() `json:"-"`
	// RequestID is the submitting HTTP request's id, propagated into
	// the job runner's context so dispatch forwards it to peers.
	// TraceID/ParentSpanID tie the job's spans into the submitter's
	// trace (empty TraceID mints a fresh trace when tracing is on).
	// None of the three are persisted: like the quota reservation, a
	// recovered job's originating request died with the old process.
	RequestID    string `json:"-"`
	TraceID      string `json:"-"`
	ParentSpanID string `json:"-"`
}

// Size is the request's estimated evaluation cost in specs — the
// admission-control cost estimate (saturating for overflowing spaces,
// which validation rejects upstream).
func (r Request) Size() int { return r.work().Size() }

// work is the request's spec list or space, the batch every stored
// answer's Index points into.
func (r Request) work() sweep.Batch {
	return sweep.Batch{Specs: r.Specs, Space: r.Space}
}

// Snapshot is a point-in-time copy of a job's externally visible state.
type Snapshot struct {
	ID              string
	Kind            Kind
	State           State
	CancelRequested bool
	Created         time.Time
	Started         time.Time
	Finished        time.Time
	Progress        Progress
	// Reason explains a failed or cancelled terminal state.
	Reason string
	// Recovered marks a job restored from the durable store after a
	// restart rather than submitted to this process.
	Recovered bool
	// TraceID names the job's trace in the server's trace buffer (""
	// when tracing is off or the job predates this process).
	TraceID string
}

// SlabSize is the capacity of one result slab. It equals
// DefaultPageSize by construction, so a default-size cursor page is
// exactly one slab subslice.
const SlabSize = 256

// Job is one tracked evaluation. All fields behind mu; results grow in
// completion order into append-only slabs of SlabSize answers: a
// million-result job costs O(results/SlabSize) allocations instead of
// the amortized doubling copies of one flat slice, cursor reads hand out
// subslices of filled slab prefixes without copying (append-only means a
// handed-out subslice is never rewritten), and eviction or TTL expiry
// frees whole slabs at once with the job. A slab holds answers only
// (sweep.Answer, 128 bytes): each result's spec is the request's spec at
// its Index, so the request the job retains names it. The last slab is
// made no larger than the results still due (progress.Total minus
// count), so a 128-result job holds 16 KB of slab, not 32.
type Job struct {
	id        string
	kind      Kind
	recovered bool    // restored from the durable store after a restart
	req       Request // retained for snapshots and post-recovery re-dispatch
	cancel    context.CancelFunc
	done      chan struct{} // closed on terminal transition

	mu              sync.Mutex
	traceID         string
	state           State
	cancelRequested bool
	created         time.Time
	started         time.Time
	finished        time.Time
	expires         time.Time // zero until terminal
	progress        Progress
	slabs           [][]sweep.Answer // slab i holds results [i*SlabSize, (i+1)*SlabSize)
	count           int              // total stored results
	reason          string
}

// NewID returns a 16-hex-char random id, shared by job records and the
// service's request-ID middleware so the whole server has one id
// format and one failure policy (a host without entropy is broken;
// panic rather than hand out colliding ids).
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("jobs: id entropy unavailable: %v", err))
	}
	return hex.EncodeToString(b[:])
}

func newJob(kind Kind, now time.Time, cancel context.CancelFunc) *Job {
	return &Job{
		id:      NewID(),
		kind:    kind,
		cancel:  cancel,
		done:    make(chan struct{}),
		state:   StatePending,
		created: now,
	}
}

// Snapshot copies the job's externally visible state.
func (j *Job) Snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Snapshot{
		ID:              j.id,
		Kind:            j.kind,
		State:           j.state,
		CancelRequested: j.cancelRequested,
		Created:         j.created,
		Started:         j.started,
		Finished:        j.finished,
		Progress:        j.progress,
		Reason:          j.reason,
		Recovered:       j.recovered,
		TraceID:         j.traceID,
	}
}

// setTraceID records the job's trace id for snapshots.
func (j *Job) setTraceID(id string) {
	j.mu.Lock()
	j.traceID = id
	j.mu.Unlock()
}

// start transitions pending → running and fixes the progress
// denominator.
func (j *Job) start(now time.Time, total int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateRunning
	j.started = now
	j.progress.Total = total
}

// setShards fixes the distributed shard denominator (0 = local run).
func (j *Job) setShards(n int) {
	j.mu.Lock()
	j.progress.Shards = n
	j.mu.Unlock()
}

// shardDone is the dispatcher's per-shard progress hook; it runs on
// shard-runner goroutines, hence the lock.
func (j *Job) shardDone(d dispatch.ShardDone) {
	j.mu.Lock()
	j.progress.ShardsDone++
	if d.Hedged {
		j.progress.ShardsHedged++
	}
	j.mu.Unlock()
}

// appendChunk copies the answers of one streamed chunk of results into
// the slabs and updates the live counters under a single lock. The
// chunk's backing buffer belongs to the engine's pool and is recycled by
// the caller right after this returns, which is safe exactly because
// the answers are copied here — the slabs are the job's own storage.
func (j *Job) appendChunk(rs []sweep.Result) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i := range rs {
		j.add(&rs[i].Answer)
	}
}

// appendAnswers is appendChunk for answers replayed from the durable
// store.
func (j *Job) appendAnswers(as []sweep.Answer) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i := range as {
		j.add(&as[i])
	}
}

// add stores one answer and counts it. A result that starts a slab
// makes the slab, sized to the results still due; should more arrive
// than progress.Total promised, append grows the short slab, and the
// pages already handed out keep the old array. Caller holds j.mu.
func (j *Job) add(a *sweep.Answer) {
	j.progress.Completed++
	switch {
	case a.Err != nil:
		j.progress.Errors++
	case a.CacheHit:
		j.progress.CacheHits++
	}
	if j.count%SlabSize == 0 {
		size := SlabSize
		if due := j.progress.Total - j.count; due > 0 && due < size {
			size = due
		}
		j.slabs = append(j.slabs, make([]sweep.Answer, 0, size))
	}
	last := len(j.slabs) - 1
	j.slabs[last] = append(j.slabs[last], *a)
	j.count++
}

// page returns the stored results in [cursor, cursor+limit). A page
// that fits inside one slab — every page at the default limit, since
// DefaultPageSize equals SlabSize and default reads stay slab-aligned
// — is a zero-copy subslice of that slab; the append-only slab
// discipline is what makes handing out the subslice safe (later
// appends only ever write indices past every previously returned
// page). A larger limit spans slabs and is stitched into a fresh
// slice, preserving the exact limit semantics pre-slab clients were
// written against. Caller holds j.mu.
func (j *Job) page(cursor, limit int) []sweep.Answer {
	end := cursor + limit
	if end > j.count {
		end = j.count
	}
	if end <= cursor {
		return nil
	}
	si, off := cursor/SlabSize, cursor%SlabSize
	if boundary := (si + 1) * SlabSize; end <= boundary {
		return j.slabs[si][off : off+(end-cursor)]
	}
	out := make([]sweep.Answer, 0, end-cursor)
	for cursor < end {
		si, off = cursor/SlabSize, cursor%SlabSize
		stop := end - si*SlabSize
		if stop > SlabSize {
			stop = SlabSize
		}
		out = append(out, j.slabs[si][off:stop]...)
		cursor += stop - off
	}
	return out
}

// finish performs the terminal transition and arms the TTL clock.
func (j *Job) finish(now time.Time, ttl time.Duration, state State, reason string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state = state
	j.reason = reason
	j.finished = now
	j.expires = now.Add(ttl)
	close(j.done)
}

// requestCancel asks a non-terminal job to stop and reports whether it
// did anything (false: the job was already terminal). The runner
// performs the actual terminal transition after draining the engine
// stream, so the job may report running (with CancelRequested set) for
// a moment.
func (j *Job) requestCancel() bool {
	j.mu.Lock()
	terminal := j.state.Terminal()
	if !terminal {
		j.cancelRequested = true
	}
	j.mu.Unlock()
	if !terminal {
		j.cancel()
	}
	return !terminal
}

// release drops the job's result storage as it leaves the store
// (capacity eviction or TTL expiry), so a large result set is
// reclaimable by the GC immediately instead of riding along with
// whatever still references the Job. Pages already handed out stay
// valid — they hold their own references into the append-only slabs,
// which live exactly as long as somebody reads them. count is zeroed
// with the slabs so a reader that raced past lookup sees an empty page
// rather than a nil slab dereference.
func (j *Job) release() {
	j.mu.Lock()
	j.slabs = nil
	j.count = 0
	j.mu.Unlock()
}

// expired reports whether the job's retention window has passed.
func (j *Job) expired(now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return !j.expires.IsZero() && now.After(j.expires)
}

// finishedAt returns the terminal timestamp (zero if still live).
func (j *Job) finishedAt() time.Time {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.Terminal() {
		return time.Time{}
	}
	return j.finished
}
