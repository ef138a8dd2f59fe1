package jobs

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"optspeed/internal/admit"
	"optspeed/internal/dispatch"
	"optspeed/internal/sweep"
	"optspeed/internal/telemetry"
)

// Store errors, mapped by the service onto HTTP statuses.
var (
	ErrNotFound  = errors.New("jobs: no such job")
	ErrStoreFull = errors.New("jobs: job store is full")
	ErrClosed    = errors.New("jobs: store is closed")
	ErrBadCursor = errors.New("jobs: invalid results cursor")
	// ErrTerminal reports an operation that needs a live job against one
	// that already finished (e.g. cancelling a succeeded job).
	ErrTerminal = errors.New("jobs: job is already terminal")
)

// Defaults for Options zero values. DefaultPageSize equals SlabSize so
// a default-size page is exactly one zero-copy slab subslice;
// MaxPageSize is the ceiling on the limit parameter (larger pages span
// slabs and are stitched with one copy).
const (
	DefaultCapacity         = 1024
	DefaultTTL              = 15 * time.Minute
	DefaultPageSize         = SlabSize
	MaxPageSize             = 8192
	DefaultSnapshotInterval = 2 * time.Minute
)

// Options configures a Store. Zero values take defaults.
type Options struct {
	// Engine is the shared evaluation engine; nil builds a default one.
	Engine *sweep.Engine
	// Dispatcher routes evaluation: with peers configured, sweeps are
	// scattered across the cluster; nil builds a local-only dispatcher
	// over Engine (byte-for-byte the single-node pipeline).
	Dispatcher *dispatch.Dispatcher
	// Capacity bounds resident jobs (running + retained terminal).
	Capacity int
	// TTL is how long a terminal job stays readable.
	TTL time.Duration
	// GCInterval is the background expiry scan period; default TTL/4
	// clamped to [1s, 1m]. Expiry is also enforced lazily on lookup, so
	// the scan only bounds memory, not correctness.
	GCInterval time.Duration
	// Persister receives every job lifecycle transition for durable
	// logging; nil keeps the store purely in-memory (the default, and
	// byte-for-byte the pre-persistence pipeline).
	Persister Persister
	// Recovered is the durable state replayed by the persistence layer
	// at startup. NewStore ingests it before serving: terminal jobs
	// come back readable with their exact result sequence, pending jobs
	// are re-dispatched through the engine, and jobs that were running
	// at crash time are deterministically marked failed (or cancelled,
	// if cancellation was already requested) with a "restart" reason —
	// never silently dropped.
	Recovered []PersistedJob
	// SnapshotInterval is the period of the background snapshot +
	// log-compaction loop (persisting stores only); 0 means
	// DefaultSnapshotInterval, negative disables the loop.
	SnapshotInterval time.Duration
	// Logger receives persistence warnings (snapshot failures); nil
	// discards them.
	Logger *slog.Logger
	// Gate is the server-wide admission gate job runners acquire an
	// evaluation slot from before touching the engine (as patient
	// waiters: unbounded FIFO wait, served when no synchronous request
	// is queued). nil runs jobs unthrottled — library embedders and
	// pre-admission behavior.
	Gate *admit.Gate
	// Tracer records each job's root span (and, through the context,
	// the dispatcher's per-shard spans); nil runs jobs untraced.
	Tracer *telemetry.Tracer
	// Now is the clock (tests); nil means time.Now.
	Now func() time.Time
}

// Store is a bounded in-memory job registry. Submitted jobs run on
// their own goroutine against the shared engine; terminal jobs are
// retained for TTL so clients can finish paginating, then garbage
// collected. When the store is full, the oldest-finished terminal job
// is evicted to admit a new one; if every resident job is still
// running, submission fails with ErrStoreFull.
//
// With a Persister configured the store is write-ahead durable: every
// lifecycle transition is handed to the persister atomically with the
// in-memory mutation (persistMu makes the pair indivisible with
// respect to Snapshot dumps), and a periodic snapshot compacts the log.
type Store struct {
	engine      *sweep.Engine
	dispatcher  *dispatch.Dispatcher
	capacity    int
	ttl         time.Duration
	snapshotGap time.Duration
	persister   Persister
	logger      *slog.Logger
	gate        *admit.Gate
	tracer      *telemetry.Tracer
	now         func() time.Time

	// Lifecycle counters for the metrics registry (see metrics.go).
	submitted atomic.Uint64
	succeeded atomic.Uint64
	failed    atomic.Uint64
	cancelled atomic.Uint64

	// persistMu orders mutations against snapshots: every
	// (memory-apply, persister-record) pair runs under RLock, a
	// snapshot dump under Lock — so the dump reflects exactly the
	// records written before it, and compaction can never lose a
	// transition. Lock order: persistMu, then mu, then Job.mu.
	persistMu sync.RWMutex

	mu     sync.Mutex
	jobs   map[string]*Job
	closed bool

	wg   sync.WaitGroup
	stop chan struct{}
}

// NewStore builds a store, ingests any recovered durable state, and
// starts its background loops; Close stops them.
func NewStore(opts Options) *Store {
	eng := opts.Engine
	if eng == nil {
		eng = sweep.New(sweep.Options{})
	}
	disp := opts.Dispatcher
	if disp == nil {
		disp = dispatch.New(dispatch.Options{Engine: eng})
	}
	capacity := opts.Capacity
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	ttl := opts.TTL
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	gcEvery := opts.GCInterval
	if gcEvery <= 0 {
		gcEvery = ttl / 4
		if gcEvery < time.Second {
			gcEvery = time.Second
		}
		if gcEvery > time.Minute {
			gcEvery = time.Minute
		}
	}
	snapEvery := opts.SnapshotInterval
	if snapEvery == 0 {
		snapEvery = DefaultSnapshotInterval
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	s := &Store{
		engine:      eng,
		dispatcher:  disp,
		capacity:    capacity,
		ttl:         ttl,
		snapshotGap: snapEvery,
		persister:   opts.Persister,
		logger:      opts.Logger,
		gate:        opts.Gate,
		tracer:      opts.Tracer,
		now:         now,
		jobs:        make(map[string]*Job),
		stop:        make(chan struct{}),
	}
	s.recover(opts.Recovered)
	s.wg.Add(1)
	go s.gcLoop(gcEvery)
	if s.persister != nil && snapEvery > 0 {
		s.wg.Add(1)
		go s.snapshotLoop(snapEvery)
	}
	return s
}

// recover ingests the durable state replayed at startup and launches
// runners for the jobs that re-enter the queue. It runs before the
// store serves anything, so no lock ordering subtleties apply — but the
// terminal transitions it performs still flow through the persister, so
// the log stays ahead of memory even if the post-recovery compaction
// snapshot fails.
func (s *Store) recover(recovered []PersistedJob) {
	if len(recovered) == 0 {
		return
	}
	// Deterministic ingest order: submission order, id as tiebreak.
	sorted := make([]PersistedJob, len(recovered))
	copy(sorted, recovered)
	sort.Slice(sorted, func(i, k int) bool {
		if !sorted[i].Created.Equal(sorted[k].Created) {
			return sorted[i].Created.Before(sorted[k].Created)
		}
		return sorted[i].ID < sorted[k].ID
	})
	now := s.now()
	type requeued struct {
		job *Job
		ctx context.Context
	}
	var requeue []requeued
	for _, pj := range sorted {
		if pj.State.Terminal() && now.After(pj.Finished.Add(s.ttl)) {
			continue // retention window already passed; stay gone
		}
		ctx, cancel := context.WithCancel(context.Background())
		j := &Job{
			id:              pj.ID,
			kind:            pj.Kind,
			recovered:       true,
			req:             pj.Request,
			cancel:          cancel,
			done:            make(chan struct{}),
			state:           StatePending,
			cancelRequested: pj.CancelRequested,
			created:         pj.Created,
			// Total before the answers, so they get right-sized slabs.
			progress: Progress{Total: pj.Total},
		}
		s.jobs[j.id] = j
		// A pending job runs again from the start, re-entering the queue
		// below. It has answers only if its start record failed to
		// append. A succeeded record promises every answer, so a job
		// whose chunk records failed to append runs again the same way.
		if pj.State == StatePending || pj.State == StateSucceeded && len(pj.Results) < pj.Total {
			requeue = append(requeue, requeued{job: j, ctx: ctx})
			continue
		}
		j.started = pj.Started
		j.appendAnswers(pj.Results)
		j.state = StateRunning // finish() requires a non-terminal state
		if pj.State.Terminal() {
			j.finish(pj.Finished, s.ttl, pj.State, pj.Reason)
		} else {
			// Mid-flight at crash time: deterministically terminal, with
			// the partial results retained and a reason that names the
			// restart. A cancel that was already requested wins.
			state, reason := StateFailed, fmt.Sprintf(
				"restart: job was mid-flight when the server stopped (%d of %d results retained)",
				len(pj.Results), pj.Total)
			if pj.CancelRequested {
				state, reason = StateCancelled, "restart: cancel requested before the server stopped"
			}
			j.finish(now, s.ttl, state, reason)
			s.record(func(p Persister) { p.Finished(j.id, state, reason, now) })
			s.countTerminal(state)
		}
		cancel()
	}
	// Jobs whose Removed records failed to append are back: evict to
	// capacity again.
	for len(s.jobs) > s.capacity && s.evictOneLocked() {
	}
	// Compact before the requeued jobs emit fresh Started records: the
	// new log generation starts from a snapshot in which they are
	// pending. (Correct even if this fails — replay resets a job's
	// results on a second Started record — but compaction keeps the old
	// generation's records from being replayed twice.)
	if err := s.SnapshotNow(); err != nil && s.logger != nil {
		s.logger.Error("jobs: post-recovery snapshot failed", "error", err)
	}
	for _, r := range requeue {
		j, ctx, req := r.job, r.ctx, r.job.req
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.run(ctx, j, req)
		}()
	}
}

// Engine returns the store's evaluation engine.
func (s *Store) Engine() *sweep.Engine { return s.engine }

// Persistent reports whether the store writes a durable log.
func (s *Store) Persistent() bool { return s.persister != nil }

// record runs f against the persister (no-op without one). Callers pair
// it with the matching in-memory mutation inside one withPersist
// section.
func (s *Store) record(f func(Persister)) {
	if s.persister != nil {
		f(s.persister)
	}
}

// withPersist runs one (memory-apply, log-append) unit atomically with
// respect to snapshot dumps. Without a persister it is a direct call.
func (s *Store) withPersist(f func()) {
	if s.persister == nil {
		f()
		return
	}
	s.persistMu.RLock()
	f()
	s.persistMu.RUnlock()
}

// Submit registers a job and starts it asynchronously, returning the
// accepted snapshot immediately. The job runs under its own context —
// detached from the submitter's — and stops only via Cancel or Close.
func (s *Store) Submit(req Request) (Snapshot, error) {
	if s.tracer != nil && req.TraceID == "" {
		// Mint the trace id at admission so the accepted snapshot (and
		// the 202 response built from it) already names the trace.
		req.TraceID = telemetry.NewID()
	}
	var j *Job
	var err error
	s.withPersist(func() {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			err = ErrClosed
			return
		}
		if len(s.jobs) >= s.capacity && !s.evictOneLocked() {
			s.mu.Unlock()
			err = ErrStoreFull
			return
		}
		ctx, cancel := context.WithCancel(context.Background())
		j = newJob(req.Kind, s.now(), cancel)
		j.req = req
		if s.tracer != nil {
			j.traceID = req.TraceID
		}
		s.jobs[j.id] = j
		s.wg.Add(1)
		s.mu.Unlock()
		s.record(func(p Persister) { p.Submitted(j.persisted()) })
		s.submitted.Add(1)
		go func() {
			defer s.wg.Done()
			s.run(ctx, j, req)
		}()
	})
	if err != nil {
		return Snapshot{}, err
	}
	return j.Snapshot(), nil
}

// run drives one job to a terminal state, feeding its progress counters
// from the engine's incremental chunk stream. Each chunk is copied into
// the job's slabs under one lock and its buffer handed straight back to
// the engine's pool, so the store adds no per-result allocation of its
// own to the pipeline. With a persister, every transition is logged
// atomically with its in-memory application; the chunk is encoded
// before recycling, so the log never references pooled memory.
func (s *Store) run(ctx context.Context, j *Job, req Request) {
	defer j.cancel() // release the context's resources
	if req.OnDone != nil {
		// The quota-release hook fires exactly once, after the terminal
		// transition below (every path through run ends terminal).
		defer req.OnDone()
	}
	ctx = telemetry.WithRequestID(ctx, req.RequestID)
	if s.tracer != nil {
		if req.TraceID == "" {
			// A recovered pending job re-enters without its original
			// trace (the trace context died with the old process); give
			// its re-dispatch a fresh one so it is still observable.
			req.TraceID = telemetry.NewID()
			j.setTraceID(req.TraceID)
		}
		var span *telemetry.Span
		ctx, span = s.tracer.StartRoot(ctx, "job", req.TraceID, req.ParentSpanID)
		span.SetAttr("job_id", j.id)
		span.SetAttr("kind", string(req.Kind))
		if req.RequestID != "" {
			span.SetAttr("request_id", req.RequestID)
		}
		defer span.End()
	}
	if s.gate != nil {
		// Jobs wait patiently for an evaluation slot: they never shed
		// (the tenant quota already bounded what got in) and never
		// compete with queued synchronous requests.
		release, err := s.gate.AcquirePatient(ctx, req.Size())
		if err != nil {
			// Cancelled (or the store closed) while still queued.
			s.endUnevaluated(j, StateCancelled, "cancelled before evaluation started")
			return
		}
		defer release()
	}
	opened, err := s.dispatcher.Open(ctx, req.work(), j.shardDone)
	if err != nil {
		s.endUnevaluated(j, StateFailed, err.Error())
		return
	}
	started := s.now()
	s.withPersist(func() {
		j.start(started, opened.Total)
		s.record(func(p Persister) { p.Started(j.id, started, opened.Total) })
	})
	j.setShards(opened.Shards)
	for c := range opened.Chunks {
		s.withPersist(func() {
			j.appendChunk(c.Results)
			s.record(func(p Persister) { p.Chunk(j.id, c.Results) })
		})
		s.engine.Recycle(c)
	}
	state, reason := terminalFor(j, ctx, opened.Total)
	finished := s.now()
	// The finish record goes first: finish releases Wait, and a job a
	// waiter saw finish must recover finished.
	s.withPersist(func() {
		s.record(func(p Persister) { p.Finished(j.id, state, reason, finished) })
		j.finish(finished, s.ttl, state, reason)
	})
	s.countTerminal(state)
}

// endUnevaluated ends a job that never reached evaluation: it starts
// with total 0 and finishes at once.
func (s *Store) endUnevaluated(j *Job, state State, reason string) {
	now := s.now()
	s.withPersist(func() {
		s.record(func(p Persister) {
			p.Started(j.id, now, 0)
			p.Finished(j.id, state, reason, now)
		})
		j.start(now, 0)
		j.finish(now, s.ttl, state, reason)
	})
	s.countTerminal(state)
}

// terminalFor decides the terminal transition once the stream drains.
// Completion is judged by what was actually produced, not by the
// context: a cancel that lands after the last result must not mark a
// fully-delivered job cancelled.
func terminalFor(j *Job, ctx context.Context, total int) (State, string) {
	j.mu.Lock()
	completed, errs := j.progress.Completed, j.progress.Errors
	j.mu.Unlock()
	if completed < total {
		if ctx.Err() != nil {
			return StateCancelled, "cancelled before completion"
		}
		// The engine stream only closes short on cancellation; if that
		// invariant ever breaks, report the truncation rather than lie.
		return StateFailed, fmt.Sprintf("stream ended after %d of %d specs", completed, total)
	}
	if total > 0 && errs == total {
		return StateFailed, fmt.Sprintf("all %d specs failed", total)
	}
	return StateSucceeded, ""
}

// Open starts a request's evaluation stream without registering a job
// — the single definition of the request→evaluation dispatch, shared
// by the job runner, the service's v1 sweep and its NDJSON streaming
// endpoint. The
// dispatcher routes: with peers configured, oversized requests are
// scattered across the cluster; otherwise spaces keep the engine's
// space-aware path (machine axis resolved once, batched speedup
// groups) and flat lists stream spec by spec. Results arrive in
// reusable chunks that the consumer returns via Engine.Recycle. The
// int is the total spec count (the progress denominator). Workers read
// the request's spec list or space until the channel closes, so the
// caller must not modify either before then.
func (s *Store) Open(ctx context.Context, req Request) (<-chan *sweep.Chunk, int, error) {
	opened, err := s.dispatcher.Open(ctx, req.work(), nil)
	return opened.Chunks, opened.Total, err
}

// RunSync runs one request synchronously, bound to the caller's
// context and never registered in the store — the path of v1 optimize
// and the laws overlay: the request blocks until completion and leaves
// no resident job behind. It shares the Submit path's request mapping but collects into
// submission order directly (through the dispatcher, so coordinator
// deployments distribute synchronous sweeps too), avoiding a throwaway
// job record. Results come back in submission (Index) order; a non-nil
// error means the context died (or, for a space, that its axis product
// overflowed).
func (s *Store) RunSync(ctx context.Context, req Request) ([]sweep.Result, error) {
	return s.dispatcher.Run(ctx, req.work())
}

// Get returns a job's snapshot.
func (s *Store) Get(id string) (Snapshot, error) {
	j, err := s.lookup(id)
	if err != nil {
		return Snapshot{}, err
	}
	return j.Snapshot(), nil
}

// List snapshots every resident, unexpired job.
func (s *Store) List() []Snapshot {
	var out []Snapshot
	s.withPersist(func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		now := s.now()
		out = make([]Snapshot, 0, len(s.jobs))
		for id, j := range s.jobs {
			if j.expired(now) {
				s.removeLocked(id, j)
				continue
			}
			out = append(out, j.Snapshot())
		}
	})
	return out
}

// Cancel asks a job to stop and returns its (possibly still draining)
// snapshot. Cancelling a job that already reached a terminal state
// returns the final snapshot alongside ErrTerminal, so callers can
// distinguish "stopped it" from "it was already over".
func (s *Store) Cancel(id string) (Snapshot, error) {
	j, err := s.lookup(id)
	if err != nil {
		return Snapshot{}, err
	}
	cancelled := false
	s.withPersist(func() {
		if cancelled = j.requestCancel(); cancelled {
			s.record(func(p Persister) { p.CancelRequested(id) })
		}
	})
	if !cancelled {
		return j.Snapshot(), ErrTerminal
	}
	return j.Snapshot(), nil
}

// Wait blocks until the job reaches a terminal state or ctx dies.
func (s *Store) Wait(ctx context.Context, id string) (Snapshot, error) {
	j, err := s.lookup(id)
	if err != nil {
		return Snapshot{}, err
	}
	select {
	case <-j.done:
		return j.Snapshot(), nil
	case <-ctx.Done():
		return Snapshot{}, ctx.Err()
	}
}

// Page is one cursor read of a job's results. Results are answers in
// completion order, each carrying its submission Index; Work is the
// job's request, and Work.At(Index) names an answer's spec. The
// sequence is append-only, so NextCursor from one page is always a
// valid cursor for the next. Done reports that the job is terminal and
// the cursor has reached the end — no further results will ever appear.
//
// Results that fit inside one storage slab — every default-limit read
// — are a zero-copy subslice of it, valid after the lock is released
// (the slab prefix a page covers is never rewritten) and even after
// the job expires (the slab lives as long as the page references it);
// limits beyond SlabSize span slabs and are stitched into a fresh
// slice, so the limit semantics are unchanged from the flat-slice
// store.
type Page struct {
	Work       sweep.Batch
	Results    []sweep.Answer
	NextCursor int
	State      State
	Done       bool
}

// Results reads up to limit results starting at cursor (0 = from the
// beginning; limit <= 0 = DefaultPageSize, capped at MaxPageSize). The
// returned page is a read-only view into the job's slab storage —
// copied only when the range spans more than one slab (see Page).
func (s *Store) Results(id string, cursor, limit int) (Page, error) {
	j, err := s.lookup(id)
	if err != nil {
		return Page{}, err
	}
	if limit <= 0 {
		limit = DefaultPageSize
	}
	if limit > MaxPageSize {
		limit = MaxPageSize
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if cursor < 0 || cursor > j.count {
		return Page{}, fmt.Errorf("%w: %d not in [0, %d]", ErrBadCursor, cursor, j.count)
	}
	page := j.page(cursor, limit)
	return Page{
		Work:       j.req.work(),
		Results:    page,
		NextCursor: cursor + len(page),
		State:      j.state,
		Done:       j.state.Terminal() && cursor+len(page) == j.count,
	}, nil
}

// lookup finds a live job, enforcing TTL expiry lazily so a reader can
// never see a job past its retention window even between GC scans.
func (s *Store) lookup(id string) (*Job, error) {
	var j *Job
	var err error
	s.withPersist(func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		var ok bool
		j, ok = s.jobs[id]
		if !ok {
			err = ErrNotFound
			return
		}
		if j.expired(s.now()) {
			s.removeLocked(id, j)
			j, err = nil, ErrNotFound
		}
	})
	if err != nil {
		return nil, err
	}
	return j, nil
}

// removeLocked drops one job from the store: map removal, slab release
// (so the result memory is reclaimable immediately), and the durable
// Removed record. Caller holds s.mu inside a withPersist section.
func (s *Store) removeLocked(id string, j *Job) {
	delete(s.jobs, id)
	j.release()
	s.record(func(p Persister) { p.Removed(id) })
}

// evictOneLocked frees one slot by dropping the oldest-finished
// terminal job. Running jobs are never evicted. Caller holds s.mu
// inside a withPersist section.
func (s *Store) evictOneLocked() bool {
	var victim string
	var victimJob *Job
	var oldest time.Time
	for id, j := range s.jobs {
		ft := j.finishedAt()
		if ft.IsZero() {
			continue
		}
		if victim == "" || ft.Before(oldest) {
			victim, victimJob, oldest = id, j, ft
		}
	}
	if victim == "" {
		return false
	}
	s.removeLocked(victim, victimJob)
	return true
}

// gcLoop periodically drops expired terminal jobs.
func (s *Store) gcLoop(every time.Duration) {
	defer s.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.GC()
		}
	}
}

// snapshotLoop periodically compacts the durable log: a full dump
// replaces everything logged before it.
func (s *Store) snapshotLoop(every time.Duration) {
	defer s.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			if err := s.SnapshotNow(); err != nil && s.logger != nil {
				s.logger.Error("jobs: snapshot failed", "error", err)
			}
		}
	}
}

// GC drops expired jobs now and reports how many were collected.
func (s *Store) GC() int {
	n := 0
	s.withPersist(func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		now := s.now()
		for id, j := range s.jobs {
			if j.expired(now) {
				s.removeLocked(id, j)
				n++
			}
		}
	})
	return n
}

// Dump copies the durable state of every resident job — the snapshot
// source. Results are stitched out of the slabs (one copy; the log is
// about to write them anyway).
func (s *Store) Dump() []PersistedJob {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	out := make([]PersistedJob, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.persisted())
	}
	return out
}

// SnapshotNow dumps the store and hands it to the persister for
// compaction, excluding every concurrent writer so the dump is exactly
// consistent with the record stream. No-op without a persister.
func (s *Store) SnapshotNow() error {
	if s.persister == nil {
		return nil
	}
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	return s.persister.Snapshot(s.Dump())
}

// Len returns the number of resident jobs.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs)
}

// Close stops the background loops, cancels every running job, waits
// for their runners to drain, and — when persisting — writes a final
// snapshot so a clean shutdown restarts from a compact log. The store
// rejects submissions afterwards.
func (s *Store) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.stop)
	running := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		running = append(running, j)
	}
	s.mu.Unlock()
	for _, j := range running {
		j.requestCancel()
	}
	s.wg.Wait()
	if err := s.SnapshotNow(); err != nil && s.logger != nil {
		s.logger.Error("jobs: shutdown snapshot failed", "error", err)
	}
}
