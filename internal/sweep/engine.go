package sweep

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"optspeed/internal/core"
)

// Options configures an Engine. Zero values take defaults.
type Options struct {
	// Workers is the evaluation pool size; default GOMAXPROCS.
	Workers int
	// CacheSize is the LRU capacity in specs; default DefaultCacheSize.
	CacheSize int
}

// DefaultCacheSize is the LRU capacity used when Options.CacheSize is 0.
// It matches the service's default per-request sweep limit, so a single
// maximum-size sweep fits in cache and an identical repeat is answered
// entirely from it. A resident entry costs about 266 bytes of heap,
// its index slot included (TestCacheEntryFootprint holds it to 320), so
// the full cache, 73,728 entries with its shard slack, is about 20 MB,
// none of which the garbage collector scans.
const DefaultCacheSize = 65536

// Engine evaluates spec lists and spaces on a worker pool with
// canonical-key memoization. It is safe for concurrent use; the cache is
// shared across calls, so repeated or overlapping sweeps coalesce, and
// the worker cap is engine-wide: concurrent callers share one
// evaluation semaphore, so a service exposing a shared engine never
// runs more than Workers model evaluations at once.
type Engine struct {
	workers int
	sem     chan struct{} // bounds concurrent model evaluations engine-wide
	cache   *cache

	evals     atomic.Uint64
	hits      atomic.Uint64
	errors    atomic.Uint64
	keyErrors atomic.Uint64
}

// Stats is a snapshot of an engine's counters.
type Stats struct {
	// Evaluations counts actual model computations (cache misses).
	Evaluations uint64 `json:"evaluations"`
	// CacheHits counts specs answered from the cache, including
	// coalesced waits on in-flight duplicates.
	CacheHits uint64 `json:"cache_hits"`
	// Errors counts evaluations that returned an error (including
	// invalid specs that never reached the model).
	Errors uint64 `json:"errors"`
	// CacheLen is the current number of resident cache entries.
	CacheLen int `json:"cache_len"`
}

// New builds an engine.
func New(opts Options) *Engine {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	cap := opts.CacheSize
	if cap <= 0 {
		cap = DefaultCacheSize
	}
	return &Engine{workers: w, sem: make(chan struct{}, w), cache: newCache(cap)}
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Evaluations: e.evals.Load(),
		CacheHits:   e.hits.Load(),
		Errors:      e.errors.Load() + e.keyErrors.Load(),
		CacheLen:    e.cache.len(),
	}
}

// ErrEvaluationPanic marks answers recovered from a panicking model
// evaluation — a server-side defect, not a caller fault; the service
// maps it to a 500 without leaking the panic text.
var ErrEvaluationPanic = errors.New("sweep: evaluation panicked")

// recoverPanic runs eval and converts a panic inside it into an
// ErrEvaluationPanic error: the engine runs model code on its own
// worker goroutines, outside any net/http per-request recover, so a
// panicking evaluation must become a per-spec error rather than a
// process crash (and must still finish the cache entries it holds).
func recoverPanic(eval func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", ErrEvaluationPanic, r)
		}
	}()
	eval()
	return nil
}

// --- zero-copy result pipeline: pooled chunks ---

// Chunk is one reusable batch of streamed results. Chunks flow out of
// Open in place of one channel send per Result; a consumer that has
// copied or encoded a chunk's Results hands the buffer back via
// Engine.Recycle, after which the slice must not be touched — the
// backing array is reused for a later chunk.
type Chunk struct {
	Results []Result
}

// chunkCap is the default chunk capacity: big enough to amortize the
// channel send and the consumer's per-chunk work, small enough that a
// slow sweep still shows progress at a useful granularity.
const chunkCap = 64

// The pools are package-level: pooled buffers carry no engine state, so
// engines share them, and a service that builds short-lived engines
// (tests, benchmarks) still reuses warm buffers.
var chunkPool sync.Pool // *Chunk

// getChunk returns a chunk with at least capHint capacity and zero
// length.
func getChunk(capHint int) *Chunk {
	if capHint < chunkCap {
		capHint = chunkCap
	}
	if v := chunkPool.Get(); v != nil {
		c := v.(*Chunk)
		if cap(c.Results) < capHint {
			c.Results = make([]Result, 0, capHint)
		}
		return c
	}
	return &Chunk{Results: make([]Result, 0, capHint)}
}

// Recycle returns a chunk received from Open, or from a stream
// honouring its contract, to the buffer pool. The chunk's Results
// slice must not be used afterwards; results that need to outlive the
// chunk must be copied out first (they are plain values — a copy
// shares only immutable strings).
func (e *Engine) Recycle(c *Chunk) {
	if c == nil {
		return
	}
	c.Results = c.Results[:0]
	chunkPool.Put(c)
}

// A unit is what a worker evaluates at once: one spec, or one procs
// group of a batched space (a space of an op with a batch evaluator and
// a procs axis), whose members differ only in Procs and so share one
// problem and one machine. Every unit takes the same steps: its worker
// names its members, and evalUnit resolves them, claims each in the
// cache, computes the members it owns under one sem slot, finishes
// their entries, and only then awaits the members in flight elsewhere.
type unit struct {
	rs    []Result      // one slot per member, its Spec named
	base  int           // rs[0]'s index in the batch
	mach  *machResolved // the members' machine; nil resolves a list spec's own
	batch batchFunc     // the group's evaluator; nil for a single spec

	// Working memory, reused from unit to unit on one worker: a member
	// per slot, and a group's owned Procs.
	ms    []member
	procs []int
}

// member is one unit member between its claim and its answer.
type member struct {
	key   specKey
	t     ticket
	state uint8
}

// Member states.
const (
	memberDone  uint8 = iota // answered: a key error, a hit or an awaited answer
	memberOpen               // resolved and still to claim
	memberOwned              // owns its pending cache entry
	memberWait               // awaits an entry in flight elsewhere
)

// evalUnit answers u into its slots, overwriting each slot's Answer
// whole (a slot may be a recycled chunk's), and counts what it did. It
// reports false if cancel fired first, while the unit waited for a sem
// slot or on another unit's entry; the slots then hold nothing to keep.
// The computation itself is never interrupted.
//
// Two rules keep units from deadlocking on each other's claims, a
// group's and a single spec's alike:
//   - a unit never awaits while it holds an unfinished claim: it
//     finishes every entry it owns before it awaits any;
//   - a unit never holds sem while it awaits: it takes sem only around
//     its computation.
//
// So a unit that awaits holds nothing anyone needs, and the owner of
// every awaited entry can finish it without waiting itself.
func (e *Engine) evalUnit(cancel <-chan struct{}, u *unit) bool {
	rs, ms := u.rs, u.ms[:len(u.rs)]
	mach := u.mach
	if mach == nil {
		m := resolveMachine(rs[0].Spec.Machine)
		mach = &m
	}
	prob, stCode, probErr := rs[0].Spec.problem()
	open := 0
	for i := range rs {
		a := &rs[i].Answer
		r, err := resolvedFromParts(rs[i].Spec, prob, stCode, probErr, mach)
		if err != nil {
			// Unresolvable specs (bad stencil/shape/machine) fail fast and
			// are never cached: the resolution error is the answer.
			e.keyErrors.Add(1)
			*a = Answer{Index: u.base + i, Err: err}
			ms[i].state = memberDone
			continue
		}
		a.Index = u.base + i
		ms[i].key, ms[i].state = r.key, memberOpen
		open++
	}
	for open > 0 {
		owned := 0
		for i := range ms {
			m := &ms[i]
			if m.state != memberOpen {
				continue
			}
			m.t = e.cache.claim(m.key, &rs[i].Answer)
			switch {
			case m.t.owned():
				m.state = memberOwned
				owned++
			case m.t.w != nil:
				m.state = memberWait
			default:
				e.hits.Add(1)
				rs[i].CacheHit = true
				m.state = memberDone
				open--
			}
		}
		if owned > 0 {
			computed := e.compute(cancel, u, prob, mach)
			for i := range ms {
				if ms[i].state != memberOwned {
					continue
				}
				a := &rs[i].Answer
				if computed {
					e.evals.Add(1)
					if a.Err != nil {
						e.errors.Add(1)
					}
				}
				ms[i].t.finish(a)
				ms[i].state = memberDone
			}
			if !computed {
				return false
			}
			open -= owned
		}
		for i := range ms {
			m := &ms[i]
			if m.state != memberWait {
				continue
			}
			a := &rs[i].Answer
			if !await(cancel, m.t.w, a) {
				return false
			}
			if errors.Is(a.Err, ErrWaitCancelled) {
				// Another claimant's cancellation removed the entry this
				// member awaited; claiming it again makes this unit its
				// owner or a waiter on a live one.
				m.state = memberOpen
				continue
			}
			// A failed computation is never "served from the cache":
			// its waiters get the error without the hit flag.
			if a.Err == nil {
				e.hits.Add(1)
				a.CacheHit = true
			}
			m.state = memberDone
			open--
		}
	}
	return true
}

// compute writes the answers of u's owned members under one sem slot:
// evaluate's for a single spec, or the group's batch evaluator's over
// the owned members' Procs, both under recoverPanic. The engine-wide
// sem bounds concurrent computations, so the Workers cap holds across
// every concurrent caller, and a batched group, one fused computation,
// takes one slot. If cancel fires before a slot is free, compute writes
// ErrWaitCancelled instead (finishing an entry with it removes it and
// sends its waiters to claim it again) and reports false.
func (e *Engine) compute(cancel <-chan struct{}, u *unit, prob core.Problem, mach *machResolved) bool {
	select {
	case e.sem <- struct{}{}:
	case <-cancel:
		u.answer(nil, nil, ErrWaitCancelled)
		return false
	}
	if u.batch == nil {
		a := &u.rs[0].Answer
		*a = Answer{Index: a.Index}
		// evaluate reads only the resolved problem and machine. Whatever
		// it wrote before a panic is discarded.
		if err := recoverPanic(func() { evaluate(u.rs[0].Spec, resolved{problem: prob, arch: mach.arch}, a) }); err != nil {
			*a = Answer{Index: a.Index, Err: err}
		}
	} else {
		procs := u.procs[:0]
		for i := range u.rs {
			if u.ms[i].state == memberOwned {
				procs = append(procs, u.rs[i].Spec.Procs)
			}
		}
		var vals []float64
		var errs []error
		var err error
		if perr := recoverPanic(func() { vals, errs, err = u.batch(prob, mach.arch, procs) }); perr != nil {
			err = perr
		}
		u.answer(vals, errs, err)
	}
	<-e.sem
	return true
}

// answer overwrites the owned members' answers with err, or else, for
// the j-th owned member, with errs[j] or vals[j].
func (u *unit) answer(vals []float64, errs []error, err error) {
	j := 0
	for i := range u.rs {
		if u.ms[i].state != memberOwned {
			continue
		}
		a := &u.rs[i].Answer
		*a = Answer{Index: a.Index}
		switch {
		case err != nil:
			a.Err = err
		case errs[j] != nil:
			a.Err = errs[j]
		default:
			a.Value = vals[j]
		}
		j++
	}
}

// Evaluate answers a single spec, consulting and filling the cache, as
// a one-spec unit on the caller's goroutine.
func (e *Engine) Evaluate(ctx context.Context, s Spec) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	// The slot escapes through the op table's indirect call, so the slot
	// and its member share one allocation.
	var one struct {
		rs [1]Result
		ms [1]member
	}
	one.rs[0].Spec = s
	e.evalUnit(ctx.Done(), &unit{rs: one.rs[:], ms: one.ms[:]})
	return one.rs[0], one.rs[0].Err
}

// fanOut runs worker on up to e.workers goroutines over units work
// items. The workers share one claim cursor: next hands each the next
// unclaimed unit, or -1 once the units run out or ctx dies. Experiment
// spec lists are periodic (curve A, curve B, ... repeating), so a
// static stride-W partition would pin each curve to a fixed worker
// subset whenever the period divides W; the dynamic cursor
// load-balances regardless. Result ordering is unaffected — it comes
// from Result.Index, not claim order. The returned channel closes once
// every worker has exited.
func (e *Engine) fanOut(ctx context.Context, units int, worker func(out chan<- *Chunk, next func() int)) <-chan *Chunk {
	// One slot per worker: each can hand off a chunk without waiting
	// for the consumer.
	out := make(chan *Chunk, e.workers)
	var cursor atomic.Int64
	next := func() int {
		i := int(cursor.Add(1)) - 1
		if i >= units || ctx.Err() != nil {
			return -1
		}
		return i
	}
	workers := min(e.workers, units)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			worker(out, next)
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}

// streamChunks evaluates the batch on the worker pool, one unit at a
// time, and accumulates whole units into pooled chunks. A unit is one
// spec, or, with batch, one procs group: Space.At keeps the procs axis
// innermost, so group g is the contiguous run of specs sharing one
// (problem, machine) pair. Each worker names the specs it claims
// (Batch.At); a space's specs resolve on their machine axis value,
// already resolved in machines.
func (e *Engine) streamChunks(ctx context.Context, b Batch, machines []machResolved, batch batchFunc) <-chan *Chunk {
	// A space's machine index is its position's digit below the procs
	// axis (Space.At's nesting order).
	procsLen, size := 1, 1
	if b.Space != nil {
		procsLen = max(len(b.Space.Procs), 1)
	}
	if batch != nil {
		size = procsLen
	}
	// A chunk is full once another unit would not fit.
	limit := max(chunkCap, size)
	return e.fanOut(ctx, b.Size()/size, func(out chan<- *Chunk, next func() int) {
		u := unit{batch: batch, ms: make([]member, size)}
		if batch != nil {
			u.procs = make([]int, 0, size)
		}
		chunk := getChunk(limit)
		// send hands the current chunk to the consumer; it reports
		// false when the context died (the chunk is recycled and the
		// worker must stop).
		send := func() bool {
			select {
			case out <- chunk:
				return true
			case <-ctx.Done():
				e.Recycle(chunk)
				return false
			}
		}
		for g := next(); g >= 0; g = next() {
			n := len(chunk.Results)
			u.rs, u.base = chunk.Results[n:n+size], g*size
			for j := range u.rs {
				u.rs[j].Spec = b.At(u.base + j)
			}
			if machines != nil {
				u.mach = &machines[u.base/procsLen%len(machines)]
			}
			if !e.evalUnit(ctx.Done(), &u) {
				// The context died while the unit waited; the sweep is
				// over.
				break
			}
			chunk.Results = chunk.Results[:n+size]
			if len(chunk.Results)+size > limit {
				if !send() {
					return
				}
				chunk = getChunk(limit)
				continue
			}
			// Opportunistic flush: hand over the partial chunk only if
			// the consumer is ready right now, so a live consumer sees
			// per-unit progress while a busy one gets batches.
			select {
			case out <- chunk:
				chunk = getChunk(limit)
			default:
			}
		}
		if len(chunk.Results) > 0 {
			send()
		} else {
			e.Recycle(chunk)
		}
	})
}

// Run evaluates the specs and returns results ordered by Index (the
// submission order), making sweeps deterministic end to end. Per-spec
// model errors are reported in Result.Err, not as the returned error; a
// non-nil error means the context was cancelled, and the results then
// hold only the completed entries (unevaluated ones keep their
// submitted Spec and an Err of ctx.Err()).
func (e *Engine) Run(ctx context.Context, specs []Spec) ([]Result, error) {
	return e.run(ctx, Batch{Specs: specs})
}

// RunSpace is Run for a Cartesian space, with Open's space-aware
// evaluation. A space whose axis product overflows is rejected up
// front.
func (e *Engine) RunSpace(ctx context.Context, sp Space) ([]Result, error) {
	return e.run(ctx, Batch{Space: &sp})
}

func (e *Engine) run(ctx context.Context, b Batch) ([]Result, error) {
	ch, _, err := e.Open(ctx, b)
	if err != nil {
		return nil, err
	}
	return e.Collect(ctx, ch, b)
}

// Collect drains a chunked stream of work's results (one from Open, or
// a stream honouring its contract) into submission (Index) order,
// recycling each chunk as it lands. On a dead context the unfinished
// entries keep their submitted Spec and an Err of ctx.Err(), and the
// context error is returned; work.At names the submitted spec of those
// entries only, so a caller holding a space never expands it.
func (e *Engine) Collect(ctx context.Context, ch <-chan *Chunk, work Batch) ([]Result, error) {
	total := work.Size()
	results := make([]Result, total)
	done := make([]bool, total)
	for c := range ch {
		for i := range c.Results {
			r := &c.Results[i]
			results[r.Index] = *r
			done[r.Index] = true
		}
		e.Recycle(c)
	}
	if err := ctx.Err(); err != nil {
		for i := range results {
			if !done[i] {
				results[i] = Result{Spec: work.At(i), Answer: Answer{Index: i, Err: err}}
			}
		}
		return results, err
	}
	return results, nil
}

// Open starts evaluating the batch on the worker pool and streams its
// results in reusable chunks as they complete; it is the engine's one
// way in. Arrival order is nondeterministic and Result.Index ties each
// result to its spec. A consumer reads or copies each chunk's Results
// and hands the buffer back via Recycle. The int is the spec count, the
// progress denominator for callers tracking completion. The channel
// closes when every spec is done or the context dies; on cancellation
// the remaining specs are skipped, not errored.
//
// The workers read the batch's spec list, or its space, until the
// channel closes, so the caller must not modify either before then.
// Each worker names and resolves the specs it claims. Chunks stay
// small while the consumer keeps up (workers flush opportunistically
// per unit) but grow toward chunkCap under backpressure. A space is
// evaluated space-aware: each machine axis value is resolved once per
// space, here, and a space of an op with a batch evaluator and a
// processor axis is evaluated one procs group per unit, so the shared
// (problem, machine) work is computed once per group; a chunk holds
// whole groups. A space whose axis product overflows is rejected up
// front.
func (e *Engine) Open(ctx context.Context, b Batch) (<-chan *Chunk, int, error) {
	if b.Space == nil {
		return e.streamChunks(ctx, b, nil, nil), len(b.Specs), nil
	}
	sp := b.Space
	size := sp.Size()
	if size == math.MaxInt {
		return nil, 0, fmt.Errorf("sweep: space axis product overflows; refusing to expand")
	}
	machines := make([]machResolved, len(sp.Machines))
	for i, m := range sp.Machines {
		machines[i] = resolveMachine(m)
	}
	var batch batchFunc
	if d, _ := lookupOp(sp.Op); d != nil && d.batch != nil && len(sp.Procs) > 1 {
		batch = d.batch
	}
	return e.streamChunks(ctx, b, machines, batch), size, nil
}
