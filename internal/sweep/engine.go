package sweep

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
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

// recoverOutcome runs eval on a and converts a panic inside it into an
// error answer: the engine runs model code on its own worker
// goroutines, outside any net/http per-request recover, so a panicking
// evaluation must become a per-spec error rather than a process crash
// (and must still close the cache entry it holds). Whatever eval wrote
// before it panicked is discarded: a keeps only its Index and the
// ErrEvaluationPanic error.
func recoverOutcome(a *Answer, eval func(*Answer)) {
	defer func() {
		if r := recover(); r != nil {
			*a = Answer{Index: a.Index, Err: fmt.Errorf("%w: %v", ErrEvaluationPanic, r)}
		}
	}()
	eval(a)
}

// --- zero-copy result pipeline: pooled chunks and scratch ---

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
var (
	chunkPool   sync.Pool // *Chunk
	scratchPool sync.Pool // *groupScratch
)

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

// groupScratch holds the per-group working slices of the batched
// procs path, pooled so a steady stream of groups allocates nothing
// for them.
type groupScratch struct {
	keys    []specKey
	missIdx []int
	procs   []int
}

func getScratch() *groupScratch {
	if v := scratchPool.Get(); v != nil {
		return v.(*groupScratch)
	}
	return &groupScratch{}
}

// evalResolved answers spec s, the i-th of its request, resolved as
// r/rerr, through the cache, updating counters. It overwrites all of a,
// which may be a recycled chunk slot: the answer is written once, where
// the consumer reads it. cancel releases a coalesced wait on another
// goroutine's in-flight computation; the computation itself is never
// interrupted. An ErrWaitCancelled answer is only written when THIS
// caller's cancel fired: if another caller abandoned the in-flight
// entry (its context died while it was parked on the semaphore), the
// poisoned answer is retried rather than handed to a live caller as if
// it had cancelled.
func (e *Engine) evalResolved(cancel <-chan struct{}, i int, s Spec, r resolved, rerr error, a *Answer) {
	if rerr != nil {
		// Unresolvable specs (bad stencil/shape/machine) fail fast and
		// are never cached: the resolution error is the evaluation error.
		e.keyErrors.Add(1)
		*a = Answer{Index: i, Err: rerr}
		return
	}
	a.Index = i
	for {
		var computed bool
		hit := e.cache.getOrCompute(cancel, r.key, a, func(a *Answer) {
			// The engine-wide semaphore is taken around the computation
			// only — coalesced waiters cost nothing — so the Workers cap
			// holds across every concurrent caller. Waiters for a slot
			// stay cancellable; the in-flight entry this closure holds is
			// removed by the cache's error path.
			select {
			case e.sem <- struct{}{}:
			case <-cancel:
				a.Err = ErrWaitCancelled
				return
			}
			defer func() { <-e.sem }()
			computed = true
			recoverOutcome(a, func(a *Answer) { evaluate(s, r, a) })
			if a.Err != nil {
				e.errors.Add(1)
			}
		})
		if computed {
			e.evals.Add(1)
		}
		if errors.Is(a.Err, ErrWaitCancelled) {
			select {
			case <-cancel:
				return
			default:
				// Another caller's cancellation closed the entry we
				// coalesced on; the errored entry is gone from the
				// cache, so retrying makes us the computer.
				continue
			}
		}
		if hit {
			e.hits.Add(1)
		}
		a.CacheHit = hit
		return
	}
}

// Evaluate answers a single spec, consulting and filling the cache.
func (e *Engine) Evaluate(ctx context.Context, s Spec) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	res := Result{Spec: s}
	r, err := s.resolve()
	e.evalResolved(ctx.Done(), 0, s, r, err, &res.Answer)
	return res, res.Err
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

// streamChunks evaluates the batch on the worker pool, accumulating
// results into pooled chunks. Each worker names the specs it claims
// (Batch.At) and resolves them: a list's spec in full, a space's on its
// machine axis value, already resolved in machines.
func (e *Engine) streamChunks(ctx context.Context, b Batch, machines []machResolved) <-chan *Chunk {
	// A space's machine index is its position's digit below the procs
	// axis (Space.At's nesting order).
	procsLen := 1
	if b.Space != nil {
		procsLen = max(len(b.Space.Procs), 1)
	}
	return e.fanOut(ctx, b.Size(), func(out chan<- *Chunk, next func() int) {
		chunk := getChunk(chunkCap)
		// flush hands the current chunk to the consumer; it reports
		// false when the context died (the chunk is recycled and the
		// worker must stop).
		flush := func() bool {
			select {
			case out <- chunk:
				chunk = getChunk(chunkCap)
				return true
			case <-ctx.Done():
				e.Recycle(chunk)
				return false
			}
		}
		for i := next(); i >= 0; i = next() {
			// A chunk is flushed once full, so the slot fits.
			n := len(chunk.Results)
			chunk.Results = chunk.Results[:n+1]
			res := &chunk.Results[n]
			res.Spec = b.At(i)
			var r resolved
			var err error
			if b.Space != nil {
				r, err = res.Spec.resolveOn(&machines[i/procsLen%len(machines)])
			} else {
				r, err = res.Spec.resolve()
			}
			e.evalResolved(ctx.Done(), i, res.Spec, r, err, &res.Answer)
			if errors.Is(res.Err, ErrWaitCancelled) {
				// The context died while this worker was parked on
				// another goroutine's in-flight computation; the sweep
				// is over.
				chunk.Results = chunk.Results[:n]
				break
			}
			if len(chunk.Results) >= chunkCap {
				if !flush() {
					return
				}
				continue
			}
			// Opportunistic flush: hand over the partial chunk only if
			// the consumer is ready right now, so a live consumer sees
			// per-result progress while a busy one gets batches.
			select {
			case out <- chunk:
				chunk = getChunk(chunkCap)
			default:
			}
		}
		if len(chunk.Results) > 0 {
			flush()
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
// per result) but grow toward chunkCap under backpressure. A space is
// evaluated space-aware: each machine axis value is resolved once per
// space, here, and a space of an op with a batch evaluator and a
// processor axis computes the shared (problem, machine) work once per
// procs group, one chunk per group. A space whose axis product
// overflows is rejected up front.
func (e *Engine) Open(ctx context.Context, b Batch) (<-chan *Chunk, int, error) {
	if b.Space == nil {
		return e.streamChunks(ctx, b, nil), len(b.Specs), nil
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
	if d, _ := lookupOp(sp.Op); d != nil && d.batch != nil && len(sp.Procs) > 1 {
		return e.streamBatched(ctx, d.batch, sp, machines), size, nil
	}
	return e.streamChunks(ctx, b, machines), size, nil
}

// streamBatched streams a space of an op with a batch evaluator and a
// processor axis, one chunk per procs group. Space.At keeps the procs
// axis innermost, so group g is the contiguous run of specs sharing one
// (problem, machine) pair, and its machine is axis value g mod
// len(Machines); each group probes the cache for all members, then
// computes the absentees with a single validated batch call instead of
// |Procs| independent evaluations, and hands the whole group to the
// consumer as one reusable chunk.
func (e *Engine) streamBatched(ctx context.Context, batch batchFunc, sp *Space, machines []machResolved) <-chan *Chunk {
	return e.fanOut(ctx, sp.Size()/len(sp.Procs), func(out chan<- *Chunk, next func() int) {
		for g := next(); g >= 0; g = next() {
			c := e.evalBatchGroup(ctx.Done(), batch, sp, g, &machines[g%len(machines)])
			if c == nil {
				return // cancelled mid-group
			}
			select {
			case out <- c:
			case <-ctx.Done():
				e.Recycle(c)
				return
			}
		}
	})
}

// evalBatchGroup answers procs group g of sp, on its resolved machine,
// as a pooled chunk. It returns nil if the caller's cancel fired while
// probing or computing; otherwise a chunk with one Result per member,
// each answer written straight into its slot. The group's problem is
// built once, and each member is keyed through resolvedFromParts, so
// errors and their precedence are Spec.resolve's. Cache hits are
// served individually; the misses share one batched computation under
// a single semaphore slot, and the cache keeps each from its slot
// (put) so later sweeps hit. All per-group working slices come from
// the scratch pool, and a full cache reuses evicted slots, so a steady
// stream of groups allocates only what the batch evaluator builds
// internally.
func (e *Engine) evalBatchGroup(cancel <-chan struct{}, batch batchFunc, sp *Space, g int, mach *machResolved) *Chunk {
	groupLen := len(sp.Procs)
	base := g * groupLen
	c := getChunk(groupLen)
	rs := c.Results[:groupLen]
	sc := getScratch()
	defer scratchPool.Put(sc)
	if cap(sc.keys) < groupLen {
		sc.keys = make([]specKey, groupLen)
	}
	keys := sc.keys[:groupLen]
	missIdx := sc.missIdx[:0]
	// Members differ from the group's first spec only in Procs.
	first := sp.At(base)
	prob, stCode, probErr := first.problem()
	for i := range rs {
		res := &rs[i]
		res.Spec = first
		res.Spec.Procs = sp.Procs[i]
		r, err := resolvedFromParts(res.Spec, prob, stCode, probErr, mach)
		if err != nil {
			e.keyErrors.Add(1)
			res.Answer = Answer{Index: base + i, Err: err}
			continue
		}
		keys[i] = r.key
		res.Index = base + i
		if !e.cache.peek(cancel, r.key, &res.Answer) {
			missIdx = append(missIdx, i)
			continue
		}
		if errors.Is(res.Err, ErrWaitCancelled) {
			select {
			case <-cancel:
				sc.missIdx = missIdx
				e.Recycle(c)
				return nil
			default:
				// Another caller's cancellation poisoned the entry we
				// coalesced on; recompute it with the batch.
				missIdx = append(missIdx, i)
				continue
			}
		}
		if res.Err == nil {
			e.hits.Add(1)
		}
		res.CacheHit = res.Err == nil
	}
	sc.missIdx = missIdx
	if len(missIdx) == 0 {
		c.Results = rs
		return c
	}
	// One semaphore slot covers the whole batched group: the group is a
	// single fused model computation, which keeps the Workers cap the
	// bound on concurrent computations.
	select {
	case e.sem <- struct{}{}:
	case <-cancel:
		e.Recycle(c)
		return nil
	}
	procs := sc.procs[:0]
	for _, i := range missIdx {
		procs = append(procs, rs[i].Spec.Procs)
	}
	sc.procs = procs
	// A member reached the batch only if it resolved, so the group's
	// problem and machine are valid.
	vals, errs, batchErr := batch(prob, mach.arch, procs)
	<-e.sem
	for j, i := range missIdx {
		a := &rs[i].Answer
		*a = Answer{Index: base + i}
		switch {
		case batchErr != nil:
			a.Err = batchErr
		case errs[j] != nil:
			a.Err = errs[j]
		default:
			a.Value = vals[j]
		}
		e.evals.Add(1)
		if a.Err != nil {
			e.errors.Add(1)
		}
		e.cache.put(keys[i], a)
	}
	c.Results = rs
	return c
}
