package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"optspeed/internal/dispatch"
	"optspeed/internal/jobs"
	"optspeed/internal/store"
	"optspeed/internal/sweep"
)

// rung is one level of the ladder: each runs the same seeded ops one
// layer lower than the rung above it.
type rung int

const (
	rungHTTP    rung = iota // L0: HTTP over the loopback socket
	rungHandler             // L1: Server.Handler().ServeHTTP, no socket
	rungJobs                // L2: jobs.Store (dispatch.Dispatcher on cluster-cold)
	rungEngine              // L3: sweep.Engine
	rungCore                // L4: core, per spec
)

var rungNames = [...]string{"L0", "L1", "L2", "L3", "L4"}

// opRec is what one executed op leaves behind for checks and counters.
type opRec struct {
	lat     time.Duration
	bytes   int
	polls   int
	pages   int
	body    []byte // kept for sampled ops and jobs
	jobID   string
	traceID string
	hits    int   // L3: specs the engine answered from cache
	missed  []int // L3: the evaluated specs' indices, when only some hit
	submit  time.Duration
	wait    time.Duration
	pageDur time.Duration
}

// roundResult is one measured phase on fresh state.
type roundResult struct {
	setup time.Duration
	wall  time.Duration
	cpu   time.Duration
	alloc uint64
	heap  uint64
	lat   []time.Duration
	recs  []opRec
	c     counters
}

// counters are the exact per-layer counts read around the timed phase.
type counters struct {
	evals, hits       uint64
	cacheLen          int
	admitted, sheds   uint64
	queuedPeak        int
	shards, retries   int
	peerCalls         int
	peerBusy          time.Duration
	peerBytes         int64
	walRecords        int64
	walBytes          int64
	fsyncs            int64
	resident          int
	persistRecords    int64
	persistBusy       time.Duration
	recovery          time.Duration
	criticalPathRatio []float64
	recoveredJobs     int
}

// bench is one configured run of one workload.
type bench struct {
	w     *workload
	warm  []op
	timed []op
	root  string // scratch root for data directories
	// misses holds, per timed op, the specs the engine rung last
	// evaluated; the core rung replays them. It is built outside the
	// timed phase, so the core rung pays only for core.
	misses [][]sweep.Spec
}

// phase is one rung on its own fresh state, set up and ready to run
// the timed ops.
type phase struct {
	ex       *runner
	res      *roundResult
	heap0    uint64
	warmJobs []string
	before   counters
}

// tally counts ops: attempted are the ops that started, failed those
// whose request or check failed. A failure that belongs to no timed op
// (set-up, recovery, the ladder's accounting) counts as one failed
// attempt.
type tally struct{ attempted, failed int }

func (t *tally) add(u tally) {
	t.attempted += u.attempted
	t.failed += u.failed
}

// open builds a rung's fresh state, checks the anchor through it and
// replays the warm-up ops; all of that is the phase's set-up time.
func (b *bench) open(r rung, traced bool) (*phase, error) {
	// Retained heap is measured against the harness's own heap at the
	// start, so it does not depend on how many rounds ran before.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p := &phase{heap0: ms.HeapAlloc}
	start := time.Now()
	ex, err := b.newExec(r, traced)
	if err != nil {
		return nil, err
	}
	p.ex = ex
	if err := ex.anchor(); err != nil {
		ex.close()
		return nil, fmt.Errorf("%s anchor: %w", rungNames[r], err)
	}
	ex.refs = make([]uint64, len(b.warm))
	for pass := 0; pass < b.w.warmPasses; pass++ {
		for i := range b.warm {
			var rec opRec
			if err := ex.do(&b.warm[i], &rec, -1); err != nil {
				ex.close()
				return nil, fmt.Errorf("%s warm-up op %d: %w", rungNames[r], i, err)
			}
			ex.refs[i] = bodyHash(b.warm[i].kind, rec.body)
			if rec.jobID != "" {
				p.warmJobs = append(p.warmJobs, rec.jobID)
			}
		}
	}
	p.res = &roundResult{setup: time.Since(start), recs: make([]opRec, len(b.timed))}
	p.before = ex.counters()
	return p, nil
}

// run executes the timed ops closed-loop on the workload's clients,
// timing each op.
func (p *phase) run(b *bench) (tally, error) {
	return drive(b.w.clients, len(b.timed), func(i int) error {
		rec := &p.res.recs[i]
		s := time.Now()
		err := p.ex.do(&b.timed[i], rec, i)
		rec.lat = time.Since(s)
		return err
	})
}

// finish reads the counters, runs the correctness checks, measures the
// retained heap, checks recovery on jobs-durable's top rung, and
// releases the state. On failure it also returns how many ops failed
// their checks.
func (p *phase) finish(b *bench) (*roundResult, int, error) {
	defer p.ex.close()
	ex, res := p.ex, p.res
	res.c = ex.counters().minus(p.before)
	res.lat = make([]time.Duration, len(res.recs))
	for i := range res.recs {
		res.lat[i] = res.recs[i].lat
	}
	if bad, err := ex.verify(b.timed, res.recs); err != nil {
		return nil, bad, fmt.Errorf("%s: %d ops failed their checks, first: %w", rungNames[ex.r], bad, err)
	}
	if ex.r == rungHTTP && b.w.peers > 0 {
		res.c.criticalPathRatio = ex.criticalPaths(res.recs)
	}
	// Drop what only the checks needed before measuring what the
	// server itself retains. The second collection empties the
	// sync.Pool victim caches the first one only demotes.
	for i := range res.recs {
		res.recs[i].body = nil
	}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.heap = ms.HeapAlloc - min(p.heap0, ms.HeapAlloc)
	if ex.r == rungHTTP && b.w.durable {
		if err := ex.recover(b.timed, res.recs, p.warmJobs, &res.c); err != nil {
			return nil, 1, err
		}
	}
	return res, 0, nil
}

// phaseRun runs one rung on its own fresh state: set-up, the timed ops
// (with wall, CPU and allocation measured around them), and finish. A
// set-up failure counts as one failed attempt.
func (b *bench) phaseRun(r rung, traced bool) (*roundResult, tally, error) {
	p, err := b.open(r, traced)
	if err != nil {
		return nil, tally{1, 1}, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0, cpu0, t0 := ms.TotalAlloc, cpuTime(), time.Now()
	t, err := p.run(b)
	p.res.wall = time.Since(t0)
	p.res.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms)
	p.res.alloc = ms.TotalAlloc - alloc0
	if err != nil {
		p.ex.close()
		return nil, t, fmt.Errorf("%s: %w", rungNames[r], err)
	}
	res, bad, err := p.finish(b)
	if err != nil {
		t.failed = max(bad, 1)
	}
	return res, t, err
}

// drive runs ops [0, n) on clients closed-loop clients sharing one
// cursor. It returns how many ops started and failed, and the errors;
// after the first failure no client starts another op.
func drive(clients, n int, do func(i int) error) (tally, error) {
	var next, started atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				started.Add(1)
				if err := do(i); err != nil {
					errs[c] = fmt.Errorf("op %d: %w", i, err)
					next.Store(int64(n)) // stop the other clients
					return
				}
			}
		}(c)
	}
	wg.Wait()
	t := tally{attempted: int(started.Load())}
	for _, err := range errs {
		if err != nil {
			t.failed++
		}
	}
	return t, errors.Join(errs...)
}

// runner runs ops at one rung.
type runner struct {
	b     *bench
	r     rung
	rig   *rig
	call  caller
	httpc *httpCaller
	js    *jobs.Store // jobs-durable L2: a store over the timed persister
	tp    *timedPersister
	eng   *sweep.Engine
	refs  []uint64
}

func (b *bench) newExec(r rung, traced bool) (*runner, error) {
	ex := &runner{b: b, r: r}
	switch r {
	case rungHTTP, rungHandler, rungJobs:
		o := rigOptions{listen: r == rungHTTP, tracing: traced, peers: b.w.peers}
		if b.w.durable {
			dir, err := dataDir(b.root)
			if err != nil {
				return nil, err
			}
			o.dir = dir
		}
		if r == rungJobs && b.w.durable {
			// L2 drives a jobs.Store directly, journaling through the
			// timing wrapper; the rig only owns the data directory.
			wal, _, err := store.Open(store.Options{Dir: o.dir, Fsync: store.FsyncInterval})
			if err != nil {
				os.RemoveAll(o.dir)
				return nil, err
			}
			ex.tp = &timedPersister{inner: wal}
			ex.eng = sweep.New(sweep.Options{})
			ex.js = jobs.NewStore(jobs.Options{Engine: ex.eng, Persister: ex.tp})
			ex.rig = &rig{dir: o.dir}
			return ex, nil
		}
		rg, err := newRig(o)
		if err != nil {
			return nil, err
		}
		ex.rig = rg
		ex.eng = rg.srv.eng
		ex.js = rg.srv.srv.Jobs()
		if r == rungHTTP {
			ex.httpc = newHTTPCaller(rg.srv.base, b.w.clients)
			ex.call = ex.httpc
		} else {
			ex.call = handlerCaller{h: rg.srv.srv.Handler()}
		}
	case rungEngine:
		ex.eng = sweep.New(sweep.Options{})
	}
	return ex, nil
}

func (ex *runner) close() {
	if ex.httpc != nil {
		ex.httpc.close()
	}
	if ex.tp != nil {
		ex.js.Close()
		ex.tp.inner.Close()
	}
	if ex.rig != nil {
		ex.rig.close()
		if ex.rig.dir != "" {
			os.RemoveAll(ex.rig.dir)
		}
	}
}

// anchor checks the paper's anchor optimum through this rung.
func (ex *runner) anchor() error {
	a := anchorRequest
	spec := sweep.Spec{Op: sweep.OpOptimize, N: a.N, Stencil: a.Stencil, Shape: a.Shape, Machine: a.Machine}
	var procs int
	switch ex.r {
	case rungHTTP, rungHandler:
		status, body, _, err := ex.call.call(http.MethodPost, routes[kindOptimize], mustJSON(a))
		if err != nil {
			return err
		}
		var resp struct{ Procs int }
		if status != http.StatusOK || json.Unmarshal(body, &resp) != nil {
			return fmt.Errorf("http %d: %s", status, body)
		}
		procs = resp.Procs
	case rungJobs, rungEngine:
		res, err := ex.eng.Run(context.Background(), []sweep.Spec{spec})
		if err := resultsErr(res, err, 1); err != nil {
			return err
		}
		procs = res[0].Alloc.Procs
	case rungCore:
		out, err := coreEval([]sweep.Spec{spec})
		if err != nil {
			return err
		}
		procs = out[0].procs
	}
	if procs != anchorProcs {
		return fmt.Errorf("P* = %d, want %d", procs, anchorProcs)
	}
	return nil
}

// do runs one op at this rung. i is the op's index in the timed list,
// or -1 for a warm-up op.
func (ex *runner) do(o *op, rec *opRec, i int) error {
	switch ex.r {
	case rungHTTP, rungHandler:
		return ex.doHTTP(o, rec, i)
	case rungJobs:
		return ex.doJobs(o, rec)
	case rungEngine:
		return ex.doEngine(o, rec)
	default:
		if i < 0 {
			return nil // the core rung has no cache to warm
		}
		if len(ex.b.misses[i]) == 0 {
			return nil
		}
		_, err := coreEval(ex.b.misses[i])
		return err
	}
}

func (ex *runner) doHTTP(o *op, rec *opRec, i int) error {
	if o.kind == kindJob {
		return ex.doHTTPJob(o, rec)
	}
	status, body, tid, err := ex.call.call(http.MethodPost, routes[o.kind], o.body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("http %d: %.200s", status, body)
	}
	rec.bytes, rec.traceID = len(body), tid
	if o.suffix != "" && !bytes.HasSuffix(body, []byte(o.suffix)) {
		return fmt.Errorf("response does not end with %q", o.suffix)
	}
	if i >= 0 && o.deck >= 0 && bodyHash(o.kind, body) != ex.refs[o.deck] {
		return fmt.Errorf("response differs from its set-up response (deck entry %d)", o.deck)
	}
	if i < 0 || o.sample {
		rec.body = body
	}
	return nil
}

// doHTTPJob submits a job, polls it back to back until it is terminal,
// and reads every results page. Polling without a pause keeps the step
// at which an op sees its job finish down to one poll's round trip, a
// small share of the op, rather than a sleep grid the op's time would
// snap to.
func (ex *runner) doHTTPJob(o *op, rec *opRec) error {
	status, body, _, err := ex.call.call(http.MethodPost, routes[kindJob], o.body)
	if err != nil {
		return err
	}
	var job struct{ ID, State string }
	if status != http.StatusAccepted || json.Unmarshal(body, &job) != nil || job.ID == "" {
		return fmt.Errorf("submit: http %d: %.200s", status, body)
	}
	rec.jobID = job.ID
	rec.bytes += len(body)
	for job.State != string(jobs.StateSucceeded) {
		switch job.State {
		case string(jobs.StateFailed), string(jobs.StateCancelled):
			return fmt.Errorf("job %s ended %s", job.ID, job.State)
		}
		status, body, _, err = ex.call.call(http.MethodGet, "/v2/jobs/"+job.ID, nil)
		if err != nil {
			return err
		}
		if status != http.StatusOK || json.Unmarshal(body, &job) != nil {
			return fmt.Errorf("poll: http %d: %.200s", status, body)
		}
		rec.polls++
		rec.bytes += len(body)
	}
	cursor := "0"
	for {
		status, body, _, err = ex.call.call(http.MethodGet,
			"/v2/jobs/"+job.ID+"/results?limit="+strconv.Itoa(jobPageLimit)+"&cursor="+cursor, nil)
		if err != nil {
			return err
		}
		var page struct {
			NextCursor string `json:"next_cursor"`
			Done       bool   `json:"done"`
		}
		if status != http.StatusOK || json.Unmarshal(body, &page) != nil {
			return fmt.Errorf("page: http %d: %.200s", status, body)
		}
		rec.pages++
		rec.bytes += len(body)
		rec.body = append(append(rec.body, body...), '\n')
		if page.Done {
			return nil
		}
		cursor = page.NextCursor
	}
}

func (ex *runner) doJobs(o *op, rec *opRec) error {
	ctx := context.Background()
	if ex.rig != nil && ex.rig.disp != nil {
		res, err := ex.rig.disp.Run(ctx, dispatch.Request{Specs: o.req.Specs, Space: o.req.Space})
		return resultsErr(res, err, o.req.Size())
	}
	switch o.kind {
	case kindStream:
		ch, _, err := ex.js.Open(ctx, o.req)
		if err != nil {
			return err
		}
		n := 0
		for c := range ch {
			for k := range c.Results {
				if c.Results[k].Err != nil {
					err = c.Results[k].Err
				}
			}
			n += len(c.Results)
			ex.js.Engine().Recycle(c)
		}
		if err == nil && n != o.req.Size() {
			err = fmt.Errorf("stream delivered %d of %d results", n, o.req.Size())
		}
		return err
	case kindJob:
		s := time.Now()
		snap, err := ex.js.Submit(o.req)
		if err != nil {
			return err
		}
		rec.submit = time.Since(s)
		s = time.Now()
		if snap, err = ex.js.Wait(ctx, snap.ID); err != nil {
			return err
		}
		rec.wait = time.Since(s)
		if snap.State != jobs.StateSucceeded {
			return fmt.Errorf("job %s ended %s: %s", snap.ID, snap.State, snap.Reason)
		}
		n := 0
		for cursor := 0; ; {
			s = time.Now()
			page, err := ex.js.Results(snap.ID, cursor, jobPageLimit)
			rec.pageDur += time.Since(s)
			if err != nil {
				return err
			}
			rec.pages++
			n += len(page.Results)
			if page.Done {
				break
			}
			cursor = page.NextCursor
		}
		if n != o.req.Size() {
			return fmt.Errorf("job %s paged %d of %d results", snap.ID, n, o.req.Size())
		}
		return nil
	default:
		res, err := ex.js.RunSync(ctx, o.req)
		return resultsErr(res, err, o.req.Size())
	}
}

func (ex *runner) doEngine(o *op, rec *opRec) error {
	ctx := context.Background()
	var res []sweep.Result
	var err error
	if o.req.Space != nil {
		res, err = ex.eng.RunSpace(ctx, *o.req.Space)
	} else {
		res, err = ex.eng.Run(ctx, o.req.Specs)
	}
	if err := resultsErr(res, err, o.req.Size()); err != nil {
		return err
	}
	for k := range res {
		if res[k].CacheHit {
			rec.hits++
		}
	}
	if rec.hits > 0 && rec.hits < len(res) {
		for k := range res {
			if !res[k].CacheHit {
				rec.missed = append(rec.missed, k)
			}
		}
	}
	return nil
}

// evaluated lists the specs an engine-rung op evaluated rather than
// answered from cache.
func evaluated(o *op, rec *opRec) []sweep.Spec {
	if rec.hits == o.req.Size() {
		return nil
	}
	specs := o.req.Specs
	if o.req.Space != nil {
		specs = o.req.Space.Expand()
	}
	if rec.hits == 0 {
		return specs
	}
	out := make([]sweep.Spec, len(rec.missed))
	for k, i := range rec.missed {
		out[k] = specs[i]
	}
	return out
}

func resultsErr(res []sweep.Result, err error, want int) error {
	if err != nil {
		return err
	}
	if len(res) != want {
		return fmt.Errorf("%d results, want %d", len(res), want)
	}
	for k := range res {
		if res[k].Err != nil {
			return fmt.Errorf("spec %d: %w", k, res[k].Err)
		}
	}
	return nil
}

// counters reads the layers' public Stats at this rung.
func (ex *runner) counters() counters {
	var c counters
	if ex.rig == nil || ex.rig.srv == nil {
		if ex.tp != nil {
			c.persistRecords = ex.tp.records.Load()
			c.persistBusy = time.Duration(ex.tp.busyNs.Load())
		}
		if ex.eng != nil {
			st := ex.eng.Stats()
			c.evals, c.hits, c.cacheLen = st.Evaluations, st.CacheHits, st.CacheLen
		}
		return c
	}
	for _, e := range ex.rig.engines() {
		st := e.Stats()
		c.evals += st.Evaluations
		c.hits += st.CacheHits
		c.cacheLen += st.CacheLen
	}
	g := ex.rig.srv.srv.Admission().Gate().Stats()
	c.admitted, c.sheds, c.queuedPeak = g.Admitted, g.Sheds(), g.QueuedPeak
	if ex.rig.disp != nil {
		d := ex.rig.disp.Stats()
		c.shards, c.retries = d.ShardsPlanned, d.ShardsRetried
	}
	if ex.rig.peerRT != nil {
		c.peerCalls, c.peerBusy, c.peerBytes = ex.rig.peerRT.snapshot()
	}
	if ex.rig.wal != nil {
		s := ex.rig.wal.Stats()
		c.walRecords, c.walBytes, c.fsyncs = s.WALRecords, s.WALBytes, s.Fsyncs
	}
	c.resident = ex.js.Len()
	return c
}

// minus turns two readings into the timed phase's share: cumulative
// counts become deltas; levels (cache size, queue peak, resident jobs)
// keep the later reading.
func (c counters) minus(b counters) counters {
	c.evals -= b.evals
	c.hits -= b.hits
	c.admitted -= b.admitted
	c.sheds -= b.sheds
	c.shards -= b.shards
	c.retries -= b.retries
	c.peerCalls -= b.peerCalls
	c.peerBusy -= b.peerBusy
	c.peerBytes -= b.peerBytes
	c.walRecords -= b.walRecords
	c.walBytes -= b.walBytes
	c.fsyncs -= b.fsyncs
	c.persistRecords -= b.persistRecords
	c.persistBusy -= b.persistBusy
	return c
}

// criticalPaths reads each op's coordinator trace and returns its
// critical path over wall time (Gunther's T∞ over the request's span
// DAG; at most 1 by construction of the trace summary).
func (ex *runner) criticalPaths(recs []opRec) []float64 {
	tr := ex.rig.srv.srv.Tracer()
	var out []float64
	for i := range recs {
		if recs[i].traceID == "" {
			continue
		}
		view, ok := tr.Trace(recs[i].traceID)
		if !ok {
			continue
		}
		if s := view.Summary(); s.WallMs > 0 {
			out = append(out, s.CriticalPathMs/s.WallMs)
		}
	}
	return out
}

// bodyHash fingerprints a response. A stream's lines arrive in
// completion order, so its fingerprint is order-independent.
func bodyHash(kind opKind, body []byte) uint64 {
	h := fnv.New64a()
	if kind != kindStream {
		h.Write(body)
		return h.Sum64()
	}
	var sum uint64
	for _, line := range bytes.Split(body, []byte("\n")) {
		h.Reset()
		h.Write(line)
		sum += h.Sum64()
	}
	return sum
}
