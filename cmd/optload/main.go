// Command optload drives an optspeedd server over real HTTP and
// reports serving throughput and latency percentiles — the companion
// of cmd/optbench: optbench tracks the evaluation engine, optload
// tracks the full request→engine→jobs→wire pipeline that sits in front
// of it.
//
// It runs a fixed-duration closed-loop load: -c workers each issue a
// deterministic weighted mix of workloads against the target —
//
//	optimize   POST /v1/optimize       one model query per request
//	sweep      POST /v1/sweep          a batch body (space expansion,
//	                                   batched speedup path, big response)
//	jobs       POST /v2/jobs + polls   submit, poll to terminal, then
//	                                   page /v2/jobs/{id}/results
//	sweepcold  POST /v1/sweep          a large always-fresh space (the n
//	                                   axis rotates per request), so every
//	                                   request is evaluation-bound — the
//	                                   workload distributed sharding exists
//	                                   for
//	laws       POST /v2/laws           the scaling-laws overlay (model vs
//	                                   Amdahl/Gustafson/critical-path)
//
// — and reports per-workload requests, errors, RPS, and p50/p95/p99
// latency, plus the aggregate, as BENCH_http.json (committed per PR by
// the benchmark workflow, so serving-path regressions show up as a
// trajectory next to BENCH_sweep.json).
//
// Usage:
//
//	optload                            # in-process server, 8 workers, 10s
//	optload -addr http://host:8080     # drive a running daemon
//	optload -c 16 -duration 30s -mix optimize=4,sweep=2,jobs=1
//	optload -o - -quick                # small CI smoke run to stdout
//	optload -cluster 3 -workers 2      # coordinator over 3 in-process
//	                                   # worker daemons, vs. a single-node
//	                                   # baseline with the same per-node
//	                                   # worker budget
//	optload -data-dir /tmp/d           # persistence-enabled load: the
//	                                   # in-process server journals every
//	                                   # job to a WAL, so BENCH_http.json
//	                                   # shows the durability overhead
//
// With no -addr, optload starts an in-process server on a loopback
// listener and drives it through the full HTTP stack — same handlers,
// same wire bytes, no network variance — which is what CI runs.
//
// With -cluster N, optload builds the whole topology in process — N
// worker daemons plus a coordinator whose dispatcher shards sweeps
// across them — and measures two phases with identical load: a
// single-node baseline (one daemon, the same -workers engine budget),
// then the coordinator. The report's top level is the coordinator
// phase, Baseline nests the single-node phase, and ClusterSpeedup is
// the sweepcold RPS ratio between them — the throughput-scaling
// headline for a fixed per-node worker budget.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"optspeed/internal/dispatch"
	"optspeed/internal/jobs"
	"optspeed/internal/service"
	"optspeed/internal/store"
	"optspeed/internal/sweep"
	"optspeed/internal/telemetry"
)

// sample is one timed request. A shed is an explicit 429/503 admission
// rejection — expected behavior under overload, counted apart from hard
// errors.
type sample struct {
	workload string
	latency  time.Duration
	err      bool
	shed     bool
}

// WorkloadReport is one workload's aggregate in BENCH_http.json.
// Latency percentiles cover admitted (2xx) requests only; Sheds counts
// explicit 429/503 admission rejections, which are not errors.
type WorkloadReport struct {
	Name     string  `json:"name"`
	Requests int     `json:"requests"`
	Errors   int     `json:"errors"`
	Sheds    int     `json:"sheds,omitempty"`
	RPS      float64 `json:"rps"`
	P50Ms    float64 `json:"p50_ms"`
	P95Ms    float64 `json:"p95_ms"`
	P99Ms    float64 `json:"p99_ms"`
	MaxMs    float64 `json:"max_ms"`
}

// Report is the BENCH_http.json schema. The cluster fields appear only
// for -cluster runs: the top level is then the coordinator phase and
// Baseline the single-node phase under identical load.
type Report struct {
	GoVersion      string            `json:"go_version"`
	GoOS           string            `json:"goos"`
	GoArch         string            `json:"goarch"`
	GOMAXPROCS     int               `json:"gomaxprocs"`
	InProcess      bool              `json:"in_process"`
	Concurrency    int               `json:"concurrency"`
	Mix            string            `json:"mix"`
	DurationSec    float64           `json:"duration_sec"`
	TotalRequests  int               `json:"total_requests"`
	TotalErrors    int               `json:"total_errors"`
	TotalSheds     int               `json:"total_sheds,omitempty"`
	RPS            float64           `json:"rps"`
	Durable        bool              `json:"durable,omitempty"`
	Fsync          string            `json:"fsync,omitempty"`
	ClusterWorkers int               `json:"cluster_workers,omitempty"`
	ShardSize      int               `json:"shard_size,omitempty"`
	ClusterSpeedup float64           `json:"cluster_speedup,omitempty"`
	ScrapeFile     string            `json:"scrape_file,omitempty"`
	Workloads      []WorkloadReport  `json:"workloads"`
	Baseline       *Report           `json:"baseline,omitempty"`
	TraceProbe     *TraceProbeReport `json:"trace_probe,omitempty"`
}

// TraceProbeReport is the -cluster trace check: one oversized sweep job
// submitted through the coordinator must yield a retrievable trace whose
// shard spans cover the scatter and whose critical path fits inside the
// measured wall time.
type TraceProbeReport struct {
	TraceID        string  `json:"trace_id"`
	Spans          int     `json:"spans"`
	ShardSpans     int     `json:"shard_spans"`
	WallMs         float64 `json:"wall_ms"`
	CriticalPathMs float64 `json:"critical_path_ms"`
	SerialMs       float64 `json:"serial_ms"`
	OK             bool    `json:"ok"`
}

// optimizeBodies rotate the single-query workload across machines and
// sizes so the request stream exercises validation and encoding, not
// one memoized byte string.
var optimizeBodies = []string{
	`{"n":256,"stencil":"5-point","shape":"square","machine":{"type":"sync-bus"}}`,
	`{"n":512,"stencil":"9-point","shape":"strip","machine":{"type":"hypercube"}}`,
	`{"n":128,"stencil":"5-point","shape":"square","machine":{"type":"mesh"}}`,
	`{"n":384,"stencil":"5-point","shape":"strip","machine":{"type":"banyan"},"snapped":true}`,
}

// sweepBodies exercise the two hot batch paths: a cross-machine
// optimize space and a batched speedup-over-procs space. After the
// first evaluation the engine answers from cache, so sustained load
// measures the serving pipeline (validation, jobs core, wire encoding)
// rather than model arithmetic — exactly the layer this tool tracks.
var sweepBodies = []string{
	`{"space":{"ns":[64,128,256],"stencils":["5-point","9-point"],"shapes":["strip","square"],` +
		`"machines":[{"type":"sync-bus"},{"type":"mesh"}]}}`,
	`{"space":{"op":"speedup","ns":[256],"stencils":["5-point"],"shapes":["strip","square"],` +
		`"machines":[{"type":"hypercube"},{"type":"async-bus"}],` +
		`"procs":[1,2,3,4,6,8,12,16,24,32,48,64]}}`,
	`{"space":{"op":"amdahl","ns":[256],"stencils":["5-point"],"shapes":["square"],` +
		`"machines":[{"type":"sync-bus"},{"type":"mesh"}],` +
		`"procs":[1,2,4,8,16,32,64,128]}}`,
}

// lawsBodies drive the /v2/laws overlay endpoint: one default-axis
// Figure-7 overlay and one explicit-axis scaled overlay. Like the warm
// sweeps, repeats answer from the engine cache, so the workload
// measures the overlay assembly and encoding path.
var lawsBodies = []string{
	`{"n":256,"stencil":"5-point","shape":"square","machine":{"type":"sync-bus"}}`,
	`{"n":128,"stencil":"9-point","shape":"strip","machine":{"type":"hypercube"},` +
		`"procs":[1,4,16,64,128]}`,
}

// jobsBody is the async workload: a small space submitted as a job,
// polled to terminal, then paginated.
const jobsBody = `{"sweep":{"space":{"ns":[64,128],"stencils":["5-point"],"shapes":["strip","square"],` +
	`"machines":[{"type":"sync-bus"}]}}}`

// coldSeq rotates the sweepcold n axis so no two requests (across all
// load workers) share a cache key: the workload measures evaluation
// throughput, not memoization.
var coldSeq atomic.Int64

// coldSweepBody builds one always-fresh optimize space — a 48-value n
// run (advancing per request) × 2 stencils × 2 shapes × 4 machines =
// 768 specs — so a coordinator shards each request into many
// sub-spaces while a single node grinds it on one engine: the
// distributed-vs-local comparison the -cluster mode reports.
func coldSweepBody() string {
	base := 64 + 48*coldSeq.Add(1)
	var sb strings.Builder
	sb.WriteString(`{"space":{"ns":[`)
	for i := int64(0); i < 48; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.FormatInt(base+i, 10))
	}
	sb.WriteString(`],"stencils":["5-point","9-point"],"shapes":["strip","square"],` +
		`"machines":[{"type":"sync-bus"},{"type":"hypercube"},{"type":"mesh"},{"type":"banyan"}]}}`)
	return sb.String()
}

// parseMix expands "optimize=4,sweep=2,jobs=1" into a request deck.
func parseMix(mix string) ([]string, error) {
	var deck []string
	for _, part := range strings.Split(mix, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, weightStr, ok := strings.Cut(part, "=")
		weight := 1
		if ok {
			w, err := strconv.Atoi(weightStr)
			if err != nil || w < 0 {
				return nil, fmt.Errorf("bad weight in %q", part)
			}
			weight = w
		}
		switch name {
		case "optimize", "sweep", "jobs", "sweepcold", "laws":
		default:
			return nil, fmt.Errorf("unknown workload %q (want optimize, sweep, jobs, sweepcold, laws)", name)
		}
		for i := 0; i < weight; i++ {
			deck = append(deck, name)
		}
	}
	if len(deck) == 0 {
		return nil, fmt.Errorf("empty workload mix")
	}
	return deck, nil
}

// worker issues requests from the deck until ctx expires, timing each
// HTTP round trip individually (a jobs item contributes several).
type worker struct {
	id      int
	base    string
	client  *http.Client
	deck    []string
	samples []sample
	seq     int
}

func (w *worker) run(ctx context.Context) {
	for i := 0; ctx.Err() == nil; i++ {
		switch w.deck[(w.id+i)%len(w.deck)] {
		case "optimize":
			w.post(ctx, "optimize", "/v1/optimize", optimizeBodies[w.seq%len(optimizeBodies)])
		case "sweep":
			w.post(ctx, "sweep", "/v1/sweep", sweepBodies[w.seq%len(sweepBodies)])
		case "sweepcold":
			w.post(ctx, "sweepcold", "/v1/sweep", coldSweepBody())
		case "laws":
			w.post(ctx, "laws", "/v2/laws", lawsBodies[w.seq%len(lawsBodies)])
		case "jobs":
			w.jobRound(ctx)
		}
		w.seq++
	}
}

// do times one request; the response body is drained and discarded
// (the server's encode cost is what is being measured, and draining
// keeps connections reusable). It returns the body only for the jobs
// flow, which must read job state.
func (w *worker) do(ctx context.Context, workload, method, path, body string, keepBody bool) []byte {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, w.base+path, rd)
	if err != nil {
		w.samples = append(w.samples, sample{workload: workload, err: true})
		return nil
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := w.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return nil // shutdown race, not a server failure
		}
		w.samples = append(w.samples, sample{workload: workload, latency: time.Since(start), err: true})
		return nil
	}
	var out []byte
	if keepBody {
		out, err = io.ReadAll(resp.Body)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	resp.Body.Close()
	s := sample{workload: workload, latency: time.Since(start)}
	switch {
	case err == nil && (resp.StatusCode == http.StatusTooManyRequests ||
		resp.StatusCode == http.StatusServiceUnavailable):
		s.shed = true
	case err != nil || resp.StatusCode >= 300:
		s.err = true
	}
	w.samples = append(w.samples, s)
	if s.err || s.shed {
		return nil
	}
	return out
}

func (w *worker) post(ctx context.Context, workload, path, body string) {
	w.do(ctx, workload, http.MethodPost, path, body, false)
}

// jobRound submits one job, polls it to a terminal state, and reads
// every results page. Each HTTP request lands as its own "jobs" sample.
func (w *worker) jobRound(ctx context.Context) {
	raw := w.do(ctx, "jobs", http.MethodPost, "/v2/jobs", jobsBody, true)
	if raw == nil {
		return
	}
	var job struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if json.Unmarshal(raw, &job) != nil || job.ID == "" {
		return
	}
	terminal := func(s string) bool {
		return s == "succeeded" || s == "failed" || s == "cancelled"
	}
	for polls := 0; !terminal(job.State) && polls < 1000 && ctx.Err() == nil; polls++ {
		raw = w.do(ctx, "jobs", http.MethodGet, "/v2/jobs/"+job.ID, "", true)
		if raw == nil || json.Unmarshal(raw, &job) != nil {
			return
		}
		if polls > 2 {
			time.Sleep(time.Millisecond)
		}
	}
	cursor := "0"
	for pages := 0; pages < 64 && ctx.Err() == nil; pages++ {
		raw = w.do(ctx, "jobs", http.MethodGet, "/v2/jobs/"+job.ID+"/results?cursor="+cursor, "", true)
		if raw == nil {
			return
		}
		var page struct {
			NextCursor string `json:"next_cursor"`
			Done       bool   `json:"done"`
		}
		if json.Unmarshal(raw, &page) != nil || page.Done {
			return
		}
		cursor = page.NextCursor
	}
}

// percentile returns the q-quantile of sorted latencies in ms.
func percentile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx]) / float64(time.Millisecond)
}

func aggregate(name string, samples []sample, elapsed time.Duration) WorkloadReport {
	rep := WorkloadReport{Name: name}
	var lats []time.Duration
	for _, s := range samples {
		if name != "total" && s.workload != name {
			continue
		}
		rep.Requests++
		if s.err {
			rep.Errors++
			continue
		}
		if s.shed {
			rep.Sheds++
			continue
		}
		lats = append(lats, s.latency)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	rep.RPS = float64(rep.Requests) / elapsed.Seconds()
	rep.P50Ms = percentile(lats, 0.50)
	rep.P95Ms = percentile(lats, 0.95)
	rep.P99Ms = percentile(lats, 0.99)
	if n := len(lats); n > 0 {
		rep.MaxMs = float64(lats[n-1]) / float64(time.Millisecond)
	}
	return rep
}

// startServer runs one in-process daemon (a worker, or a coordinator
// when peers are given), returning its base URL; the caller runs the
// cleanup when done. A non-empty dataDir opens (or reopens) a durable
// job store there, so the server journals v2 jobs and replays whatever
// the directory already holds.
func startServer(workers int, peers []string, shardSize int, dataDir string, fsync store.FsyncPolicy) (string, func()) {
	eng := sweep.New(sweep.Options{Workers: workers})
	cfg := service.Config{Engine: eng}
	if len(peers) > 0 {
		cfg.Dispatcher = dispatch.New(dispatch.Options{
			Engine:    eng,
			Peers:     peers,
			ShardSize: shardSize,
		})
	}
	var persistence *store.Store
	if dataDir != "" {
		var recovered []jobs.PersistedJob
		var err error
		persistence, recovered, err = store.Open(store.Options{Dir: dataDir, Fsync: fsync})
		if err != nil {
			fatal(err)
		}
		cfg.Persistence = persistence
		cfg.Recovered = recovered
	}
	srv := service.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	return "http://" + ln.Addr().String(), func() {
		hs.Close()
		srv.Close()
		if persistence != nil {
			persistence.Close()
		}
	}
}

// runPhase warms the target, drives the deck at the given concurrency
// for the duration, and aggregates one report.
func runPhase(label, base, mix string, deck []string, conc int, duration time.Duration, inProcess bool) Report {
	client := &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        conc * 2,
			MaxIdleConnsPerHost: conc * 2,
		},
		Timeout: time.Minute,
	}
	// One warmup pass per workload primes the engine cache and the
	// connection pool, so the measured window reflects steady-state
	// serving throughput rather than first-touch model evaluation.
	// sweepcold is deliberately not warmed — staying evaluation-bound
	// is its whole point.
	warm := &worker{id: 0, base: base, client: client, deck: deck}
	warmCtx, cancelWarm := context.WithTimeout(context.Background(), time.Minute)
	warm.post(warmCtx, "optimize", "/v1/optimize", optimizeBodies[0])
	for _, b := range sweepBodies {
		warm.post(warmCtx, "sweep", "/v1/sweep", b)
	}
	for _, b := range lawsBodies {
		warm.post(warmCtx, "laws", "/v2/laws", b)
	}
	warm.jobRound(warmCtx)
	cancelWarm()

	ctx, cancel := context.WithTimeout(context.Background(), duration)
	defer cancel()
	ws := make([]*worker, conc)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range ws {
		ws[i] = &worker{id: i, base: base, client: client, deck: deck}
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.run(ctx)
		}(ws[i])
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []sample
	for _, w := range ws {
		all = append(all, w.samples...)
	}
	total := aggregate("total", all, elapsed)
	report := Report{
		GoVersion:     runtime.Version(),
		GoOS:          runtime.GOOS,
		GoArch:        runtime.GOARCH,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		InProcess:     inProcess,
		Concurrency:   conc,
		Mix:           mix,
		DurationSec:   elapsed.Seconds(),
		TotalRequests: total.Requests,
		TotalErrors:   total.Errors,
		TotalSheds:    total.Sheds,
		RPS:           total.RPS,
	}
	fmt.Fprintf(os.Stderr, "--- %s\n", label)
	for _, name := range []string{"optimize", "sweep", "sweepcold", "laws", "jobs"} {
		rep := aggregate(name, all, elapsed)
		if rep.Requests == 0 {
			continue
		}
		report.Workloads = append(report.Workloads, rep)
		fmt.Fprintf(os.Stderr, "%-9s %7d req %4d err %4d shed %9.1f rps  p50 %7.3fms  p95 %7.3fms  p99 %7.3fms\n",
			name, rep.Requests, rep.Errors, rep.Sheds, rep.RPS, rep.P50Ms, rep.P95Ms, rep.P99Ms)
	}
	fmt.Fprintf(os.Stderr, "%-9s %7d req %4d err %4d shed %9.1f rps\n", "total",
		report.TotalRequests, report.TotalErrors, report.TotalSheds, report.RPS)
	return report
}

// workloadRPS picks one workload's RPS out of a report (0 if absent).
func workloadRPS(r Report, name string) float64 {
	for _, w := range r.Workloads {
		if w.Name == name {
			return w.RPS
		}
	}
	return 0
}

func main() {
	var (
		addr     = flag.String("addr", "", "base URL of a running daemon (e.g. http://localhost:8080); empty runs an in-process server")
		conc     = flag.Int("c", 8, "concurrent load workers")
		duration = flag.Duration("duration", 10*time.Second, "how long to drive load")
		mix      = flag.String("mix", "", "weighted workload mix (default optimize=4,sweep=2,jobs=1,laws=1; cluster mode adds sweepcold=4)")
		out      = flag.String("o", "BENCH_http.json", "output path (\"-\" for stdout)")
		workers  = flag.Int("workers", 0, "in-process engine workers per node (0 = GOMAXPROCS)")
		quick    = flag.Bool("quick", false, "CI smoke: 3s at -c 4 unless overridden")
		cluster  = flag.Int("cluster", 0, "in-process cluster: N worker daemons behind a coordinator, measured against a single-node baseline")
		shardSz  = flag.Int("shard-size", 96, "coordinator shard size in specs (cluster mode)")
		dataDir  = flag.String("data-dir", "", "durable job store directory for the in-process server (empty = in-memory)")
		fsyncPol = flag.String("fsync", string(store.FsyncInterval), "WAL fsync policy with -data-dir: always, interval, or off")
		scrape   = flag.String("scrape", "", "after the run, scrape GET /metrics from the target, validate the exposition format, and archive it to this file")
	)
	flag.Parse()
	if *quick {
		if *duration == 10*time.Second {
			*duration = 3 * time.Second
		}
		if *conc == 8 {
			*conc = 4
		}
	}
	if *mix == "" {
		if *cluster > 0 {
			*mix = "optimize=4,sweep=2,jobs=1,laws=1,sweepcold=4"
		} else {
			*mix = "optimize=4,sweep=2,jobs=1,laws=1"
		}
	}
	deck, err := parseMix(*mix)
	if err != nil {
		fatal(err)
	}
	policy, err := store.ParseFsyncPolicy(*fsyncPol)
	if err != nil {
		fatal(err)
	}

	if *cluster > 0 {
		if *addr != "" {
			fatal(fmt.Errorf("-cluster builds its own in-process topology; drop -addr"))
		}
		if *dataDir != "" {
			fatal(fmt.Errorf("-data-dir does not combine with -cluster"))
		}
		// Phase 1: single node with the same per-node engine budget.
		singleBase, stopSingle := startServer(*workers, nil, 0, "", policy)
		baseline := runPhase(fmt.Sprintf("single node (workers=%d)", *workers),
			singleBase, *mix, deck, *conc, *duration, true)
		stopSingle()
		// Phase 2: N workers behind a coordinator.
		var peers []string
		var stops []func()
		for i := 0; i < *cluster; i++ {
			base, stop := startServer(*workers, nil, 0, "", policy)
			peers = append(peers, base)
			stops = append(stops, stop)
		}
		coordBase, stopCoord := startServer(*workers, peers, *shardSz, "", policy)
		report := runPhase(fmt.Sprintf("coordinator (%d workers × workers=%d, shard=%d)",
			*cluster, *workers, *shardSz), coordBase, *mix, deck, *conc, *duration, true)
		report.ClusterWorkers = *cluster
		report.ShardSize = *shardSz
		report.Baseline = &baseline
		if base := workloadRPS(baseline, "sweepcold"); base > 0 {
			report.ClusterSpeedup = workloadRPS(report, "sweepcold") / base
		} else if baseline.RPS > 0 {
			report.ClusterSpeedup = report.RPS / baseline.RPS
		}
		fmt.Fprintf(os.Stderr, "cluster speedup (sweepcold rps vs single node): %.2fx\n", report.ClusterSpeedup)
		// Trace probe: one oversized job through the coordinator must
		// come back with a retrievable trace covering the scatter.
		report.TraceProbe = traceProbe(coordBase)
		if *scrape != "" {
			scrapeMetrics(coordBase, *scrape)
			report.ScrapeFile = *scrape
		}
		stopCoord()
		for _, stop := range stops {
			stop()
		}
		writeReport(*out, report)
		if report.TraceProbe != nil && !report.TraceProbe.OK {
			fatal(fmt.Errorf("cluster trace probe failed (see report)"))
		}
		return
	}

	base := *addr
	inProcess := base == ""
	var stop func()
	if inProcess {
		base, stop = startServer(*workers, nil, 0, *dataDir, policy)
		defer stop()
		if *dataDir != "" {
			fmt.Fprintf(os.Stderr, "optload: in-process server at %s (data-dir %s, fsync %s)\n",
				base, *dataDir, policy)
		} else {
			fmt.Fprintf(os.Stderr, "optload: in-process server at %s\n", base)
		}
	}
	base = strings.TrimRight(base, "/")
	report := runPhase("load", base, *mix, deck, *conc, *duration, inProcess)
	if inProcess && *dataDir != "" {
		report.Durable = true
		report.Fsync = string(policy)
	}
	if *scrape != "" {
		scrapeMetrics(base, *scrape)
		report.ScrapeFile = *scrape
	}
	writeReport(*out, report)
}

// scrapeMetrics archives a post-run GET /metrics snapshot: the page is
// validated with the strict in-repo exposition parser (a malformed
// page fails the run — that is the point of scraping in CI) and then
// written verbatim to out.
func scrapeMetrics(base, out string) {
	hc := &http.Client{Timeout: 30 * time.Second}
	raw, err := httpDo(hc, http.MethodGet, base+"/metrics", "")
	if err != nil {
		fatal(fmt.Errorf("scrape: %w", err))
	}
	if err := telemetry.CheckExposition(raw); err != nil {
		fatal(fmt.Errorf("scrape: malformed exposition: %w", err))
	}
	if err := os.WriteFile(out, raw, 0o644); err != nil {
		fatal(fmt.Errorf("scrape: %w", err))
	}
	fmt.Fprintf(os.Stderr, "optload: scraped %d bytes of valid exposition to %s\n", len(raw), out)
}

// traceProbe submits one oversized sweep job through the coordinator,
// waits for it to finish, and reads its trace back: the job must carry
// a trace id, the trace must contain shard spans (the scatter really
// was traced), and the critical path must fit inside the wall time.
func traceProbe(base string) *TraceProbeReport {
	hc := &http.Client{Timeout: time.Minute}
	id, err := submitJob(hc, base, `{"sweep":`+coldSweepBody()+`}`)
	if err != nil {
		fatal(fmt.Errorf("trace probe: %w", err))
	}
	if state, err := waitTerminal(hc, base, id); err != nil || state != "succeeded" {
		fatal(fmt.Errorf("trace probe: job %s ended %q (err %v)", id, state, err))
	}
	raw, err := httpDo(hc, http.MethodGet, base+"/v2/jobs/"+id, "")
	if err != nil {
		fatal(fmt.Errorf("trace probe: %w", err))
	}
	var job struct {
		Trace *struct {
			ID string `json:"id"`
		} `json:"trace"`
	}
	if err := json.Unmarshal(raw, &job); err != nil || job.Trace == nil || job.Trace.ID == "" {
		fatal(fmt.Errorf("trace probe: job %s carries no trace block: %s", id, raw))
	}
	raw, err = httpDo(hc, http.MethodGet, base+"/v1/traces/"+job.Trace.ID, "")
	if err != nil {
		fatal(fmt.Errorf("trace probe: %w", err))
	}
	var tr struct {
		TraceID        string  `json:"trace_id"`
		SpanCount      int     `json:"span_count"`
		WallMs         float64 `json:"wall_ms"`
		CriticalPathMs float64 `json:"critical_path_ms"`
		SerialMs       float64 `json:"serial_ms"`
		Spans          []struct {
			Name string `json:"name"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(raw, &tr); err != nil {
		fatal(fmt.Errorf("trace probe: %w", err))
	}
	rep := &TraceProbeReport{
		TraceID:        tr.TraceID,
		Spans:          tr.SpanCount,
		WallMs:         tr.WallMs,
		CriticalPathMs: tr.CriticalPathMs,
		SerialMs:       tr.SerialMs,
	}
	for _, sp := range tr.Spans {
		if sp.Name == "shard" {
			rep.ShardSpans++
		}
	}
	// A hair of slack on cp <= wall: the two are computed from the same
	// span records, so only float rounding separates them.
	rep.OK = rep.ShardSpans > 1 && rep.CriticalPathMs > 0 &&
		rep.CriticalPathMs <= rep.WallMs*1.0001+0.001
	fmt.Fprintf(os.Stderr,
		"optload: trace probe: trace %s, %d spans (%d shards), wall %.1fms, critical path %.1fms, serial %.1fms, ok=%v\n",
		rep.TraceID, rep.Spans, rep.ShardSpans, rep.WallMs, rep.CriticalPathMs, rep.SerialMs, rep.OK)
	return rep
}

// jobState is the slice of the job resource the trace probe reads.
type jobState struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

func httpDo(c *http.Client, method, url, body string) ([]byte, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 300 {
		return nil, fmt.Errorf("%s %s: http %d: %s", method, url, resp.StatusCode, raw)
	}
	return raw, nil
}

func submitJob(c *http.Client, base, body string) (string, error) {
	raw, err := httpDo(c, http.MethodPost, base+"/v2/jobs", body)
	if err != nil {
		return "", err
	}
	var job jobState
	if err := json.Unmarshal(raw, &job); err != nil || job.ID == "" {
		return "", fmt.Errorf("submit: bad job response %s", raw)
	}
	return job.ID, nil
}

func jobStatus(c *http.Client, base, id string) (*jobState, error) {
	raw, err := httpDo(c, http.MethodGet, base+"/v2/jobs/"+id, "")
	if err != nil {
		return nil, err
	}
	var job jobState
	if err := json.Unmarshal(raw, &job); err != nil {
		return nil, err
	}
	return &job, nil
}

func waitTerminal(c *http.Client, base, id string) (string, error) {
	deadline := time.Now().Add(time.Minute)
	for {
		job, err := jobStatus(c, base, id)
		if err != nil {
			return "", err
		}
		switch job.State {
		case "succeeded", "failed", "cancelled":
			return job.State, nil
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("job %s still %s after 1m", id, job.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// writeReport emits the report as indented JSON to the path or stdout.
func writeReport(out string, report Report) {
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if out == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "optload:", err)
	os.Exit(1)
}
