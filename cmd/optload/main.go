// Command optload drives an optspeedd server over real HTTP and
// reports serving throughput and latency percentiles. It is a load
// generator, not a benchmark record: the gated benchmark is perfbench
// (perfbench/README.md), and the engine and kernel micro-benchmarks
// are go test -bench targets in bench_test.go.
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
//	                                   request is evaluation-bound
//	laws       POST /v2/laws           the scaling-laws overlay (model vs
//	                                   Amdahl/Gustafson/critical-path)
//
// — and reports per-workload requests, errors, sheds, RPS, and
// p50/p95/p99 latency, plus the aggregate, as JSON. It exits 1 when any
// request failed; a 429/503 admission shed is not a failure.
//
// Usage:
//
//	optload                            # in-process server, 8 workers, 10s
//	optload -addr http://host:8080     # drive a running daemon
//	optload -c 16 -duration 30s -mix optimize=4,sweep=2,jobs=1,sweepcold=1
//	optload -c 4 -duration 3s -scrape metrics.txt -o report.json
//
// With no -addr, optload starts an in-process server on a loopback
// listener and drives it through the full HTTP stack — same handlers,
// same wire bytes, no network variance. To load a durable daemon or a
// coordinator, start it with the flags it needs and pass -addr.
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

	"optspeed/internal/jobs"
	"optspeed/internal/service"
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

// WorkloadReport is one workload's aggregate in the report.
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

// Report is the JSON optload writes.
type Report struct {
	GoVersion     string           `json:"go_version"`
	GoOS          string           `json:"goos"`
	GoArch        string           `json:"goarch"`
	GOMAXPROCS    int              `json:"gomaxprocs"`
	InProcess     bool             `json:"in_process"`
	Concurrency   int              `json:"concurrency"`
	Mix           string           `json:"mix"`
	DurationSec   float64          `json:"duration_sec"`
	TotalRequests int              `json:"total_requests"`
	TotalErrors   int              `json:"total_errors"`
	TotalSheds    int              `json:"total_sheds,omitempty"`
	RPS           float64          `json:"rps"`
	ScrapeFile    string           `json:"scrape_file,omitempty"`
	Workloads     []WorkloadReport `json:"workloads"`
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
// 768 specs — so every request misses the cache and, behind a
// coordinator, shards into many sub-spaces.
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
	var out []byte
	if err == nil {
		if keepBody {
			out, err = io.ReadAll(resp.Body)
		} else {
			_, err = io.Copy(io.Discard, resp.Body)
		}
		resp.Body.Close()
	}
	if err != nil && ctx.Err() != nil {
		// Cut off by the end of the run, not a server failure: it
		// must not count toward the exit status.
		return nil
	}
	s := sample{workload: workload, latency: time.Since(start)}
	switch {
	case err != nil:
		s.err = true
	case resp.StatusCode == http.StatusTooManyRequests ||
		resp.StatusCode == http.StatusServiceUnavailable:
		s.shed = true
	case resp.StatusCode >= 300:
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
		ID    string     `json:"id"`
		State jobs.State `json:"state"`
	}
	if json.Unmarshal(raw, &job) != nil || job.ID == "" {
		return
	}
	for polls := 0; !job.State.Terminal() && polls < 1000 && ctx.Err() == nil; polls++ {
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

// startServer runs one in-memory in-process daemon with a default
// engine, returning its base URL and its cleanup.
func startServer() (string, func()) {
	srv := service.New(service.Config{Engine: sweep.New(sweep.Options{})})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	return "http://" + ln.Addr().String(), func() {
		hs.Close()
		srv.Close()
	}
}

// drive warms the target, drives the deck at the given concurrency for
// the duration, and aggregates one report.
func drive(base, mix string, deck []string, conc int, duration time.Duration, inProcess bool) Report {
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

func main() {
	var (
		addr     = flag.String("addr", "", "base URL of a running daemon (e.g. http://localhost:8080); empty runs an in-process server")
		conc     = flag.Int("c", 8, "concurrent load workers")
		duration = flag.Duration("duration", 10*time.Second, "how long to drive load")
		mix      = flag.String("mix", "optimize=4,sweep=2,jobs=1,laws=1", "weighted workload mix over optimize, sweep, jobs, sweepcold, laws")
		out      = flag.String("o", "-", "report path (\"-\" for stdout)")
		scrape   = flag.String("scrape", "", "after the run, scrape GET /metrics from the target, validate the exposition format, and archive it to this file")
	)
	flag.Parse()
	deck, err := parseMix(*mix)
	if err != nil {
		fatal(err)
	}

	base := *addr
	inProcess := base == ""
	if inProcess {
		var stop func()
		base, stop = startServer()
		defer stop()
		fmt.Fprintf(os.Stderr, "optload: in-process server at %s\n", base)
	}
	base = strings.TrimRight(base, "/")
	report := drive(base, *mix, deck, *conc, *duration, inProcess)
	if *scrape != "" {
		scrapeMetrics(base, *scrape)
		report.ScrapeFile = *scrape
	}
	writeReport(*out, report)
	if report.TotalErrors > 0 {
		fatal(fmt.Errorf("%d of %d requests failed", report.TotalErrors, report.TotalRequests))
	}
}

// scrapeMetrics archives a post-run GET /metrics snapshot: the page is
// validated with the strict in-repo exposition parser (a malformed
// page fails the run — that is the point of scraping in CI) and then
// written verbatim to out.
func scrapeMetrics(base, out string) {
	hc := &http.Client{Timeout: 30 * time.Second}
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		fatal(fmt.Errorf("scrape: %w", err))
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("http %d: %s", resp.StatusCode, raw)
	}
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
