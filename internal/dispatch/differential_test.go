package dispatch_test

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"optspeed/internal/chaos"
	"optspeed/internal/core"
	"optspeed/internal/dispatch"
	"optspeed/internal/jobs"
	"optspeed/internal/service"
	"optspeed/internal/store"
	"optspeed/internal/sweep"
	"optspeed/internal/telemetry"
)

// TestDifferential is the one equivalence and recovery check: a
// coordinator must answer like an in-memory single node (decoded by
// encoding/json, cache_hit masked: cache warmth differs between
// topologies) whatever its peers, faults, restarts and roster changes
// do, and nothing it holds may grow past its bound. Each seed is a
// subtest whose steps are a pure function of the seed (plan); a
// failure prints them, and go test -run 'TestDifferential/seed=N'
// replays them.
func TestDifferential(t *testing.T) {
	cover, ran := make(map[string]int), 0
	for _, seed := range diffSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ran++
			runSeed(t, seed, cover)
		})
	}
	// Every step kind, and the outcomes that hang on timing, are
	// required of the seeds together.
	for _, ev := range append([]string{"cancelled", "cancelled-restart", "crash-mid-flight", "store-fault", "chaos", "spec-list"}, stepKinds...) {
		if ran == len(diffSeeds) && cover[ev] == 0 {
			t.Errorf("no seed produced %q", ev)
		}
	}
}

var diffSeeds = []uint64{1, 2, 3, 4, 5, 6, 7, 8}

// The coordinator's bounds. Its 256-spec cache holds 16 shards of
// 256/16 entries plus 1/8 slack (see sweep's newCache): 288.
const (
	diffSteps, diffShardSize, diffMaxPeers = 44, 8, 5
	diffJobCap, diffMaxTraces              = 4, 8
	diffCacheSize, diffCacheBound          = 256, 288
)

var faultModes = []string{"kill-mid-stream", "http-500", "garbage", "truncate-no-done", "wrong-spec", "duplicate-lines"}

// stepKinds lists every step kind, as often as a plan should draw it.
var stepKinds = strings.Fields(`sweep sweep sweep sweep stream stream stream stream-abort job job job job
	cancel cancel restart crash peer-remove peer-add peer-new chaos-on chaos-off fault-swap fault-swap`)

// step is one planned operation, logged as %+v. peer -1 is the
// coordinator's store; mode "chaos" puts a peer behind the chaos
// plane; a restart's body is a job left in flight; n is a page limit,
// or the lines a stream-abort reads before it hangs up.
type step struct {
	kind string
	peer int
	mode string
	n    int
	body string
}

// plan derives a seed's initial peer count and steps from the seed
// alone, checking roster steps against a model of the roster.
func plan(seed uint64) (int, []step) {
	r := rand.New(rand.NewPCG(seed, 0x5eed))
	initial := 2 + r.IntN(2)
	peers, members := initial, []int{0, 1, 2}[:initial]
	var removed []int
	var steps []step
	for id := range initial {
		if m := r.IntN(3); m > 0 {
			steps = append(steps, step{kind: "fault-swap", peer: id, mode: []string{"chaos", faultModes[r.IntN(len(faultModes))]}[m-1]})
		}
	}
	for len(steps) < diffSteps {
		s := step{kind: stepKinds[r.IntN(len(stepKinds))], n: 1 + r.IntN(40)}
		switch s.kind {
		case "sweep", "stream", "stream-abort", "job":
			s.body = planBody(r, false)
		case "cancel":
			s.body = planBody(r, true)
		case "restart", "crash":
			if r.IntN(2) == 0 {
				s.body = planBody(r, true)
			}
		case "peer-remove", "peer-add":
			from, to := &members, &removed
			if s.kind == "peer-add" {
				from, to = to, from
			}
			if len(*from) == 0 {
				continue
			}
			i := r.IntN(len(*from))
			s.peer = (*from)[i]
			*from, *to = slices.Delete(*from, i, i+1), append(*to, s.peer)
		case "peer-new":
			if peers == diffMaxPeers {
				continue
			}
			s.peer, members = peers, append(members, peers)
			peers++
		case "chaos-on", "chaos-off":
			if s.peer = r.IntN(peers+1) - 1; s.kind == "chaos-on" && s.peer >= 0 {
				s.mode = "chaos"
			}
		case "fault-swap":
			s.peer, s.mode = r.IntN(peers), faultModes[r.IntN(len(faultModes))]
		}
		steps = append(steps, s)
	}
	return initial, steps
}

// planBody draws one sweep request: a small one over a few grid sizes
// (so caches hit and evict) in one of the wire shapes, as a space or as
// a spec list mixing the optimize, speedup and scaled shapes, or a big
// one of 48 to 576 cold specs that a cancel or a restart lands inside.
func planBody(r *rand.Rand, big bool) string {
	stencils := []string{"5-point", "9-point", "9-star", "13-point"}
	sp := sweep.Space{Stencils: subset(r, stencils), Shapes: subset(r, []string{"strip", "square"})}
	for _, m := range subset(r, []string{"sync-bus", "async-bus", "full-async-bus", "banyan", "hypercube", "mesh"}) {
		sp.Machines = append(sp.Machines, core.MachineSpec{Type: m})
	}
	if big {
		for n := 1000 + r.IntN(3000); len(sp.Ns) < 12; n++ {
			sp.Ns = append(sp.Ns, n)
		}
		sp.Stencils = stencils
	} else {
		sp.Ns = subset(r, []int{16, 32, 48, 64, 128, 256})
		if r.IntN(5) == 0 {
			sp.Stencils = append(sp.Stencils, "bogus")
		}
		switch r.IntN(5) {
		case 1:
			sp.Op, sp.Procs = sweep.OpSpeedup, subset(r, []int{1, 2, 4, 8, 16})
		case 2:
			sp.Op, sp.Procs = sweep.OpAmdahl, subset(r, []int{1, 2, 4, 8, 16})
		case 3:
			sp.Op, sp.PointsPerProc = sweep.OpScaled, 64
		case 4:
			return planSpecs(r, &sp)
		}
	}
	b, _ := json.Marshal(service.SweepRequest{Space: &sp})
	return string(b)
}

// planSpecs draws a spec list of 4 to 19 specs over sp's axes, each an
// optimize, speedup or scaled spec.
func planSpecs(r *rand.Rand, sp *sweep.Space) string {
	specs := make([]sweep.Spec, 4+r.IntN(16))
	for i := range specs {
		s := sweep.Spec{N: sp.Ns[r.IntN(len(sp.Ns))], Stencil: sp.Stencils[r.IntN(len(sp.Stencils))],
			Shape: sp.Shapes[r.IntN(len(sp.Shapes))], Machine: sp.Machines[r.IntN(len(sp.Machines))]}
		switch r.IntN(3) {
		case 1:
			s.Op, s.Procs = sweep.OpSpeedup, 1<<r.IntN(5)
		case 2:
			s.Op, s.PointsPerProc = sweep.OpScaled, 64
		}
		specs[i] = s
	}
	b, _ := json.Marshal(service.SweepRequest{Specs: specs})
	return string(b)
}

// subset draws a non-empty random subset of from, in from's order.
func subset[T any](r *rand.Rand, from []T) []T {
	var out []T
	for len(out) == 0 {
		for _, v := range from {
			if r.IntN(2) == 0 {
				out = append(out, v)
			}
		}
	}
	return out
}

// runSeed runs the golden phase, then the seed's steps; the checks
// that need the topology closed run in cleanups.
func runSeed(t *testing.T, seed uint64, cover map[string]int) {
	t.Run("golden", goldenPhase)
	peers, steps := plan(seed)
	var log []string
	before := settledGoroutines(t)
	t.Cleanup(func() {
		if after := settledGoroutines(t); after > before+3 {
			t.Errorf("goroutines grew %d -> %d over the seed", before, after)
		}
		if t.Failed() {
			t.Logf("seed %d steps, replayed by go test -run 'TestDifferential/seed=%d' ./internal/dispatch/:\n%s",
				seed, seed, strings.Join(log, "\n"))
		}
	})
	h := newHarness(t, chaos.Config{Seed: seed, Latency: 0.1, LatencyAmount: 2 * time.Millisecond,
		Drop: 0.1, Truncate: 0.1, Garbage: 0.1, HTTP500: 0.1, StoreWrite: 0.2}, peers, cover)
	for i, s := range steps {
		log = append(log, fmt.Sprintf("%02d %+v", i, s))
		cover[s.kind]++
		if strings.HasPrefix(s.body, `{"specs"`) {
			cover["spec-list"]++
		}
		h.run(s)
		h.bounds()
	}
}

// goldenPhase sends the equivalence corpus to a cold single node and to
// cold coordinators over healthy peers, over one peer in each fault
// mode, and over peers that are all down: every response must be the
// committed golden bytes.
func goldenPhase(t *testing.T) {
	goldenSingle(t)
	for _, mode := range append([]string{"", "all-down"}, faultModes...) {
		t.Run(cmp.Or(mode, "healthy"), func(t *testing.T) { goldenCoordinator(t, mode, false) })
	}
}

// goldenSingle requires a cold single node's responses to the corpus
// to be the golden bytes.
func goldenSingle(t *testing.T) {
	single := newWorker(t)
	for _, tc := range equivalenceBodies {
		_, got := postSweep(t, single, tc.body)
		checkGolden(t, tc.name, got)
	}
}

// goldenCoordinator sends the corpus, one subtest per body if byBody,
// to a cold coordinator over two workers and a peer in mode ("" passes
// through), or over two failing peers if mode is "all-down": every
// response must be the golden bytes.
func goldenCoordinator(t *testing.T, mode string, byBody bool) {
	var peers []string
	if mode == "all-down" {
		peers = []string{newFaultPeer(t, "http-500", -1), newFaultPeer(t, "garbage", -1)}
	} else {
		peers = []string{newWorker(t), newWorker(t), newFaultPeer(t, mode, -1)}
	}
	coord, disp := newCoordinator(t, peers, diffShardSize)
	for _, tc := range equivalenceBodies {
		check := func(t *testing.T) {
			status, got := postSweep(t, coord, tc.body)
			if status != http.StatusOK {
				t.Fatalf("%s: status %d", tc.name, status)
			}
			checkGolden(t, tc.name, got)
		}
		if byBody {
			t.Run(tc.name, check)
		} else {
			check(t)
		}
	}
	// Only a lost result forces a retry (a truncated stream lost only
	// its done record; duplicate records are dropped; an old worker's
	// NDJSON delivers nothing), and only all peers down a local fallback.
	s, down := disp.Stats(), mode == "all-down"
	retry := mode == "kill-mid-stream" || mode == "http-500" || mode == "garbage" || mode == "wrong-spec"
	if s.ShardsPlanned == 0 || down != (s.ShardsFallback > 0) || !down && retry != (s.ShardsRetried > 0) {
		t.Errorf("stats %+v: want a scatter, retries %v, and a fallback only with every peer down", s, retry)
	}
}

// The equivalence corpus scatters (each body exceeds 8 specs) three wire
// shapes: optimize allocations with per-spec errors, the batched
// speedup fast path, and scaled points.
var equivalenceBodies = []struct {
	name string
	body string
}{
	{"optimize", `{"space":{"ns":[16,24,32,48],"stencils":["5-point","9-point","bogus"],` +
		`"shapes":["strip","square"],"machines":[{"type":"sync-bus"},{"type":"hypercube"}]}}`},
	{"speedup", `{"space":{"op":"speedup","ns":[32,64],"stencils":["5-point"],` +
		`"shapes":["strip","square"],"machines":[{"type":"mesh"},{"type":"banyan"}],` +
		`"procs":[1,2,4,8,16,32]}}`},
	{"scaled", `{"space":{"op":"scaled","ns":[16,24,32,48,64,96,128,192,256],"stencils":["9-point"],` +
		`"shapes":["square"],"machines":[{"type":"hypercube"},{"type":"full-async-bus"}],` +
		`"points_per_proc":64}}`},
}

// checkGolden compares got with testdata/equivalence_<name>.golden.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", "equivalence_"+name+".golden"))
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("%s: response diverges from golden (%d vs %d bytes, %v)", name, len(got), len(want), err)
	}
}

// checkReplay requires every site's fired faults to be the non-none
// decisions among its first seq draws of the seed's pure schedule.
func checkReplay(t *testing.T, plane *chaos.Plane) {
	rep := plane.Report()
	if rep.Counts.Injected() >= 4096 {
		t.Fatalf("%d injections overflow the recorded schedule", rep.Counts.Injected())
	}
	for site, seq := range rep.SiteSeqs {
		kind := chaos.SiteHTTP
		switch {
		case strings.HasPrefix(site, "transport "):
			kind = chaos.SiteTransport
		case site == "store append":
			kind = chaos.SiteStore
		}
		var want []chaos.Decision
		for _, d := range plane.Preview(kind, site, int(seq)) {
			if d.Fault != chaos.FaultNone {
				want = append(want, d)
			}
		}
		got := plane.ScheduleFor(site)
		slices.SortFunc(got, func(a, b chaos.Decision) int { return cmp.Compare(a.Seq, b.Seq) })
		if !slices.Equal(got, want) {
			t.Errorf("site %q: fired schedule diverges from its replay:\n  fired  %v\n  replay %v", site, got, want)
		}
	}
}

type wire = service.SweepResultJSON

// harness is one seed's topology: fault peers, the reference, and a
// coordinator restarting on its data directory behind one URL, whose
// peer transport always draws from the chaos plane.
type harness struct {
	t          *testing.T
	plane      *chaos.Plane
	cover      map[string]int
	dir        string
	fsync      store.FsyncPolicy
	storeChaos atomic.Bool
	ref        *service.Server
	want       map[string][]wire // reference results by body
	peers      []*faultPeer
	urls       []string
	front      *httptest.Server
	jobs       map[string]string // every job submitted: id -> body

	live   atomic.Pointer[service.Server]
	ps     *store.Store
	disp   *dispatch.Dispatcher
	roster []string // the next start's seed peers
	faults uint64   // the plane's store faults at the last start
}

// newHarness starts a topology whose chaos plane fires at cfg's rates;
// cfg.Seed also picks the store's fsync policy.
func newHarness(t *testing.T, cfg chaos.Config, peers int, cover map[string]int) *harness {
	h := &harness{
		t: t, cover: cover, dir: t.TempDir(),
		fsync: []store.FsyncPolicy{store.FsyncOff, store.FsyncAlways, store.FsyncInterval}[cfg.Seed%3],
		plane: chaos.New(cfg),
		ref:   service.New(service.Config{}),
		want:  make(map[string][]wire), jobs: make(map[string]string),
	}
	// Cleanups run last first: this one after the topology closed.
	t.Cleanup(func() {
		cover["chaos"] += int(h.plane.Counts().Injected() - h.plane.Counts().Store)
		checkReplay(t, h.plane)
	})
	t.Cleanup(h.ref.Close)
	for range peers {
		h.newPeer()
	}
	h.roster = slices.Clone(h.urls)
	h.start()
	h.front = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.live.Load().Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(func() { h.stop(false) })
	t.Cleanup(h.front.Close)
	return h
}

// newPeer starts the next peer id's worker.
func (h *harness) newPeer() {
	srv := service.New(service.Config{Engine: sweep.New(sweep.Options{})})
	fp := &faultPeer{t: h.t, inner: srv.Handler(), failN: -1}
	fp.chaos = h.plane.Middleware(fmt.Sprintf("w%d", len(h.peers)), fp.inner)
	h.t.Cleanup(srv.Close)
	ts := httptest.NewServer(fp)
	h.t.Cleanup(ts.Close)
	h.peers, h.urls = append(h.peers, fp), append(h.urls, ts.URL)
}

// start serves a fresh coordinator from what its data directory
// recovers, which must be counted and compacted.
func (h *harness) start() {
	storeFault := h.plane.StoreWriteFault()
	ps, recovered, err := store.Open(store.Options{Dir: h.dir, Fsync: h.fsync, WriteFault: func() error {
		if h.storeChaos.Load() {
			return storeFault()
		}
		return nil
	}})
	if err != nil {
		h.t.Fatal(err)
	}
	h.ps, h.faults = ps, h.plane.Counts().Store
	eng := sweep.New(sweep.Options{CacheSize: diffCacheSize})
	h.disp = dispatch.New(dispatch.Options{Engine: eng, Peers: h.roster, ShardSize: diffShardSize,
		HTTPClient: &http.Client{Transport: h.plane.Transport(nil)}})
	h.live.Store(service.New(service.Config{Engine: eng, Dispatcher: h.disp, JobCapacity: diffJobCap,
		Persistence: ps, Recovered: recovered, SnapshotInterval: -1,
		Tracer: telemetry.NewTracer(telemetry.TracerOptions{MaxTraces: diffMaxTraces})}))
	if st := ps.Stats(); st.RecoveredJobs != int64(len(recovered)) || len(recovered) > 0 && st.Snapshots == 0 {
		h.t.Fatalf("recovered %d jobs, store stats %+v", len(recovered), st)
	}
}

// stop shuts the coordinator down; a crash closes the store first.
func (h *harness) stop(crash bool) {
	h.roster = h.disp.PeerURLs()
	if crash {
		h.ps.Close()
	}
	h.live.Load().Close()
	h.ps.Close()
}

func (h *harness) run(s step) {
	switch s.kind {
	case "sweep":
		got := decode[service.SweepResponse](h.t, h.do(http.StatusOK, "POST", "/v1/sweep", s.body)).Results
		h.agree("sweep", s.body, got, true, true)
	case "stream", "stream-abort":
		h.stream(s)
	case "job", "cancel":
		faults := h.plane.Counts().Store
		id := h.submit(s.body)
		if s.kind == "cancel" {
			h.do(0, "DELETE", "/v2/jobs/"+id, "")
		}
		j := h.wait(id)
		n, p := len(h.expect(s.body)), j.Progress
		switch {
		case s.kind == "cancel" && j.State == jobs.StateCancelled && j.CancelRequested:
			h.cover["cancelled"]++
		case j.State != jobs.StateSucceeded || p.Total != n || p.Completed != n || p.ShardsDone != p.Shards:
			h.t.Fatalf("job %s of %d specs: %+v", id, n, j)
		case n > diffShardSize && len(h.disp.PeerURLs()) > 0 && p.Shards == 0:
			h.t.Fatalf("job %s of %d specs never scattered: %+v", id, n, j)
		case h.plane.Counts().Store > faults:
			h.cover["store-fault"]++
		}
		_, got := h.pages(id, s.n)
		h.agree("job "+id, s.body, got, j.State == jobs.StateSucceeded, p.Shards > 0)
	case "restart", "crash":
		h.restart(s)
	case "peer-remove":
		h.do(http.StatusOK, "DELETE", "/v2/cluster/peers?url="+h.urls[s.peer], "")
	case "peer-new", "peer-add":
		if s.kind == "peer-new" {
			h.newPeer()
		}
		h.do(http.StatusOK, "POST", "/v2/cluster/peers", fmt.Sprintf(`{"url":%q}`, h.urls[s.peer]))
	case "chaos-on", "chaos-off", "fault-swap":
		if s.peer < 0 {
			h.storeChaos.Store(s.kind == "chaos-on")
		} else {
			h.peers[s.peer].mode.Store(s.mode)
		}
	}
}

// stream reads /v2/sweeps/stream to its done line, or a stream-abort
// s.n result lines; a scattered stream must arrive in index order.
func (h *harness) stream(s step) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "POST", h.front.URL+"/v2/sweeps/stream", strings.NewReader(s.body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		h.t.Fatalf("stream: %v", err)
	}
	defer resp.Body.Close()
	var got []wire
	for sc, done := bufio.NewScanner(resp.Body), false; !done; {
		if !sc.Scan() {
			h.t.Fatalf("stream (status %d) ended after %d results without a done line: %v", resp.StatusCode, len(got), sc.Err())
		}
		switch line := decode[service.StreamLine](h.t, sc.Bytes()); {
		case line.Done:
			if done = true; line.Stats == nil || line.Stats.Specs != len(got) {
				h.t.Fatalf("stream done line %s after %d results", sc.Bytes(), len(got))
			}
		case line.Result == nil:
			h.t.Fatalf("stream line %s", sc.Bytes())
		default:
			got = append(got, *line.Result)
			done = s.kind == "stream-abort" && len(got) == s.n
		}
	}
	scattered := len(h.expect(s.body)) > diffShardSize && len(h.disp.PeerURLs()) > 0
	h.agree("stream", s.body, got, s.kind == "stream", scattered)
}

// restart restarts the coordinator on its data directory. Every job
// it then serves must be one submitted, marked recovered and holding
// only answers the reference agrees with, every one of them if it
// succeeded (after a lost append too); one terminal before keeps
// its status and byte-identical pages, unless a crash followed a
// failed store append, which loses records by design.
func (h *harness) restart(s step) {
	inflight := ""
	if s.body != "" {
		inflight = h.submit(s.body)
	}
	before, pages := make(map[string]jobs.Snapshot), make(map[string][]byte)
	for _, j := range h.live.Load().Jobs().List() {
		if j.State.Terminal() {
			before[j.ID] = j
			pages[j.ID], _ = h.pages(j.ID, s.n)
		}
	}
	crash := s.kind == "crash"
	h.stop(crash)
	exact := !crash || h.plane.Counts().Store == h.faults
	h.start()
	for _, j := range h.live.Load().Jobs().List() {
		body, ok := h.jobs[j.ID]
		if !ok || !j.Recovered {
			h.t.Fatalf("after restart: job %+v was never submitted or is not marked recovered", j)
		}
		j = h.wait(j.ID)
		raw, got := h.pages(j.ID, s.n)
		h.agree("recovered job "+j.ID, body, got, j.State == jobs.StateSucceeded, false)
		if crash && j.ID == inflight && strings.HasPrefix(j.Reason, "restart:") {
			h.cover["crash-mid-flight"]++
		}
		k, was := before[j.ID]
		if delete(before, j.ID); !was || !exact {
			continue
		}
		// Shard counters describe the run; the log does not keep them.
		p := &k.Progress
		p.Shards, p.ShardsDone, p.ShardsHedged = j.Progress.Shards, j.Progress.ShardsDone, j.Progress.ShardsHedged
		if k.State != j.State || k.Reason != j.Reason || k.CancelRequested != j.CancelRequested ||
			*p != j.Progress || !bytes.Equal(raw, pages[j.ID]) {
			h.t.Fatalf("job %s changed across restart:\n  before %+v %s\n  after  %+v %s", j.ID, k, pages[j.ID], j, raw)
		}
		if j.State == jobs.StateCancelled {
			h.cover["cancelled-restart"]++
		}
	}
	if exact && len(before) > 0 {
		h.t.Fatalf("%d terminal jobs lost across restart", len(before))
	}
}

// bounds checks resident jobs, cache entries and traces against their
// bounds, and that /metrics holds three per-peer series per member.
func (h *harness) bounds() {
	srv := h.live.Load()
	resident, cached, traces := srv.Jobs().Len(), srv.Engine().Stats().CacheLen, srv.Tracer().Len()
	if resident > diffJobCap || cached > diffCacheBound || traces > diffMaxTraces {
		h.t.Fatalf("%d jobs, %d cache entries, %d traces: bounds are %d, %d, %d",
			resident, cached, traces, diffJobCap, diffCacheBound, diffMaxTraces)
	}
	page, roster := h.do(http.StatusOK, "GET", "/metrics", ""), h.disp.PeerURLs()
	if err, series := telemetry.CheckExposition(page), strings.Count(string(page), "\noptspeed_dispatch_peer_"); err != nil ||
		series != 3*len(roster) {
		h.t.Fatalf("/metrics (%v) holds %d per-peer series for a roster of %d", err, series, len(roster))
	}
}

// expect returns the reference's results for a body, cache_hit masked.
func (h *harness) expect(body string) []wire {
	if w, ok := h.want[body]; ok {
		return w
	}
	rr := httptest.NewRecorder()
	h.ref.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(body)))
	if rr.Code != http.StatusOK {
		h.t.Fatalf("reference sweep: %d %s", rr.Code, rr.Body)
	}
	w := decode[service.SweepResponse](h.t, rr.Body.Bytes()).Results
	for i := range w {
		w[i].CacheHit = false
	}
	h.want[body] = w
	return w
}

// agree checks results against the reference's: each index at most
// once (ascending if ordered, all present if complete), each answer
// equal with cache_hit masked.
func (h *harness) agree(what, body string, got []wire, complete, ordered bool) {
	want := h.expect(body)
	seen := make([]bool, len(want))
	for i, r := range got {
		if r.Index < 0 || r.Index >= len(want) || seen[r.Index] || ordered && i > 0 && r.Index < got[i-1].Index {
			h.t.Fatalf("%s: index %d out of range, repeated or out of order", what, r.Index)
		}
		seen[r.Index] = true
		if r.CacheHit = false; r != want[r.Index] {
			h.t.Fatalf("%s: result %d diverges from the single node:\n  got  %+v\n  want %+v", what, r.Index, r, want[r.Index])
		}
	}
	if complete && len(got) != len(want) {
		h.t.Fatalf("%s: %d of %d results", what, len(got), len(want))
	}
}

func (h *harness) submit(body string) string {
	id := decode[service.JobJSON](h.t, h.do(http.StatusAccepted, "POST", "/v2/jobs", `{"sweep":`+body+`}`)).ID
	h.jobs[id] = body
	return id
}

func (h *harness) wait(id string) jobs.Snapshot {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	j, err := h.live.Load().Jobs().Wait(ctx, id)
	if err != nil {
		h.t.Fatalf("job %s: %v", id, err)
	}
	return j
}

// pages reads all of a terminal job's pages, limit results at a time.
func (h *harness) pages(id string, limit int) ([]byte, []wire) {
	var raw []byte
	var got []wire
	for cursor := "0"; ; {
		b := h.do(http.StatusOK, "GET", fmt.Sprintf("/v2/jobs/%s/results?limit=%d&cursor=%s", id, limit, cursor), "")
		p := decode[service.JobResultsResponse](h.t, b)
		raw, got = append(raw, b...), append(got, p.Results...)
		if p.Done {
			return raw, got
		}
		cursor = p.NextCursor
	}
}

// do sends a request to the coordinator; want 0 accepts any status.
func (h *harness) do(want int, method, path, body string) []byte {
	req, _ := http.NewRequest(method, h.front.URL+path, strings.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		h.t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || want != 0 && resp.StatusCode != want {
		h.t.Fatalf("%s %s: status %d, want %d (%v): %s", method, path, resp.StatusCode, want, err, raw)
	}
	return raw
}

func decode[T any](t *testing.T, raw []byte) T {
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("decode %T: %v: %s", v, err, raw)
	}
	return v
}
