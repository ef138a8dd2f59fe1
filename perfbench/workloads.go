package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"optspeed/internal/core"
	"optspeed/internal/jobs"
	"optspeed/internal/service"
	"optspeed/internal/sweep"
)

// opKind is the route an op exercises.
type opKind int

const (
	kindSweep    opKind = iota // POST /v1/sweep
	kindOptimize               // POST /v1/optimize
	kindLaws                   // POST /v2/laws
	kindStream                 // POST /v2/sweeps/stream
	kindJob                    // POST /v2/jobs, poll, read every page
)

var routes = [...]string{
	kindSweep:    "/v1/sweep",
	kindOptimize: "/v1/optimize",
	kindLaws:     "/v2/laws",
	kindStream:   "/v2/sweeps/stream",
	kindJob:      "/v2/jobs",
}

// op is one unit of client work, in two forms: the HTTP body the two
// top rungs send, and the jobs request the lower rungs run.
type op struct {
	kind opKind
	body []byte
	req  jobs.Request
	// deck indexes the warm-up op whose set-up response this op's
	// response must equal byte for byte; -1 for cold ops.
	deck int
	// suffix, when set, is the exact tail every response must end with
	// (a cold sweep's stats line: every spec evaluated, none cached).
	suffix string
	// sample marks ops whose full response is kept and verified after
	// the timed phase.
	sample bool
}

// workload is one named traffic mix.
type workload struct {
	name string
	why  string
	// clients is the closed-loop client count.
	clients int
	// durable runs the server on a WAL-backed store (fresh directory).
	durable bool
	// peers > 0 runs a coordinator over that many in-process workers.
	peers int
	// warmPasses is how often set-up replays the warm list; serve-warm
	// replays it several times, so every pass after the first is served
	// from cache and the last becomes the byte reference.
	warmPasses int
	// build returns the warm-up ops and the timed ops for one seed;
	// scale shrinks the timed op count (the smoke test).
	build func(seed int64, scale float64) (warm, timed []op)
}

// Shapes shared by the cold workloads: 48 n × 2 stencils × 2 shapes ×
// 4 machines = 768 optimize specs per op.
// Per-round op counts are sized so one round's timed phase takes about
// a second on a 2-core machine; the warm-up counts give set-up real work
// (connection reuse, pooled buffers, GC pacing) before the clock starts.
const (
	coldNs        = 48
	coldSweepOps  = 200
	coldWarmOps   = 16
	clusterOps    = 120
	jobOps        = 500
	jobWarmOps    = 24
	jobPageLimit  = 32
	jobNs         = 2
	warmDeckEach  = 8
	warmDeckReps  = 200
	warmPasses    = 6
	clusterShards = 192
	sampleEvery   = 8
)

var (
	coldStencils = []string{"5-point", "9-point"}
	coldShapes   = []string{"strip", "square"}
	coldMachines = []core.MachineSpec{{Type: "sync-bus"}, {Type: "async-bus"}, {Type: "hypercube"}, {Type: "mesh"}}
	jobProcs     = []int{1, 2, 4, 8, 12, 16, 24, 32}
)

// Every cold n range starts above the anchor's n=256, so the set-up
// anchor query never warms a timed key.
const (
	sweepColdN0 = 300
	clusterN0   = 20000
	jobN0       = 40000
)

var workloads = []*workload{
	{
		name:       "sweep-cold",
		why:        "new n window per op, so core evaluation and the sweep miss/evict path do the work",
		clients:    1,
		warmPasses: 1,
		build: func(seed int64, scale float64) ([]op, []op) {
			return coldSweeps(seed, sweepColdN0, scaled(coldSweepOps, scale))
		},
	},
	{
		name:       "serve-warm",
		why:        "deck cached in set-up, so validation, the cache-hit path, encoding and admission do the work",
		clients:    2,
		warmPasses: warmPasses,
		build:      warmDeck,
	},
	{
		name:       "jobs-durable",
		why:        "cold v2 jobs on a WAL store, polled and paged, so the slab/WAL write path and pagination do the work",
		clients:    1,
		durable:    true,
		warmPasses: 1,
		build:      durableJobs,
	},
	{
		name:       "cluster-cold",
		why:        "768-spec cold optimize sweeps through a coordinator and 2 peers, so shard planning, peer decode and merge do the work",
		clients:    1,
		peers:      2,
		warmPasses: 1,
		build: func(seed int64, scale float64) ([]op, []op) {
			return coldSweeps(seed, clusterN0, scaled(clusterOps, scale))
		},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

func scaled(n int, scale float64) int {
	if m := int(float64(n) * scale); m >= 2 {
		return m
	}
	return 2
}

// nWindows deals count×per distinct n values, drawn from [n0, n0 +
// count×per) in a seed-shuffled order, into count windows of per
// values each. Every seed covers the same n set, so the total work of a
// run does not depend on the seed; only which values share an op does.
func nWindows(rng *rand.Rand, n0, count, per int) [][]int {
	perm := rng.Perm(count * per)
	out := make([][]int, count)
	for i := range out {
		w := make([]int, per)
		for k := range w {
			w[k] = n0 + perm[i*per+k]
		}
		out[i] = w
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // every body is built from plain structs
	}
	return b
}

func sweepOp(sp sweep.Space, kind opKind) op {
	return op{
		kind: kind,
		body: mustJSON(service.SweepRequest{Space: &sp}),
		req:  jobs.Request{Kind: jobs.KindSweep, Space: &sp},
		deck: -1,
	}
}

func coldSuffix(specs int) string {
	return fmt.Sprintf(`"stats":{"specs":%d,"cache_hits":0,"evaluated":%d,"errors":0}}`+"\n", specs, specs)
}

// coldSweeps builds one 768-spec optimize sweep per op, each on its own
// n window. The warm-up op uses a window past the timed range.
func coldSweeps(seed int64, n0, count int) ([]op, []op) {
	rng := rand.New(rand.NewSource(seed))
	wins := nWindows(rng, n0, count, coldNs)
	mk := func(ns []int) op {
		o := sweepOp(sweep.Space{Ns: ns, Stencils: coldStencils, Shapes: coldShapes, Machines: coldMachines}, kindSweep)
		o.suffix = coldSuffix(o.req.Size())
		return o
	}
	timed := make([]op, count)
	for i, ns := range wins {
		timed[i] = mk(ns)
		timed[i].sample = i%sampleEvery == 0
	}
	warm := make([]op, coldWarmOps)
	for i := range warm {
		ns := make([]int, coldNs)
		for k := range ns {
			ns[k] = n0 + (count+i)*coldNs + k
		}
		warm[i] = mk(ns)
	}
	return warm, timed
}

// durableJobs builds one cold 128-spec speedup job per op: 2 n × 2
// stencils × 2 shapes × 2 machines × 8 procs.
func durableJobs(seed int64, scale float64) ([]op, []op) {
	count := scaled(jobOps, scale)
	rng := rand.New(rand.NewSource(seed))
	wins := nWindows(rng, jobN0, count+jobWarmOps, jobNs)
	mk := func(ns []int) op {
		sp := sweep.Space{Op: sweep.OpSpeedup, Ns: ns, Stencils: coldStencils, Shapes: coldShapes,
			Machines: coldMachines[:2], Procs: jobProcs}
		return op{
			kind: kindJob,
			body: mustJSON(service.JobSubmitRequest{Sweep: &service.SweepRequest{Space: &sp}}),
			req:  jobs.Request{Kind: jobs.KindSweep, Space: &sp},
			deck: -1,
		}
	}
	ops := make([]op, len(wins))
	for i := range ops {
		ops[i] = mk(wins[i])
	}
	return ops[count:], ops[:count]
}

// warmDeck builds serve-warm's deck: warmDeckEach bodies of each of six
// kinds, with seed-drawn problem values, and a timed sequence that is a
// seed-shuffled multiset holding every deck entry warmDeckReps times
// (scaled), so the mix, and hence the work, is the same for every seed.
func warmDeck(seed int64, scale float64) ([]op, []op) {
	rng := rand.New(rand.NewSource(seed))
	n := func() int { return 64 + rng.Intn(4000) }
	stencil := func() string { return coldStencils[rng.Intn(len(coldStencils))] }
	shape := func() string { return coldShapes[rng.Intn(len(coldShapes))] }
	machine := func() core.MachineSpec { return coldMachines[rng.Intn(len(coldMachines))] }
	procs := []int{2, 4, 8, 16}

	var deck []op
	for i := 0; i < warmDeckEach; i++ {
		// The anchor is always in the deck; its set-up response is
		// checked for the paper's P* = 14.
		req := service.OptimizeRequest{N: n(), Stencil: stencil(), Shape: shape(), Machine: machine()}
		if i == 0 {
			req = anchorRequest
		}
		deck = append(deck, op{
			kind: kindOptimize,
			body: mustJSON(req),
			req: jobs.Request{Kind: jobs.KindOptimize, Specs: []sweep.Spec{{
				Op: sweep.OpOptimize, N: req.N, Stencil: req.Stencil, Shape: req.Shape, Machine: req.Machine}}},
		})
		deck = append(deck, sweepOp(sweep.Space{Ns: []int{n(), n()}, Stencils: coldStencils,
			Shapes: coldShapes, Machines: []core.MachineSpec{machine(), machine()}}, kindSweep))
		deck = append(deck, sweepOp(sweep.Space{Op: sweep.OpSpeedup, Ns: []int{n()}, Stencils: []string{stencil()},
			Shapes: coldShapes, Machines: []core.MachineSpec{machine()}, Procs: jobProcs}, kindSweep))
		deck = append(deck, sweepOp(sweep.Space{Op: sweep.OpAmdahl, Ns: []int{n()}, Stencils: []string{stencil()},
			Shapes: coldShapes, Machines: []core.MachineSpec{machine()}, Procs: jobProcs}, kindSweep))
		deck = append(deck, lawsOp(service.LawsRequest{N: n(), Stencil: stencil(), Shape: shape(),
			Machine: machine(), Procs: procs}))
		deck = append(deck, sweepOp(sweep.Space{Ns: []int{n(), n()}, Stencils: []string{stencil()},
			Shapes: coldShapes, Machines: []core.MachineSpec{machine(), machine()}}, kindStream))
	}
	reps := scaled(warmDeckReps, scale)
	timed := make([]op, 0, reps*len(deck))
	for r := 0; r < reps; r++ {
		for i := range deck {
			o := deck[i]
			o.deck = i
			timed = append(timed, o)
		}
	}
	rng.Shuffle(len(timed), func(i, j int) { timed[i], timed[j] = timed[j], timed[i] })
	for i := range deck {
		deck[i].deck = i
	}
	return deck, timed
}

// lawsOp mirrors the service's overlay layout (the optimum first, then
// per processor count the model speedup and the three laws), so the
// lower rungs run exactly the specs /v2/laws runs.
func lawsOp(req service.LawsRequest) op {
	base := sweep.Spec{N: req.N, Stencil: req.Stencil, Shape: req.Shape, Machine: req.Machine}
	specs := []sweep.Spec{base}
	specs[0].Op = sweep.OpOptimize
	for _, q := range req.Procs {
		for _, o := range [...]sweep.Op{sweep.OpSpeedup, sweep.OpAmdahl, sweep.OpGustafson, sweep.OpCriticalPath} {
			s := base
			s.Op, s.Procs = o, q
			specs = append(specs, s)
		}
	}
	return op{kind: kindLaws, body: mustJSON(req), req: jobs.Request{Kind: jobs.KindSweep, Specs: specs}}
}

// anchorRequest is the paper's anchor: a 256×256 5-point grid in square
// partitions on the synchronous bus has its optimum at 14 processors.
var anchorRequest = service.OptimizeRequest{N: 256, Stencil: "5-point", Shape: "square", Machine: core.MachineSpec{Type: "sync-bus"}}

const anchorProcs = 14
