package sweep

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"optspeed/internal/core"
)

// batchedAllocSpace is the same shape BenchmarkSweepSpeedupBatched
// (bench_test.go at the repository root) sweeps: a dense procs axis
// against every machine class.
func batchedAllocSpace() Space {
	procs := make([]int, 64)
	for i := range procs {
		procs[i] = i + 1
	}
	return Space{
		Op:       OpSpeedup,
		Ns:       []int{256},
		Stencils: []string{"5-point"},
		Shapes:   []string{"strip", "square"},
		Machines: []core.MachineSpec{
			{Type: "hypercube"}, {Type: "mesh"}, {Type: "sync-bus"},
			{Type: "async-bus"}, {Type: "full-async-bus"}, {Type: "banyan"},
		},
		Procs: procs,
	}
}

// TestBatchedSweepAllocBudget pins the cold batched speedup path's
// allocation count: 768 specs across 12 procs groups on a fresh engine
// must stay within a small constant per group — the cache's slab pages
// and map growth as it fills, chunk pool misses, the workers' scratch,
// SpeedupBatch's internal curve buffers, and the collected result
// slice — nowhere near one allocation per cached result. The budget (500, vs ~2.6k before the zero-copy
// pipeline) leaves head-room for pool-cleared reruns under GC pressure
// while still failing loudly on any per-result regression.
func TestBatchedSweepAllocBudget(t *testing.T) {
	sp := batchedAllocSpace()
	ctx := context.Background()
	// One throwaway run warms the package pools so the measurement sees
	// the steady state a serving process lives in.
	if _, err := New(Options{Workers: 1}).RunSpace(ctx, sp); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		eng := New(Options{Workers: 1})
		results, err := eng.RunSpace(ctx, sp)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != sp.Size() {
			t.Fatalf("got %d results, want %d", len(results), sp.Size())
		}
	})
	if allocs > 500 {
		t.Fatalf("cold batched sweep allocates %.0f (%d specs), budget is 500", allocs, sp.Size())
	}
}

// TestChunkStreamRecycleRoundTrip drives the chunked stream API the way
// the jobs runner does — consume, copy nothing, recycle — and checks
// every result arrives exactly once with its submission index intact.
func TestChunkStreamRecycleRoundTrip(t *testing.T) {
	eng := New(Options{Workers: 4})
	sp := Space{
		Ns:       []int{64, 128},
		Stencils: []string{"5-point", "9-point"},
		Shapes:   []string{"strip", "square"},
		Machines: []core.MachineSpec{{Type: "sync-bus"}, {Type: "mesh"}},
	}
	ch, total, err := eng.Open(context.Background(), Batch{Space: &sp})
	if err != nil {
		t.Fatal(err)
	}
	if total != sp.Size() {
		t.Fatalf("total %d, want %d", total, sp.Size())
	}
	seen := make([]bool, total)
	for c := range ch {
		for _, r := range c.Results {
			if r.Index < 0 || r.Index >= total || seen[r.Index] {
				t.Fatalf("bad or duplicate index %d", r.Index)
			}
			seen[r.Index] = true
			if r.Err != nil || r.Value <= 0 {
				t.Fatalf("bad result %+v", r)
			}
		}
		eng.Recycle(c)
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("index %d never arrived", i)
		}
	}
}

// TestChunkStreamBatchedMatchesRun holds the chunked batched-speedup
// stream to the same values as the ordered Run path.
func TestChunkStreamBatchedMatchesRun(t *testing.T) {
	sp := batchedAllocSpace()
	want, err := New(Options{}).RunSpace(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(Options{})
	ch, total, err := eng.Open(context.Background(), Batch{Space: &sp})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]Result, total)
	n := 0
	for c := range ch {
		for _, r := range c.Results {
			got[r.Index] = r
			n++
		}
		eng.Recycle(c)
	}
	if n != total {
		t.Fatalf("streamed %d results, want %d", n, total)
	}
	for i := range want {
		if got[i].Value != want[i].Value || (got[i].Err == nil) != (want[i].Err == nil) {
			t.Fatalf("result %d diverges: stream %+v vs run %+v", i, got[i], want[i])
		}
	}
}

// TestStaleChunkAnswersReset fills the chunk pool with recycled chunks
// whose slots hold non-zero, errored answers, then runs sweeps that mix
// key errors, model errors, cache hits, coalesced duplicates, misses
// and batched groups. Every path that fills a slot must overwrite all
// of it, so the results equal a fresh engine's, CacheHit aside.
func TestStaleChunkAnswersReset(t *testing.T) {
	ctx := context.Background()
	specs := []Spec{
		{N: 64, Stencil: "5-point", Shape: "square", Machine: syncBusSpec()},
		{N: 64, Stencil: "no-such-stencil", Shape: "square", Machine: syncBusSpec()},
		{N: 96, Stencil: "9-point", Shape: "strip", Machine: core.MachineSpec{Type: "hypercube"}},
		{Op: OpSpeedup, N: 8, Stencil: "5-point", Shape: "strip", Machine: syncBusSpec(), Procs: 4096},
		{N: 64, Stencil: "5-point", Shape: "square", Machine: syncBusSpec()},
		{Op: OpMinGrid, Stencil: "5-point", Shape: "square", Machine: syncBusSpec(), Procs: 16},
		{Op: OpScaled, N: 128, Stencil: "5-point", Shape: "square", Machine: syncBusSpec(), PointsPerProc: 64},
		{N: 64, Stencil: "5-point", Shape: "hexagon", Machine: syncBusSpec()},
	}
	space := Space{
		Ns:       []int{48, 64, 80},
		Stencils: []string{"5-point", "no-such-stencil"},
		Shapes:   []string{"strip", "square"},
		Machines: []core.MachineSpec{syncBusSpec(), {Type: "no-such-machine"}, {Type: "mesh"}},
	}
	batched := Space{
		Op:       OpSpeedup,
		Ns:       []int{16, 64},
		Stencils: []string{"5-point", "no-such-stencil"},
		Shapes:   []string{"strip", "square"},
		Machines: []core.MachineSpec{syncBusSpec(), {Type: "hypercube"}},
		Procs:    []int{1, 4, 16, 64, 100000},
	}
	// warm answers some of each sweep before the measured runs, so they
	// mix cache hits with misses.
	warm := func(e *Engine) {
		t.Helper()
		if _, err := e.Run(ctx, specs[:3]); err != nil {
			t.Fatal(err)
		}
		if _, err := e.RunSpace(ctx, Space{Ns: []int{64}, Stencils: space.Stencils, Shapes: space.Shapes, Machines: space.Machines}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.RunSpace(ctx, Space{Op: OpSpeedup, Ns: []int{64}, Stencils: []string{"5-point"},
			Shapes: []string{"square"}, Machines: batched.Machines, Procs: []int{4, 64}}); err != nil {
			t.Fatal(err)
		}
	}
	run := func(e *Engine) [][]Result {
		t.Helper()
		var out [][]Result
		for _, b := range []Batch{{Specs: specs}, {Space: &space}, {Space: &batched}} {
			rs, err := e.run(ctx, b)
			if err != nil {
				t.Fatal(err)
			}
			for i := range rs {
				rs[i].CacheHit = false
			}
			out = append(out, rs)
		}
		return out
	}
	want := run(New(Options{Workers: 4}))

	e := New(Options{Workers: 4})
	warm(e)
	hitsBefore := e.Stats().CacheHits
	stale := errors.New("stale answer")
	var chunks []*Chunk
	for range 256 {
		c := getChunk(chunkCap)
		c.Results = c.Results[:cap(c.Results)]
		for i := range c.Results {
			c.Results[i] = Result{
				Spec: Spec{Op: OpScaled, N: -1, Stencil: "stale"},
				Answer: Answer{Index: -1, CacheHit: true, Alloc: Alloc{Procs: 99, Area: 1, Speedup: 2, UsedAll: true},
					Value: 42, Grid: 7, Scaled: core.ScaledPoint{Procs: 3, Speedup: 4}, Err: stale},
			}
		}
		chunks = append(chunks, c)
	}
	for _, c := range chunks {
		e.Recycle(c)
	}
	got := run(e)
	if e.Stats().CacheHits == hitsBefore {
		t.Fatal("the measured sweeps got no cache hits")
	}
	for k := range want {
		for i := range want[k] {
			if !reflect.DeepEqual(got[k][i], want[k][i]) {
				t.Fatalf("sweep %d result %d: got %+v, want a fresh engine's %+v", k, i, got[k][i], want[k][i])
			}
		}
	}
}

// TestOpenReturnsEveryChunk: a worker hands its last partial chunk to
// the consumer without taking a fresh one it would then drop, so an
// Open whose consumer recycles every chunk leaves the chunk pool as full
// as it found it and allocates less than one chunk's results array.
func TestOpenReturnsEveryChunk(t *testing.T) {
	// The race detector's sync.Pool drops a quarter of what is put back,
	// by design, so there a pooled buffer's fate cannot be counted.
	var p sync.Pool
	for range 64 {
		p.Put(new(int))
	}
	for range 64 {
		if p.Get() == nil {
			t.Skip("sync.Pool drops buffers in this build")
		}
	}
	e := New(Options{Workers: 2})
	sp := Space{Ns: []int{64, 96}, Stencils: []string{"5-point", "9-point"}, Shapes: []string{"strip", "square"},
		Machines: []core.MachineSpec{syncBusSpec(), {Type: "hypercube"}}}
	open := func() {
		ch, _, err := e.Open(context.Background(), Batch{Space: &sp})
		if err != nil {
			t.Fatal(err)
		}
		for c := range ch {
			e.Recycle(c)
		}
	}
	open() // warm the cache, so the measured runs are all hits
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		open()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	if chunk := uint64(chunkCap) * uint64(unsafe.Sizeof(Result{})); per >= chunk {
		t.Fatalf("an Open allocates %d B, at least a chunk's %d B: a worker drops a pooled chunk", per, chunk)
	}
}
