package sweep

import (
	"context"
	"testing"

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
// and map growth as it fills, the scratch/chunk pool misses,
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
