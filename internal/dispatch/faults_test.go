package dispatch_test

import (
	"context"
	"testing"
	"time"

	"optspeed/internal/core"
	"optspeed/internal/dispatch"
	"optspeed/internal/sweep"
)

// testSpace builds a space of n·4 optimize specs (distinct, so cold
// engines produce no cache hits anywhere).
func testSpace(ns ...int) *sweep.Space {
	return &sweep.Space{
		Ns:       ns,
		Stencils: []string{"5-point", "9-point"},
		Shapes:   []string{"strip", "square"},
		Machines: []core.MachineSpec{{Type: "sync-bus"}},
	}
}

// TestCancellationDuringScatter opens a scatter against peers that
// accept shards and never answer, cancels the context, and requires
// the chunk stream to close promptly — the contract jobs.run relies on
// to mark the job cancelled.
func TestCancellationDuringScatter(t *testing.T) {
	peers := []string{newFaultPeer(t, "stall", -1), newFaultPeer(t, "stall", -1)}
	eng := sweep.New(sweep.Options{})
	d := dispatch.New(dispatch.Options{Engine: eng, Peers: peers, ShardSize: 4})

	ctx, cancel := context.WithCancel(context.Background())
	opened, err := d.Open(ctx, dispatch.Request{Space: testSpace(16, 24, 32, 48)}, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if opened.Shards < 2 {
		t.Fatalf("want a real scatter, got %d shards", opened.Shards)
	}
	time.AfterFunc(50*time.Millisecond, cancel)

	done := make(chan int)
	go func() {
		n := 0
		for c := range opened.Chunks {
			n += len(c.Results)
			eng.Recycle(c)
		}
		done <- n
	}()
	select {
	case n := <-done:
		if n == opened.Total {
			t.Fatalf("stalled peers cannot have produced all %d results", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("chunk stream did not close after cancellation")
	}
}

// TestRunCancellationBackfills pins Dispatcher.Run's collector
// contract under a dead context: every unfinished entry carries its
// submitted spec and the context error, mirroring Engine.Run.
func TestRunCancellationBackfills(t *testing.T) {
	peers := []string{newFaultPeer(t, "stall", -1)}
	eng := sweep.New(sweep.Options{})
	d := dispatch.New(dispatch.Options{Engine: eng, Peers: peers, ShardSize: 4})

	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	sp := testSpace(16, 24, 32, 48)
	results, err := d.Run(ctx, dispatch.Request{Space: sp})
	if err == nil {
		t.Fatal("want a context error from a cancelled run")
	}
	specs := sp.Expand()
	if len(results) != len(specs) {
		t.Fatalf("got %d results, want %d", len(results), len(specs))
	}
	backfilled := 0
	for i, r := range results {
		if r.Index != i {
			t.Fatalf("result %d carries index %d", i, r.Index)
		}
		if r.Err != nil {
			backfilled++
			if r.Spec != specs[i] {
				t.Fatalf("backfilled result %d lost its spec", i)
			}
		}
	}
	if backfilled == 0 {
		t.Fatal("stalled peers cannot have completed every spec")
	}
}

// TestSlowPeerPreservesOrder pairs a peer that answers late with a
// fast one: shards complete out of submission order, but the gathered
// stream must still be globally Index-ordered.
func TestSlowPeerPreservesOrder(t *testing.T) {
	peers := []string{newFaultPeer(t, "slow", -1), newWorker(t)}
	eng := sweep.New(sweep.Options{})
	d := dispatch.New(dispatch.Options{Engine: eng, Peers: peers, ShardSize: 4})

	opened, err := d.Open(context.Background(), dispatch.Request{Space: testSpace(16, 24, 32, 48)}, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	next := 0
	for c := range opened.Chunks {
		for _, r := range c.Results {
			if r.Index != next {
				t.Fatalf("stream out of order: got index %d, want %d", r.Index, next)
			}
			next++
		}
		eng.Recycle(c)
	}
	if next != opened.Total {
		t.Fatalf("stream delivered %d of %d results", next, opened.Total)
	}
}

// TestSpecListScatter covers the flat spec-list planning branch: an
// explicit spec list larger than the shard size scatters as contiguous
// slices and gathers back complete and ordered, matching the local
// engine's evaluation of the same list.
func TestSpecListScatter(t *testing.T) {
	peers := []string{newWorker(t), newWorker(t)}
	eng := sweep.New(sweep.Options{})
	d := dispatch.New(dispatch.Options{Engine: eng, Peers: peers, ShardSize: 4})
	if !d.Distributed() || d.ShardSize() != 4 || d.Engine() != eng {
		t.Fatal("dispatcher accessors diverge from configuration")
	}

	specs := testSpace(16, 24, 32, 48).Expand()
	got, err := d.Run(context.Background(), dispatch.Request{Specs: specs})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want, err := sweep.New(sweep.Options{}).Run(context.Background(), specs)
	if err != nil {
		t.Fatalf("local Run: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Index != want[i].Index || got[i].Spec != want[i].Spec ||
			got[i].Value != want[i].Value || (got[i].Err == nil) != (want[i].Err == nil) {
			t.Fatalf("result %d diverges: got %+v want %+v", i, got[i], want[i])
		}
	}
	if s := d.Stats(); s.ShardsPlanned < 2 {
		t.Fatalf("spec list never scattered: %+v", s)
	}
}

// TestLocalFastPathSkipsScatter pins that single-shard requests and
// no-peer dispatchers never scatter — the Opened.Shards == 0 contract
// the jobs layer uses to suppress shard counters.
func TestLocalFastPathSkipsScatter(t *testing.T) {
	eng := sweep.New(sweep.Options{})
	local := dispatch.New(dispatch.Options{Engine: eng})
	opened, err := local.Open(context.Background(), dispatch.Request{Space: testSpace(16, 24)}, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if opened.Shards != 0 {
		t.Fatalf("local dispatcher planned %d shards", opened.Shards)
	}
	for c := range opened.Chunks {
		eng.Recycle(c)
	}

	peers := []string{newWorker(t)}
	d := dispatch.New(dispatch.Options{Engine: eng, Peers: peers, ShardSize: 64})
	opened, err = d.Open(context.Background(), dispatch.Request{Space: testSpace(16)}, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if opened.Shards != 0 {
		t.Fatalf("single-shard request scattered into %d shards", opened.Shards)
	}
	for c := range opened.Chunks {
		eng.Recycle(c)
	}
	if s := d.Stats(); s.ShardsPlanned != 0 {
		t.Fatalf("fast path leaked into the scatter counters: %+v", s)
	}
}
