package store

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"optspeed/internal/core"
	"optspeed/internal/jobs"
	"optspeed/internal/sweep"
)

// TestJobsSucceedThroughWriteFaults runs sweep jobs on a jobs store
// whose WAL fails every other append. A failed append is the store's
// degraded mode (counted, logged, serving on), never the job's
// problem: every job must still succeed.
func TestJobsSucceedThroughWriteFaults(t *testing.T) {
	var appends atomic.Int64
	ps, _, err := Open(Options{Dir: t.TempDir(), Fsync: FsyncOff, WriteFault: func() error {
		if appends.Add(1)%2 == 0 {
			return errors.New("injected write fault")
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	js := jobs.NewStore(jobs.Options{Persister: ps, SnapshotInterval: -1})
	defer js.Close()

	spaces := []*sweep.Space{
		{Ns: []int{64, 128}, Stencils: []string{"5-point"}, Shapes: []string{"strip", "square"},
			Machines: []core.MachineSpec{{Type: "sync-bus"}}},
		{Ns: []int{96, 160, 224, 288}, Stencils: []string{"5-point", "9-point"}, Shapes: []string{"square"},
			Machines: []core.MachineSpec{{Type: "mesh"}, {Type: "hypercube"}}},
	}
	var ids []string
	for round := 0; round < 2; round++ {
		for _, space := range spaces {
			snap, err := js.Submit(jobs.Request{Kind: jobs.KindSweep, Space: space})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, snap.ID)
		}
	}
	for _, id := range ids {
		fin, err := js.Wait(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if fin.State != jobs.StateSucceeded {
			t.Errorf("job %s finished %q under write faults: %s", id, fin.State, fin.Reason)
		}
	}
	if ps.Stats().WriteErrors == 0 {
		t.Fatal("no append failed; the write faults were not exercised")
	}
}

// TestPersistedCancelSurvivesRestart cancels a long sweep, crashes, and
// checks the cancelled terminal state (with its partial results) is
// what recovery restores.
func TestPersistedCancelSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	ps, _, err := Open(Options{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	js := jobs.NewStore(jobs.Options{
		Engine: sweep.New(sweep.Options{Workers: 1}), Persister: ps, Recovered: nil, SnapshotInterval: -1,
	})

	// A cold space of 1365 grid sizes times every stencil, shape and
	// machine type: 65,520 optimize specs on one worker, each result
	// chunk fsynced, so the job is still running when the cancel lands.
	ns := make([]int, 1365)
	for i := range ns {
		ns[i] = 4096 + i
	}
	var machines []core.MachineSpec
	for _, typ := range core.MachineTypes() {
		machines = append(machines, core.MachineSpec{Type: typ})
	}
	snap, err := js.Submit(jobs.Request{Kind: jobs.KindSweep, Space: &sweep.Space{
		Ns: ns, Stencils: []string{"5-point", "9-point", "9-star", "13-point"},
		Shapes: []string{"strip", "square"}, Machines: machines,
	}})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, err := js.Get(snap.ID)
		if err != nil {
			t.Fatal(err)
		}
		if p := got.Progress; p.Completed > 0 && p.Completed < p.Total {
			break
		}
		if got.State.Terminal() {
			t.Fatalf("job reached %q before it was seen mid-flight", got.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("no progress in 10s")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := js.Cancel(snap.ID); err != nil {
		t.Fatal(err)
	}
	fin, err := js.Wait(context.Background(), snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != jobs.StateCancelled {
		t.Fatalf("state %q after cancel", fin.State)
	}
	js.Close() // clean shutdown: final snapshot
	ps.Close()

	ps2, recovered, err := Open(Options{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer ps2.Close()
	js2 := jobs.NewStore(jobs.Options{Persister: ps2, Recovered: recovered, SnapshotInterval: -1})
	defer js2.Close()
	got, err := js2.Get(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != jobs.StateCancelled || !got.CancelRequested || !got.Recovered {
		t.Fatalf("recovered cancelled job: %+v", got)
	}
	page, err := js2.Results(snap.ID, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Results) == 0 && fin.Progress.Completed > 0 {
		t.Fatal("partial results lost across restart")
	}
	allocated := 0
	for _, r := range page.Results {
		if r.Err == nil && r.Alloc.Procs > 0 {
			allocated++
		}
	}
	if allocated == 0 {
		t.Fatalf("recovered %d results, none with an allocation", len(page.Results))
	}
}
