package store

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"optspeed/internal/core"
	"optspeed/internal/jobs"
	"optspeed/internal/sweep"
)

// TestJobsRecoveryEndToEnd runs a real sweep through a persisted jobs
// store, "crashes" (drops the stores without a clean job-store Close),
// reopens the directory, and checks the recovered job serves the exact
// same result pages.
func TestJobsRecoveryEndToEnd(t *testing.T) {
	dir := t.TempDir()
	ps, recovered, err := Open(Options{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	js := jobs.NewStore(jobs.Options{Persister: ps, Recovered: recovered, SnapshotInterval: -1})

	space := &sweep.Space{
		Ns:       []int{64, 128},
		Stencils: []string{"5-point"},
		Shapes:   []string{"strip", "square"},
		Machines: []core.MachineSpec{{Type: "sync-bus"}, {Type: "hypercube"}},
	}
	snap, err := js.Submit(jobs.Request{Kind: jobs.KindSweep, Space: space})
	if err != nil {
		t.Fatal(err)
	}
	fin, err := js.Wait(context.Background(), snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != jobs.StateSucceeded {
		t.Fatalf("job finished %q: %s", fin.State, fin.Reason)
	}
	before, err := js.Results(snap.ID, 0, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Crash: close only the WAL (fsync=always has everything durable);
	// the jobs store is abandoned mid-life exactly like a killed
	// process. Runners have finished, so no goroutines leak.
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}

	ps2, recovered2, err := Open(Options{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer ps2.Close()
	if len(recovered2) != 1 || recovered2[0].ID != snap.ID {
		t.Fatalf("recovered %+v, want job %s", recovered2, snap.ID)
	}
	js2 := jobs.NewStore(jobs.Options{Persister: ps2, Recovered: recovered2, SnapshotInterval: -1})
	defer js2.Close()

	got, err := js2.Get(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != jobs.StateSucceeded || !got.Recovered {
		t.Fatalf("recovered job: state %q recovered %v", got.State, got.Recovered)
	}
	if got.Progress != fin.Progress {
		t.Fatalf("progress diverged: %+v vs %+v", got.Progress, fin.Progress)
	}
	after, err := js2.Results(snap.ID, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Results) != len(before.Results) || after.NextCursor != before.NextCursor || after.Done != before.Done {
		t.Fatalf("page shape diverged: %d/%d results, cursor %d/%d",
			len(after.Results), len(before.Results), after.NextCursor, before.NextCursor)
	}
	for i := range before.Results {
		if !resultsEquivalent(before.Results[i], after.Results[i]) {
			t.Fatalf("result %d diverged across recovery:\n  before %+v\n  after  %+v",
				i, before.Results[i], after.Results[i])
		}
	}
	// The re-ingest compacted the log: generation advanced and the
	// recovered-job counter reports the replay.
	if ps2.Stats().RecoveredJobs != 1 {
		t.Fatalf("RecoveredJobs = %d", ps2.Stats().RecoveredJobs)
	}
	if ps2.Stats().Snapshots == 0 {
		t.Fatal("recovery did not compact the replayed log")
	}
}

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

// resultsEquivalent compares everything the wire encoder reads.
// Alloc.Problem deliberately does not survive persistence (the encoder
// never reads it), so it is excluded.
func resultsEquivalent(a, b sweep.Result) bool {
	a.Alloc.Problem, b.Alloc.Problem = core.Problem{}, core.Problem{}
	aerr, berr := a.Err, b.Err
	a.Err, b.Err = nil, nil
	if !reflect.DeepEqual(a, b) {
		return false
	}
	switch {
	case aerr == nil && berr == nil:
		return true
	case aerr == nil || berr == nil:
		return false
	}
	return aerr.Error() == berr.Error() &&
		errors.Is(aerr, sweep.ErrEvaluationPanic) == errors.Is(berr, sweep.ErrEvaluationPanic)
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
	js := jobs.NewStore(jobs.Options{Persister: ps, Recovered: nil, SnapshotInterval: -1})

	specs := make([]sweep.Spec, 400)
	for i := range specs {
		specs[i] = sweep.Spec{Op: sweep.OpOptimizeSnapped, N: 4096 + 8*i, Stencil: "9-point-star", Shape: "square",
			Machine: core.MachineSpec{Type: "mesh"}}
	}
	snap, err := js.Submit(jobs.Request{Kind: jobs.KindSweep, Specs: specs})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, err := js.Get(snap.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.Progress.Completed > 0 {
			break
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
}
