package jobs_test

import (
	"context"
	"reflect"
	"testing"
	"time"

	"optspeed/internal/core"
	"optspeed/internal/jobs"
	"optspeed/internal/store"
	"optspeed/internal/sweep"
)

// slowLog is a real durable store whose chunk appends take two
// milliseconds, so a job stays mid-flight across many snapshot ticks.
type slowLog struct{ *store.Store }

func (l slowLog) Chunk(id string, rs []sweep.Result) {
	time.Sleep(2 * time.Millisecond)
	l.Store.Chunk(id, rs)
}

// TestSnapshotLoopCompactsMidFlight runs the periodic snapshot loop
// against a real store while a job appends its chunks, then reopens the
// directory without a clean shutdown: the recovered job's pages must
// equal the live ones.
func TestSnapshotLoopCompactsMidFlight(t *testing.T) {
	dir := t.TempDir()
	ps, _, err := store.Open(store.Options{Dir: dir, Fsync: store.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	live := jobs.NewStore(jobs.Options{Persister: slowLog{ps}, SnapshotInterval: 3 * time.Millisecond})
	defer live.Close()
	space := &sweep.Space{Stencils: []string{"5-point", "9-point"}, Shapes: []string{"strip", "square"},
		Machines: []core.MachineSpec{{Type: "sync-bus"}, {Type: "mesh"}}}
	for n := 40; n < 104; n++ {
		space.Ns = append(space.Ns, n)
	}
	snap, err := live.Submit(jobs.Request{Kind: jobs.KindSweep, Space: space})
	if err != nil {
		t.Fatal(err)
	}
	// Snapshots taken while the job is running and has answers logged.
	midFlight := 0
	for last := ps.Stats().Snapshots; ; time.Sleep(time.Millisecond) {
		j, err := live.Get(snap.ID)
		if err != nil {
			t.Fatal(err)
		}
		if j.State.Terminal() {
			break
		}
		if n := ps.Stats().Snapshots; n > last && j.State == jobs.StateRunning && j.Progress.Completed > 0 {
			midFlight += int(n - last)
			last = n
		}
	}
	if midFlight < 2 {
		t.Fatalf("%d snapshots landed mid-flight; the loop never raced the appends", midFlight)
	}
	done, err := live.Wait(context.Background(), snap.ID)
	if err != nil || done.State != jobs.StateSucceeded {
		t.Fatalf("job %+v: %v", done, err)
	}
	want := pages(t, live, snap.ID)

	// A crash: the log closes under the live store, so its shutdown
	// snapshot is never written.
	ps.Close()
	live.Close()
	reopened, recovered, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	back := jobs.NewStore(jobs.Options{Persister: reopened, Recovered: recovered, SnapshotInterval: -1})
	defer back.Close()
	if j, err := back.Get(snap.ID); err != nil || j.State != jobs.StateSucceeded || !j.Recovered {
		t.Fatalf("recovered job %+v: %v", j, err)
	}
	if got := pages(t, back, snap.ID); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered pages diverge from the live ones:\n got  %+v\n want %+v", got, want)
	}
}

// pages reads a job's answers seven at a time.
func pages(t *testing.T, st *jobs.Store, id string) []sweep.Answer {
	t.Helper()
	var out []sweep.Answer
	for cursor := 0; ; {
		p, err := st.Results(id, cursor, 7)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p.Results...)
		if p.Done {
			return out
		}
		cursor = p.NextCursor
	}
}
