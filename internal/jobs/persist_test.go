package jobs

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"optspeed/internal/sweep"
)

// recordingPersister captures the lifecycle records and snapshots the
// tests assert on; cancel and removal records are accepted and dropped.
type recordingPersister struct {
	mu        sync.Mutex
	submits   []string
	starts    []string
	chunks    map[string]int // id -> results recorded
	finishes  map[string]State
	snapshots [][]PersistedJob
}

func newRecordingPersister() *recordingPersister {
	return &recordingPersister{chunks: make(map[string]int), finishes: make(map[string]State)}
}

func (p *recordingPersister) Submitted(job PersistedJob) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.submits = append(p.submits, job.ID)
}

func (p *recordingPersister) Started(id string, _ time.Time, _ int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.starts = append(p.starts, id)
}

func (p *recordingPersister) Chunk(id string, rs []sweep.Result) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.chunks[id] += len(rs)
}

func (p *recordingPersister) Finished(id string, state State, _ string, _ time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.finishes[id] = state
}

func (p *recordingPersister) CancelRequested(string) {}
func (p *recordingPersister) Removed(string)         {}

func (p *recordingPersister) Snapshot(dump []PersistedJob) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.snapshots = append(p.snapshots, slices.Clone(dump))
	return nil
}

// TestPersisterSeesFullLifecycle checks every transition of a normal
// job run reaches the persister, with the chunk total matching the
// job's result count.
func TestPersisterSeesFullLifecycle(t *testing.T) {
	p := newRecordingPersister()
	st := newTestStore(t, Options{Persister: p, SnapshotInterval: -1})
	snap, err := st.Submit(Request{Kind: KindSweep, Space: smallSpace()})
	if err != nil {
		t.Fatal(err)
	}
	fin, err := st.Wait(context.Background(), snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.submits) != 1 || p.submits[0] != snap.ID {
		t.Fatalf("submits %v", p.submits)
	}
	if len(p.starts) != 1 || p.starts[0] != snap.ID {
		t.Fatalf("starts %v", p.starts)
	}
	if p.chunks[snap.ID] != fin.Progress.Completed {
		t.Fatalf("persisted %d results, job completed %d", p.chunks[snap.ID], fin.Progress.Completed)
	}
	if p.finishes[snap.ID] != StateSucceeded {
		t.Fatalf("persisted terminal state %q", p.finishes[snap.ID])
	}
}

// slowFinishPersister takes its time over finish records, as a WAL
// append with an fsync does.
type slowFinishPersister struct{ *recordingPersister }

func (p slowFinishPersister) Finished(id string, state State, reason string, at time.Time) {
	time.Sleep(20 * time.Millisecond)
	p.recordingPersister.Finished(id, state, reason, at)
}

// TestWaitReturnsAfterFinishRecorded checks a job is logged finished
// before Wait sees it finish: a crash right after Wait returned must
// not recover it as mid-flight.
func TestWaitReturnsAfterFinishRecorded(t *testing.T) {
	p := slowFinishPersister{newRecordingPersister()}
	st := newTestStore(t, Options{Persister: p, SnapshotInterval: -1})
	snap, err := st.Submit(Request{Kind: KindSweep, Space: smallSpace()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Wait(context.Background(), snap.ID); err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.finishes[snap.ID] != StateSucceeded {
		t.Fatalf("Wait returned before the finish record: persisted state %q", p.finishes[snap.ID])
	}
}

// TestRecoverTerminalJob restores a succeeded job as-is, flagged
// recovered, with its exact result sequence paged back.
func TestRecoverTerminalJob(t *testing.T) {
	now := time.Unix(1_000_000, 0)
	specs := make([]sweep.Spec, 10)
	results := make([]sweep.Answer, 10)
	for i := range results {
		specs[i] = sweep.Spec{N: 64 + i, Stencil: "5-point", Shape: "square"}
		results[i] = sweep.Answer{Index: i, Value: float64(i)}
	}
	st := newTestStore(t, Options{
		TTL:        time.Hour,
		GCInterval: time.Hour,
		Now:        func() time.Time { return now },
		Recovered: []PersistedJob{{
			ID: "term1", Kind: KindSweep, State: StateSucceeded,
			Created: now.Add(-3 * time.Minute), Started: now.Add(-2 * time.Minute),
			Finished: now.Add(-time.Minute), Total: 10,
			Request: Request{Kind: KindSweep, Specs: specs}, Results: results,
		}},
	})
	snap, err := st.Get("term1")
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != StateSucceeded || !snap.Recovered {
		t.Fatalf("recovered job: %+v", snap)
	}
	if snap.Progress.Completed != 10 || snap.Progress.Total != 10 {
		t.Fatalf("recovered progress: %+v", snap.Progress)
	}
	page, err := st.Results("term1", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Results) != 10 || !page.Done {
		t.Fatalf("recovered page: %d results, done %v", len(page.Results), page.Done)
	}
	for i, r := range page.Results {
		if r.Index != i || r.Value != float64(i) || page.Work.At(r.Index) != specs[i] {
			t.Fatalf("result %d: %+v, spec %+v", i, r, page.Work.At(r.Index))
		}
	}
}

// TestRecoverExpiredTerminalDropped leaves a job whose retention window
// passed while the server was down exactly as gone as TTL expiry would
// have made it.
func TestRecoverExpiredTerminalDropped(t *testing.T) {
	now := time.Unix(1_000_000, 0)
	st := newTestStore(t, Options{
		TTL:        time.Minute,
		GCInterval: time.Hour,
		Now:        func() time.Time { return now },
		Recovered: []PersistedJob{{
			ID: "old", Kind: KindSweep, State: StateSucceeded,
			Created: now.Add(-time.Hour), Finished: now.Add(-30 * time.Minute),
		}},
	})
	if _, err := st.Get("old"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expired terminal job recovered: %v", err)
	}
}

// TestRecoverMidFlightJob marks a job that was running at crash time
// deterministically failed with a restart reason, partial results
// intact — never silently dropped.
func TestRecoverMidFlightJob(t *testing.T) {
	now := time.Unix(1_000_000, 0)
	p := newRecordingPersister()
	req := Request{Kind: KindSweep, Space: smallSpace()}
	partial := []sweep.Answer{{Index: 1, Value: 2}}
	st := newTestStore(t, Options{
		TTL:              time.Hour,
		GCInterval:       time.Hour,
		Now:              func() time.Time { return now },
		Persister:        p,
		SnapshotInterval: -1,
		Recovered: []PersistedJob{
			{ID: "flight", Kind: KindSweep, State: StateRunning,
				Created: now.Add(-time.Minute), Started: now.Add(-time.Minute), Total: 50,
				Request: req, Results: partial},
			{ID: "flightcx", Kind: KindSweep, State: StateRunning, CancelRequested: true,
				Created: now.Add(-time.Minute), Started: now.Add(-time.Minute), Total: 50},
		},
	})
	snap, err := st.Get("flight")
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != StateFailed || !strings.HasPrefix(snap.Reason, "restart:") || !snap.Recovered {
		t.Fatalf("mid-flight job: %+v", snap)
	}
	page, err := st.Results("flight", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Results) != 1 || page.Results[0].Value != 2 || page.Work.At(1) != req.Space.At(1) {
		t.Fatalf("partial results lost: %+v", page.Results)
	}
	// A cancel requested before the crash wins over the restart failure.
	cx, err := st.Get("flightcx")
	if err != nil {
		t.Fatal(err)
	}
	if cx.State != StateCancelled || !strings.HasPrefix(cx.Reason, "restart:") {
		t.Fatalf("cancel-requested mid-flight job: %+v", cx)
	}
	// The deterministic terminal transitions were themselves persisted,
	// so a second crash replays them directly.
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.finishes["flight"] != StateFailed || p.finishes["flightcx"] != StateCancelled {
		t.Fatalf("restart transitions not persisted: %+v", p.finishes)
	}
}

// TestRecoverPendingJobRequeues re-dispatches a job that never started
// and runs it from the start, dropping answers whose start record was
// lost rather than doubling them. Recovery also evicts terminal jobs
// past capacity, which lost removal records can bring back.
func TestRecoverPendingJobRequeues(t *testing.T) {
	want, now := smallSpace().Size(), time.Now()
	st := newTestStore(t, Options{
		Capacity: 1,
		Recovered: []PersistedJob{{
			ID: "queued", Kind: KindSweep, State: StatePending, Created: now.Add(-time.Minute), Total: want,
			Request: Request{Kind: KindSweep, Space: smallSpace()}, Results: []sweep.Answer{{Index: 0}},
		}, {ID: "done", Kind: KindSweep, State: StateSucceeded, Created: now.Add(-time.Hour), Finished: now}},
	})
	if st.Len() != 1 {
		t.Fatalf("recovered %d jobs past capacity 1", st.Len())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	fin, err := st.Wait(ctx, "queued")
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateSucceeded || !fin.Recovered {
		t.Fatalf("requeued job: %+v", fin)
	}
	if page, err := st.Results("queued", 0, 0); err != nil || fin.Progress.Completed != want || len(page.Results) != want {
		t.Fatalf("requeued job completed %d and holds %d of %d results (%v)", fin.Progress.Completed, len(page.Results), want, err)
	}
}

// TestRecoverIncompleteSucceededJobReruns recovers a succeeded job
// whose log lost some chunk records: a succeeded record promises every
// answer, so the job must run again from its request rather than read
// succeeded with 5 of its 8 results.
func TestRecoverIncompleteSucceededJobReruns(t *testing.T) {
	now := time.Now()
	stale := make([]sweep.Answer, 5)
	for i := range stale {
		stale[i].Index = i
	}
	st := newTestStore(t, Options{Recovered: []PersistedJob{{
		ID: "short", Kind: KindSweep, State: StateSucceeded, Total: smallSpace().Size(),
		Created: now.Add(-time.Minute), Started: now.Add(-time.Minute), Finished: now.Add(-time.Second),
		Request: Request{Kind: KindSweep, Space: smallSpace()}, Results: stale,
	}}})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	fin, err := st.Wait(ctx, "short")
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateSucceeded || !fin.Recovered {
		t.Fatalf("recovered job: %+v", fin)
	}
	page, err := st.Results("short", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]int, smallSpace().Size())
	for _, a := range page.Results {
		if a.Index < 0 || a.Index >= len(seen) || a.Value <= 0 {
			t.Fatalf("answer %+v: out of range or never evaluated", a)
		}
		seen[a.Index]++
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("index %d held %d times in %d results", i, n, len(page.Results))
		}
	}
}

// TestRecoveryCompactsBeforeServing checks NewStore snapshots the
// ingested state immediately, so the replayed log does not grow
// unboundedly across restart loops.
func TestRecoveryCompactsBeforeServing(t *testing.T) {
	p := newRecordingPersister()
	now := time.Unix(1_000_000, 0)
	newTestStore(t, Options{
		TTL: time.Hour, GCInterval: time.Hour, SnapshotInterval: -1,
		Now:       func() time.Time { return now },
		Persister: p,
		Recovered: []PersistedJob{{
			ID: "term", Kind: KindSweep, State: StateSucceeded,
			Created: now.Add(-time.Minute), Finished: now.Add(-time.Second),
		}},
	})
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.snapshots) == 0 || len(p.snapshots[0]) != 1 || p.snapshots[0][0].ID != "term" {
		t.Fatalf("no post-recovery compaction snapshot: %+v", p.snapshots)
	}
}

// TestEvictionReleasesSlabs is the retention regression test: a job
// leaving the store (capacity eviction or lazy TTL expiry) must drop
// its slab references so the result memory is immediately collectable,
// instead of riding along with the evicted Job value.
func TestEvictionReleasesSlabs(t *testing.T) {
	st := newTestStore(t, Options{Capacity: 1, TTL: time.Hour, GCInterval: time.Hour})
	first, err := st.Submit(Request{Kind: KindSweep, Space: smallSpace()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Wait(context.Background(), first.ID); err != nil {
		t.Fatal(err)
	}
	st.mu.Lock()
	evictee := st.jobs[first.ID]
	st.mu.Unlock()
	if evictee == nil {
		t.Fatal("job not resident after Wait")
	}
	// Second submission evicts the finished first job.
	if _, err := st.Submit(Request{Kind: KindSweep, Space: smallSpace()}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(first.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("evicted job still resident: %v", err)
	}
	evictee.mu.Lock()
	slabs, count := evictee.slabs, evictee.count
	evictee.mu.Unlock()
	if slabs != nil || count != 0 {
		t.Fatalf("evicted job retains %d slabs (%d results); release() not applied", len(slabs), count)
	}
}

// TestLazyExpiryReleasesSlabs covers the other removal path: TTL expiry
// detected on lookup.
func TestLazyExpiryReleasesSlabs(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1_000_000, 0)}
	st := newTestStore(t, Options{TTL: time.Minute, GCInterval: time.Hour, Now: clock.Now})
	snap, err := st.Submit(Request{Kind: KindSweep, Space: smallSpace()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Wait(context.Background(), snap.ID); err != nil {
		t.Fatal(err)
	}
	st.mu.Lock()
	j := st.jobs[snap.ID]
	st.mu.Unlock()
	clock.Advance(2 * time.Minute)
	if _, err := st.Get(snap.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expired job still served: %v", err)
	}
	j.mu.Lock()
	slabs, count := j.slabs, j.count
	j.mu.Unlock()
	if slabs != nil || count != 0 {
		t.Fatalf("expired job retains %d slabs (%d results)", len(slabs), count)
	}
}

// TestPagesSurviveRelease: a page handed out before eviction stays
// readable — it holds its own slab reference — even though the job
// dropped its storage.
func TestPagesSurviveRelease(t *testing.T) {
	st := newTestStore(t, Options{Capacity: 1, TTL: time.Hour, GCInterval: time.Hour})
	first, err := st.Submit(Request{Kind: KindSweep, Space: smallSpace()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Wait(context.Background(), first.ID); err != nil {
		t.Fatal(err)
	}
	page, err := st.Results(first.ID, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	held := page.Results
	wantLen := len(held)
	if _, err := st.Submit(Request{Kind: KindSweep, Space: smallSpace()}); err != nil {
		t.Fatal(err)
	}
	if len(held) != wantLen {
		t.Fatalf("held page changed length after eviction: %d -> %d", wantLen, len(held))
	}
	for i, r := range held {
		if r.Value == 0 {
			t.Fatalf("held page result %d zeroed after eviction: %+v", i, r)
		}
	}
}
