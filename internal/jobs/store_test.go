package jobs

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"optspeed/internal/core"
	"optspeed/internal/sweep"
)

// fakeClock is a mutex-guarded test clock: the store reads it from
// runner goroutines while tests advance it.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func smallSpace() *sweep.Space {
	return &sweep.Space{
		Ns:       []int{64, 128},
		Stencils: []string{"5-point", "9-point"},
		Shapes:   []string{"strip", "square"},
		Machines: []core.MachineSpec{{Type: "sync-bus"}},
	}
}

// slowRequest is a cold space large enough that a Workers:1 engine
// cannot finish it before the test reacts: 1365 distinct grid sizes
// times every stencil, shape and machine type is 65,520 optimize specs,
// none of them cached, a few microseconds each.
func slowRequest() Request {
	ns := make([]int, 1365)
	for i := range ns {
		ns[i] = 4096 + i
	}
	var machines []core.MachineSpec
	for _, typ := range core.MachineTypes() {
		machines = append(machines, core.MachineSpec{Type: typ})
	}
	return Request{Kind: KindSweep, Space: &sweep.Space{
		Ns: ns, Stencils: []string{"5-point", "9-point", "9-star", "13-point"},
		Shapes: []string{"strip", "square"}, Machines: machines,
	}}
}

// waitMidFlight polls until the job has some but not all results, and
// fails if it ends first.
func waitMidFlight(t *testing.T, st *Store, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		cur, err := st.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if p := cur.Progress; p.Completed > 0 && p.Completed < p.Total {
			return
		}
		if cur.State.Terminal() {
			t.Fatalf("job reached %q before it was seen mid-flight", cur.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job produced no results in 10s")
		}
		time.Sleep(time.Millisecond)
	}
}

func newTestStore(t *testing.T, opts Options) *Store {
	t.Helper()
	st := NewStore(opts)
	t.Cleanup(st.Close)
	return st
}

func TestJobLifecycleSucceeds(t *testing.T) {
	st := newTestStore(t, Options{})
	snap, err := st.Submit(Request{Kind: KindSweep, Space: smallSpace()})
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != StatePending && snap.State != StateRunning {
		t.Fatalf("fresh job state %q", snap.State)
	}
	fin, err := st.Wait(context.Background(), snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	total := smallSpace().Size()
	if fin.State != StateSucceeded {
		t.Fatalf("job finished %q (%s), want succeeded", fin.State, fin.Reason)
	}
	if fin.Progress.Total != total || fin.Progress.Completed != total || fin.Progress.Errors != 0 {
		t.Fatalf("progress %+v, want total=completed=%d", fin.Progress, total)
	}
	if fin.Started.IsZero() || fin.Finished.IsZero() {
		t.Fatalf("missing timestamps: %+v", fin)
	}

	// Paginate everything in pages of 3 and check each submission index
	// arrives exactly once.
	seen := make(map[int]bool)
	cursor := 0
	for {
		page, err := st.Results(snap.ID, cursor, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range page.Results {
			if seen[r.Index] {
				t.Fatalf("index %d delivered twice", r.Index)
			}
			seen[r.Index] = true
			if r.Err != nil || r.Value <= 0 {
				t.Fatalf("bad result %+v", r)
			}
		}
		cursor = page.NextCursor
		if page.Done {
			break
		}
	}
	if len(seen) != total {
		t.Fatalf("paginated %d results, want %d", len(seen), total)
	}
}

func TestCancelWhileStreaming(t *testing.T) {
	st := newTestStore(t, Options{Engine: sweep.New(sweep.Options{Workers: 1})})
	snap, err := st.Submit(slowRequest())
	if err != nil {
		t.Fatal(err)
	}
	// Let some results land, then cancel mid-flight.
	waitMidFlight(t, st, snap.ID)
	if _, err := st.Cancel(snap.ID); err != nil {
		t.Fatal(err)
	}
	fin, err := st.Wait(context.Background(), snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateCancelled || !fin.CancelRequested {
		t.Fatalf("cancelled job reports %q (cancel_requested=%v)", fin.State, fin.CancelRequested)
	}
	if fin.Progress.Completed >= fin.Progress.Total {
		t.Fatalf("cancelled job still completed all %d specs", fin.Progress.Total)
	}
	// Partial results remain readable, and cancelling again reports the
	// job already terminal while still returning its final snapshot.
	page, err := st.Results(snap.ID, 0, MaxPageSize)
	if err != nil {
		t.Fatal(err)
	}
	if want := min(fin.Progress.Completed, MaxPageSize); len(page.Results) != want {
		t.Fatalf("page has %d results, progress says %d", len(page.Results), fin.Progress.Completed)
	}
	again, err := st.Cancel(snap.ID)
	if !errors.Is(err, ErrTerminal) || again.State != StateCancelled {
		t.Fatalf("re-cancel: %+v, %v (want ErrTerminal with final snapshot)", again, err)
	}
}

func TestTTLExpiryDuringPaginatedRead(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1_000_000, 0)}
	st := newTestStore(t, Options{TTL: time.Minute, GCInterval: time.Hour, Now: clock.Now})
	snap, err := st.Submit(Request{Kind: KindSweep, Space: smallSpace()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Wait(context.Background(), snap.ID); err != nil {
		t.Fatal(err)
	}
	page, err := st.Results(snap.ID, 0, 2)
	if err != nil || len(page.Results) != 2 || page.Done {
		t.Fatalf("first page: %+v, %v", page, err)
	}
	// The retention window lapses between two pages of one read loop:
	// the next page must 404, not return stale data.
	clock.Advance(2 * time.Minute)
	if _, err := st.Results(snap.ID, page.NextCursor, 2); !errors.Is(err, ErrNotFound) {
		t.Fatalf("post-expiry page returned %v, want ErrNotFound", err)
	}
	if _, err := st.Get(snap.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("post-expiry Get returned %v, want ErrNotFound", err)
	}
}

func TestGCDropsExpired(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1_000_000, 0)}
	st := newTestStore(t, Options{TTL: time.Minute, GCInterval: time.Hour, Now: clock.Now})
	snap, err := st.Submit(Request{Kind: KindSweep, Space: smallSpace()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Wait(context.Background(), snap.ID); err != nil {
		t.Fatal(err)
	}
	if n := st.GC(); n != 0 {
		t.Fatalf("GC before expiry collected %d", n)
	}
	clock.Advance(2 * time.Minute)
	if n := st.GC(); n != 1 {
		t.Fatalf("GC after expiry collected %d, want 1", n)
	}
	if st.Len() != 0 {
		t.Fatalf("store still holds %d jobs", st.Len())
	}
}

func TestCapacityEvictsOldestTerminal(t *testing.T) {
	eng := sweep.New(sweep.Options{})
	st := newTestStore(t, Options{Engine: eng, Capacity: 2})
	submitDone := func() Snapshot {
		snap, err := st.Submit(Request{Kind: KindSweep, Space: smallSpace()})
		if err != nil {
			t.Fatal(err)
		}
		fin, err := st.Wait(context.Background(), snap.ID)
		if err != nil {
			t.Fatal(err)
		}
		return fin
	}
	a := submitDone()
	b := submitDone()
	c := submitDone() // must evict a, the oldest-finished terminal job
	if st.Len() != 2 {
		t.Fatalf("store holds %d jobs, want 2", st.Len())
	}
	if _, err := st.Get(a.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("oldest job survived eviction: %v", err)
	}
	for _, id := range []string{b.ID, c.ID} {
		if _, err := st.Get(id); err != nil {
			t.Fatalf("job %s evicted unexpectedly: %v", id, err)
		}
	}
}

func TestStoreFullWithOnlyRunningJobs(t *testing.T) {
	st := newTestStore(t, Options{Engine: sweep.New(sweep.Options{Workers: 1}), Capacity: 1})
	snap, err := st.Submit(slowRequest())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Submit(Request{Kind: KindSweep, Space: smallSpace()}); !errors.Is(err, ErrStoreFull) {
		t.Fatalf("submit into a full store of running jobs: %v, want ErrStoreFull", err)
	}
	if _, err := st.Cancel(snap.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Wait(context.Background(), snap.ID); err != nil {
		t.Fatal(err)
	}
	// The cancelled job is terminal now, so eviction admits a new one.
	if _, err := st.Submit(Request{Kind: KindSweep, Space: smallSpace()}); err != nil {
		t.Fatalf("submit after cancel: %v", err)
	}
}

func TestRunSyncMatchesEngineRun(t *testing.T) {
	eng := sweep.New(sweep.Options{})
	st := newTestStore(t, Options{Engine: eng})
	sp := smallSpace()
	want, err := sweep.New(sweep.Options{}).RunSpace(context.Background(), *sp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.RunSync(context.Background(), Request{Kind: KindSweep, Space: sp})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("RunSync returned %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Index != i || got[i].Value != want[i].Value {
			t.Fatalf("result %d diverges: %+v vs %+v", i, got[i], want[i])
		}
	}
	if st.Len() != 0 {
		t.Fatalf("RunSync left %d resident jobs", st.Len())
	}
}

func TestRunSyncCancelled(t *testing.T) {
	st := newTestStore(t, Options{Engine: sweep.New(sweep.Options{Workers: 1})})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	if _, err := st.RunSync(ctx, slowRequest()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled RunSync returned %v", err)
	}
}

func TestFailedWhenAllSpecsFail(t *testing.T) {
	st := newTestStore(t, Options{})
	bad := sweep.Spec{N: 64, Stencil: "bogus", Shape: "square", Machine: core.MachineSpec{Type: "sync-bus"}}
	snap, err := st.Submit(Request{Kind: KindSweep, Specs: []sweep.Spec{bad, bad}})
	if err != nil {
		t.Fatal(err)
	}
	fin, err := st.Wait(context.Background(), snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateFailed || fin.Reason == "" {
		t.Fatalf("all-failed job reports %q (%q)", fin.State, fin.Reason)
	}
	if fin.Progress.Errors != 2 {
		t.Fatalf("progress %+v, want 2 errors", fin.Progress)
	}
}

func TestBadCursor(t *testing.T) {
	st := newTestStore(t, Options{})
	snap, err := st.Submit(Request{Kind: KindSweep, Space: smallSpace()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Wait(context.Background(), snap.ID); err != nil {
		t.Fatal(err)
	}
	for _, cursor := range []int{-1, smallSpace().Size() + 1} {
		if _, err := st.Results(snap.ID, cursor, 0); !errors.Is(err, ErrBadCursor) {
			t.Fatalf("cursor %d returned %v, want ErrBadCursor", cursor, err)
		}
	}
}

func TestCloseCancelsRunningJobs(t *testing.T) {
	st := NewStore(Options{Engine: sweep.New(sweep.Options{Workers: 1})})
	snap, err := st.Submit(slowRequest())
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	fin, err := st.Get(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !fin.State.Terminal() {
		t.Fatalf("job survived Close in state %q", fin.State)
	}
	if _, err := st.Submit(Request{Kind: KindSweep, Space: smallSpace()}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after Close: %v, want ErrClosed", err)
	}
	st.Close() // idempotent
}

func TestListSnapshots(t *testing.T) {
	st := newTestStore(t, Options{})
	ids := map[string]bool{}
	for i := 0; i < 3; i++ {
		snap, err := st.Submit(Request{Kind: KindSweep, Space: smallSpace()})
		if err != nil {
			t.Fatal(err)
		}
		ids[snap.ID] = true
		if _, err := st.Wait(context.Background(), snap.ID); err != nil {
			t.Fatal(err)
		}
	}
	got := st.List()
	if len(got) != 3 {
		t.Fatalf("List returned %d jobs, want 3", len(got))
	}
	for _, snap := range got {
		if !ids[snap.ID] {
			t.Fatalf("List returned unknown job %s", snap.ID)
		}
	}
}

// TestTerminalForCancelAfterCompletion: a cancel that lands after the
// last result must not mark a fully-delivered job cancelled.
func TestTerminalForCancelAfterCompletion(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the race: context died, but every spec already completed
	j := newJob(KindSweep, time.Unix(0, 0), func() {})
	j.start(time.Unix(0, 0), 2)
	j.appendAnswers([]sweep.Answer{{Index: 0}, {Index: 1, CacheHit: true}})
	state, reason := terminalFor(j, ctx, 2)
	if state != StateSucceeded || reason != "" {
		t.Fatalf("complete-but-cancelled job judged %q (%q), want succeeded", state, reason)
	}
	// Short delivery with a dead context is a genuine cancellation...
	j2 := newJob(KindSweep, time.Unix(0, 0), func() {})
	j2.start(time.Unix(0, 0), 2)
	j2.appendAnswers([]sweep.Answer{{Index: 0}})
	if state, _ := terminalFor(j2, ctx, 2); state != StateCancelled {
		t.Fatalf("partial cancelled job judged %q", state)
	}
	// ...and short delivery with a live context is a truncation failure.
	if state, reason := terminalFor(j2, context.Background(), 2); state != StateFailed || reason == "" {
		t.Fatalf("truncated stream judged %q (%q), want failed", state, reason)
	}
}
