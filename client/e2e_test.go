package client_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"optspeed/client"
	"optspeed/internal/core"
	"optspeed/internal/service"
	"optspeed/internal/sweep"
)

func newService(t *testing.T, cfg service.Config) *client.Client {
	t.Helper()
	srv := service.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestJobEndToEnd drives the acceptance path: a sweep submitted through
// the SDK is polled, paginated, and cancelled against a real server.
func TestJobEndToEnd(t *testing.T) {
	c := newService(t, service.Config{})
	ctx := context.Background()
	space := &client.Space{
		Ns:       []int{64, 128},
		Stencils: []string{"5-point", "9-point"},
		Shapes:   []string{"strip", "square"},
		Machines: []client.MachineSpec{{Type: "sync-bus"}},
	}
	job, err := c.SubmitSweep(ctx, client.SweepRequest{Space: space})
	if err != nil {
		t.Fatal(err)
	}
	if job.ID == "" || job.Kind != "sweep" {
		t.Fatalf("accepted job %+v", job)
	}

	fin, err := c.Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	total := 2 * 2 * 2
	if fin.State != client.JobSucceeded || fin.Progress.Completed != total {
		t.Fatalf("job finished %+v, want %d completed", fin, total)
	}

	// Page through results with the iterator.
	seen := map[int]bool{}
	it := c.JobResults(ctx, job.ID)
	for it.Next() {
		r := it.Result()
		if seen[r.Index] {
			t.Fatalf("index %d twice", r.Index)
		}
		seen[r.Index] = true
		if r.Error != "" || r.Speedup <= 0 {
			t.Fatalf("bad result %+v", r)
		}
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != total {
		t.Fatalf("iterated %d results, want %d", len(seen), total)
	}

	// Manual paging agrees with the iterator.
	page, err := c.Results(ctx, job.ID, "", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Results) != 3 || page.NextCursor != "3" || page.Done {
		t.Fatalf("first page %+v", page)
	}

	// The job shows up in the listing.
	all, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 || all[0].ID != job.ID {
		t.Fatalf("listing %+v", all)
	}

	// Cancelling a terminal job is a conflict with a structured code.
	if _, err := c.Cancel(ctx, job.ID); err == nil {
		t.Fatal("cancel terminal: no error")
	} else {
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusConflict || apiErr.Code != "already_terminal" {
			t.Fatalf("cancel terminal: %v", err)
		}
	}
}

func TestOptimizeConvenience(t *testing.T) {
	c := newService(t, service.Config{})
	r, err := c.Optimize(context.Background(), client.OptimizeRequest{
		N: 512, Stencil: "5-point", Shape: "square", Machine: client.MachineSpec{Type: "sync-bus"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Procs < 1 || r.Speedup <= 0 {
		t.Fatalf("degenerate optimize result %+v", r)
	}
	// A bad query surfaces the server-side evaluation error.
	if _, err := c.Optimize(context.Background(), client.OptimizeRequest{
		N: 512, Stencil: "bogus", Shape: "square", Machine: client.MachineSpec{Type: "sync-bus"},
	}); err == nil {
		t.Fatal("bad optimize did not error")
	}
}

// TestLawsEndToEnd: the laws overlay arrives with one point per axis
// value and the spec count the server evaluated for it — the optimal
// allocation plus the model and the three laws at each axis value.
func TestLawsEndToEnd(t *testing.T) {
	c := newService(t, service.Config{})
	procs := []int{2, 4, 8, 16}
	resp, err := c.Laws(context.Background(), client.LawsRequest{
		N: 256, Stencil: "5-point", Shape: "square",
		Machine: client.MachineSpec{Type: "sync-bus"}, Procs: procs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + 4*len(procs); resp.Stats.Specs != want {
		t.Fatalf("stats %+v, want %d specs", resp.Stats, want)
	}
	if len(resp.Points) != len(procs) {
		t.Fatalf("%d points, want %d", len(resp.Points), len(procs))
	}
	for i, p := range resp.Points {
		if p.Procs != procs[i] || p.Model <= 0 {
			t.Fatalf("point %d is %+v, want procs %d", i, p, procs[i])
		}
	}
	if resp.OptimalProcs != 14 {
		t.Fatalf("optimal procs %d, want the paper's 14", resp.OptimalProcs)
	}
}

func TestStreamEndToEnd(t *testing.T) {
	c := newService(t, service.Config{})
	st, err := c.StreamSweep(context.Background(), client.SweepRequest{
		Space: &client.Space{
			Op:       "speedup",
			Ns:       []int{64, 128},
			Stencils: []string{"5-point"},
			Shapes:   []string{"square"},
			Machines: []client.MachineSpec{{Type: "sync-bus"}},
			Procs:    []int{2, 4, 8},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	total := 2 * 3
	seen := map[int]bool{}
	for st.Next() {
		r := st.Result()
		if seen[r.Index] || r.Error != "" || r.Value <= 0 {
			t.Fatalf("bad streamed result %+v", r)
		}
		seen[r.Index] = true
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != total {
		t.Fatalf("streamed %d results, want %d", len(seen), total)
	}
	if st.Stats() == nil || st.Stats().Specs != total {
		t.Fatalf("stream stats %+v", st.Stats())
	}
}

func TestStreamValidationError(t *testing.T) {
	c := newService(t, service.Config{})
	_, err := c.StreamSweep(context.Background(), client.SweepRequest{})
	apiErr, ok := err.(*client.APIError)
	if !ok || apiErr.Status != 400 || apiErr.Code != "invalid_request" {
		t.Fatalf("empty stream request error %v", err)
	}
}

// TestCancelMidJob exercises live cancellation through the SDK: submit
// a slow sweep, watch progress via the iterator, cancel, and confirm
// the terminal state. The sweep is a cold space of 1365 grid sizes
// times every stencil, shape and machine type — 65,520 optimize specs,
// none cached — on a Workers:1 engine, so it is still running when the
// cancel lands.
func TestCancelMidJob(t *testing.T) {
	c := newService(t, service.Config{Engine: sweep.New(sweep.Options{Workers: 1})})
	ctx := context.Background()
	ns := make([]int, 1365)
	for i := range ns {
		ns[i] = 4096 + i
	}
	var machines []client.MachineSpec
	for _, typ := range core.MachineTypes() {
		machines = append(machines, client.MachineSpec{Type: typ})
	}
	space := &client.Space{
		Ns: ns, Stencils: []string{"5-point", "9-point", "9-star", "13-point"},
		Shapes: []string{"strip", "square"}, Machines: machines,
	}
	total := len(ns) * 4 * 2 * len(machines)
	job, err := c.SubmitSweep(ctx, client.SweepRequest{Space: space})
	if err != nil {
		t.Fatal(err)
	}
	// The iterator follows the live job; take a few results then cancel.
	it := c.JobResults(ctx, job.ID)
	got := 0
	for it.Next() {
		if got++; got == 2 {
			break
		}
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	mid, err := c.Job(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if mid.State.Terminal() || mid.Progress.Completed >= mid.Progress.Total {
		t.Fatalf("job not seen mid-flight before the cancel: %+v", mid)
	}
	if _, err := c.Cancel(ctx, job.ID); err != nil {
		t.Fatal(err)
	}
	fin, err := c.Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != client.JobCancelled {
		t.Fatalf("job finished %q, want cancelled", fin.State)
	}
	if fin.Progress.Completed >= total {
		t.Fatal("cancelled job completed every spec")
	}

	// Draining the cancelled job's iterator yields its partial results
	// but must NOT end cleanly: truncation surfaces as a *JobError.
	drained := 0
	it2 := c.JobResults(ctx, job.ID)
	for it2.Next() {
		drained++
	}
	var jobErr *client.JobError
	if !errors.As(it2.Err(), &jobErr) || jobErr.State != client.JobCancelled {
		t.Fatalf("cancelled-job iterator ended with %v, want *JobError{cancelled}", it2.Err())
	}
	if drained >= total || drained != fin.Progress.Completed {
		t.Fatalf("drained %d results, progress says %d of %d",
			drained, fin.Progress.Completed, total)
	}
}

func TestJobResultsFromResumes(t *testing.T) {
	c := newService(t, service.Config{})
	ctx := context.Background()
	job, err := c.SubmitSweep(ctx, client.SweepRequest{Space: &client.Space{
		Ns: []int{64, 128}, Stencils: []string{"5-point", "9-point"},
		Shapes: []string{"square"}, Machines: []client.MachineSpec{{Type: "sync-bus"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, job.ID); err != nil {
		t.Fatal(err)
	}
	// Read two results via one page, then resume from its cursor: the
	// union must cover every index exactly once.
	page, err := c.Results(ctx, job.ID, "", 2)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, r := range page.Results {
		seen[r.Index] = true
	}
	it := c.JobResultsFrom(ctx, job.ID, page.NextCursor)
	for it.Next() {
		r := it.Result()
		if seen[r.Index] {
			t.Fatalf("resumed iterator re-delivered index %d", r.Index)
		}
		seen[r.Index] = true
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 4 {
		t.Fatalf("page+resume covered %d results, want 4", len(seen))
	}
}
