package store_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"optspeed/internal/core"
	"optspeed/internal/jobs"
	"optspeed/internal/service"
	"optspeed/internal/store"
	"optspeed/internal/sweep"
)

// pageBytes reads a job's results through the service's page encoder,
// five at a time, and returns every page body concatenated: the bytes a
// client paging the job receives.
func pageBytes(t *testing.T, srv *service.Server, id string) []byte {
	t.Helper()
	var all []byte
	cursor := "0"
	for {
		rr := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet,
			"/v2/jobs/"+id+"/results?limit=5&cursor="+cursor, nil))
		if rr.Code != http.StatusOK {
			t.Fatalf("job %s page at %s: %d %s", id, cursor, rr.Code, rr.Body)
		}
		body := rr.Body.Bytes()
		all = append(all, body...)
		var p struct {
			Next string `json:"next_cursor"`
			Done bool   `json:"done"`
		}
		if err := json.Unmarshal(body, &p); err != nil {
			t.Fatal(err)
		}
		if p.Done {
			return all
		}
		cursor = p.Next
	}
}

// TestJobsRecoveryEndToEnd runs a real sweep through a persisted server,
// "crashes" (drops it without a clean job-store Close), reopens the
// directory, and checks the recovered job serves byte-identical pages.
func TestJobsRecoveryEndToEnd(t *testing.T) {
	dir := t.TempDir()
	ps, recovered, err := store.Open(store.Options{Dir: dir, Fsync: store.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	srv := service.New(service.Config{Persistence: ps, Recovered: recovered, SnapshotInterval: -1})
	defer srv.Close()

	space := &sweep.Space{
		Ns:       []int{64, 128},
		Stencils: []string{"5-point"},
		Shapes:   []string{"strip", "square"},
		Machines: []core.MachineSpec{{Type: "sync-bus"}, {Type: "hypercube"}},
	}
	snap, err := srv.Jobs().Submit(jobs.Request{Kind: jobs.KindSweep, Space: space})
	if err != nil {
		t.Fatal(err)
	}
	fin, err := srv.Jobs().Wait(context.Background(), snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != jobs.StateSucceeded {
		t.Fatalf("job finished %q: %s", fin.State, fin.Reason)
	}
	before := pageBytes(t, srv, snap.ID)

	// Crash: close only the WAL (fsync=always has everything durable);
	// the jobs store is abandoned mid-life exactly like a killed
	// process. Runners have finished, so no goroutines leak.
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}

	ps2, recovered2, err := store.Open(store.Options{Dir: dir, Fsync: store.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer ps2.Close()
	if len(recovered2) != 1 || recovered2[0].ID != snap.ID {
		t.Fatalf("recovered %+v, want job %s", recovered2, snap.ID)
	}
	srv2 := service.New(service.Config{Persistence: ps2, Recovered: recovered2, SnapshotInterval: -1})
	defer srv2.Close()

	got, err := srv2.Jobs().Get(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != jobs.StateSucceeded || !got.Recovered {
		t.Fatalf("recovered job: state %q recovered %v", got.State, got.Recovered)
	}
	if got.Progress != fin.Progress {
		t.Fatalf("progress diverged: %+v vs %+v", got.Progress, fin.Progress)
	}
	if after := pageBytes(t, srv2, snap.ID); !bytes.Equal(after, before) {
		t.Fatalf("pages diverged across recovery:\n  before %s\n  after  %s", before, after)
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

// v1Jobs are the jobs of testdata/v1: a flat spec list covering every
// result payload (allocations, scalars, grid searches, a scaled point, a
// spec error and a cache hit) and a speedup space, both succeeded; an
// optimize space cancelled after 17 of 36 results; and a flat list
// still running, 2 of 4 results in, when the process stopped. The first
// two sit in a snapshot, the others in the WAL on top of it.
var v1Jobs = []string{"v1flat0000000001", "v1cancel00000002", "v1space000000003", "v1crash000000004"}

// fileVersion reads a data file's format version from its header.
func fileVersion(t *testing.T, path string) uint32 {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) < 8 {
		t.Fatalf("%s: %d bytes, no header", path, len(b))
	}
	return binary.LittleEndian.Uint32(b[4:8])
}

// TestRecoverV1DataDir recovers a data directory written by the format
// 1 store (testdata/v1/data, written by commit 3b0d860, whose results
// carry their specs and machine names) and requires the pages it serves
// to be byte-identical to the ones that build served for the same
// directory (testdata/v1/pages). Open must rewrite the directory as a
// format 2 generation before its first append, so no file holds format
// 2 records under a format 1 header.
func TestRecoverV1DataDir(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("testdata", "v1", "data")
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if fileVersion(t, filepath.Join(src, e.Name())) != 1 {
			t.Fatalf("fixture file %s is not format 1", e.Name())
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	ps, recovered, err := store.Open(store.Options{Dir: dir, Fsync: store.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != len(v1Jobs) {
		t.Fatalf("recovered %d jobs, want %d", len(recovered), len(v1Jobs))
	}
	// Open compacted generation 1 into generation 2 before anything
	// was appended: only format 2 files remain.
	if g := ps.Stats().Generation; g != 2 {
		t.Fatalf("generation %d after upgrade, want 2", g)
	}
	checkV2 := func() {
		t.Helper()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if v := fileVersion(t, filepath.Join(dir, e.Name())); v != 2 {
				t.Errorf("%s is format %d after recovery", e.Name(), v)
			}
			if strings.Contains(e.Name(), "00000001") {
				t.Errorf("%s of the format 1 generation survived the upgrade", e.Name())
			}
		}
	}
	checkV2()

	// The first append lands in the format 2 WAL, and replays.
	spec := sweep.Spec{N: 300, Stencil: "9-point", Shape: "square", Machine: core.MachineSpec{Type: "mesh"}}
	res, err := sweep.New(sweep.Options{Workers: 1}).Run(context.Background(), []sweep.Spec{spec})
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2026, 10, 18, 10, 0, 0, 0, time.UTC)
	ps.Submitted(jobs.PersistedJob{ID: "v2tail0000000005", Kind: jobs.KindSweep, State: jobs.StatePending,
		Created: at, Request: jobs.Request{Kind: jobs.KindSweep, Specs: []sweep.Spec{spec}}})
	ps.Started("v2tail0000000005", at, 1)
	ps.Chunk("v2tail0000000005", res)
	ps.Finished("v2tail0000000005", jobs.StateSucceeded, "", at)
	if st := ps.Stats(); st.Generation != 2 || st.WALRecords != 4 {
		t.Fatalf("after the first appends: %+v", st)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	checkV2()

	ps2, recovered2, err := store.Open(store.Options{Dir: dir, Fsync: store.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer ps2.Close()
	if len(recovered2) != len(v1Jobs)+1 || ps2.Stats().Generation != 2 {
		t.Fatalf("reopened format 2 dir: %d jobs, generation %d", len(recovered2), ps2.Stats().Generation)
	}
	srv := service.New(service.Config{Persistence: ps2, Recovered: recovered2, SnapshotInterval: -1,
		JobTTL: 50 * 365 * 24 * time.Hour})
	defer srv.Close()
	for _, id := range v1Jobs {
		want, err := os.ReadFile(filepath.Join("testdata", "v1", "pages", id+".ndjson"))
		if err != nil {
			t.Fatal(err)
		}
		if got := pageBytes(t, srv, id); !bytes.Equal(got, want) {
			t.Errorf("job %s pages differ from format 1's:\n got: %s\nwant: %s", id, got, want)
		}
	}
	tail := pageBytes(t, srv, "v2tail0000000005")
	if !bytes.Contains(tail, []byte(`"results":[{"index":0,"spec":{"n":300,"stencil":"9-point","shape":"square","machine":{"type":"mesh"}},"cache_hit":false,"procs":`)) {
		t.Errorf("format 2 job's page: %s", tail)
	}
}
