package store

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"optspeed/internal/jobs"
	"optspeed/internal/sweep"
)

func openTest(t *testing.T, dir string) (*Store, []jobs.PersistedJob) {
	t.Helper()
	s, recovered, err := Open(Options{Dir: dir, Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, recovered
}

// testAnswers returns n answers with indices from..from+n-1.
func testAnswers(n, from int) []sweep.Answer {
	out := make([]sweep.Answer, n)
	for i := range out {
		out[i] = sweep.Answer{Index: from + i, Value: float64(from+i) * 1.5}
	}
	return out
}

// testResults is testAnswers as the engine streams them, each with its
// spec; the store keeps the answers only.
func testResults(n, from int) []sweep.Result {
	out := make([]sweep.Result, n)
	for i, a := range testAnswers(n, from) {
		out[i] = sweep.Result{
			Spec:   sweep.Spec{N: 64 + a.Index, Stencil: "5-point", Shape: "square"},
			Answer: a,
		}
	}
	return out
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, recovered := openTest(t, dir)
	if len(recovered) != 0 {
		t.Fatalf("fresh dir recovered %d jobs", len(recovered))
	}
	created := time.Date(2026, 8, 8, 10, 0, 0, 0, time.UTC)
	started := created.Add(time.Second)
	finished := created.Add(2 * time.Second)
	req := jobs.Request{Kind: jobs.KindSweep, Specs: []sweep.Spec{{N: 64, Stencil: "5-point", Shape: "square"}}}
	s.Submitted(jobs.PersistedJob{ID: "job1", Kind: jobs.KindSweep, State: jobs.StatePending, Created: created, Request: req})
	s.Started("job1", started, 5)
	s.Chunk("job1", testResults(3, 0))
	s.Chunk("job1", testResults(2, 3))
	s.Finished("job1", jobs.StateSucceeded, "", finished)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	_, recovered = openTest(t, dir)
	if len(recovered) != 1 {
		t.Fatalf("recovered %d jobs, want 1", len(recovered))
	}
	j := recovered[0]
	if j.ID != "job1" || j.State != jobs.StateSucceeded || j.Total != 5 {
		t.Fatalf("recovered job: %+v", j)
	}
	if !j.Created.Equal(created) || !j.Started.Equal(started) || !j.Finished.Equal(finished) {
		t.Fatalf("timestamps did not round-trip: %+v", j)
	}
	if len(j.Request.Specs) != 1 || j.Request.Specs[0].N != 64 {
		t.Fatalf("request did not round-trip: %+v", j.Request)
	}
	want := testAnswers(5, 0)
	if len(j.Results) != len(want) {
		t.Fatalf("recovered %d results, want %d", len(j.Results), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(j.Results[i], want[i]) {
			t.Fatalf("result %d: got %+v want %+v", i, j.Results[i], want[i])
		}
	}
}

func TestErrorResultsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTest(t, dir)
	spec := sweep.Spec{N: 64, Stencil: "5-point", Shape: "square"}
	rs := []sweep.Result{
		{Spec: spec, Answer: sweep.Answer{Index: 0, Err: errors.New("sweep: unknown stencil \"bogus\"")}},
		{Spec: spec, Answer: sweep.Answer{Index: 1,
			Err: errorWrapping(sweep.ErrEvaluationPanic, "sweep: evaluation panicked: boom")}},
	}
	s.Submitted(jobs.PersistedJob{ID: "e", State: jobs.StatePending, Created: time.Unix(1, 0)})
	s.Started("e", time.Unix(2, 0), 2)
	s.Chunk("e", rs)
	s.Finished("e", jobs.StateFailed, "all 2 specs failed", time.Unix(3, 0))
	s.Close()

	_, recovered := openTest(t, dir)
	got := recovered[0].Results
	if got[0].Err == nil || got[0].Err.Error() != rs[0].Err.Error() {
		t.Fatalf("plain error did not round-trip: %v", got[0].Err)
	}
	if errors.Is(got[0].Err, sweep.ErrEvaluationPanic) {
		t.Fatal("plain error replayed as a panic error")
	}
	if got[1].Err == nil || got[1].Err.Error() != rs[1].Err.Error() {
		t.Fatalf("panic error message did not round-trip: %v", got[1].Err)
	}
	if !errors.Is(got[1].Err, sweep.ErrEvaluationPanic) {
		t.Fatal("replayed panic error lost errors.Is(_, ErrEvaluationPanic)")
	}
}

func errorWrapping(sentinel error, msg string) error {
	return wrapped{msg: msg, inner: sentinel}
}

type wrapped struct {
	msg   string
	inner error
}

func (w wrapped) Error() string { return w.msg }
func (w wrapped) Unwrap() error { return w.inner }

// TestReplayTruncatesTornTail crashes mid-record: the torn bytes are
// dropped, everything before them survives, and the reopened WAL
// appends cleanly after the valid prefix.
func TestReplayTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTest(t, dir)
	s.Submitted(jobs.PersistedJob{ID: "a", State: jobs.StatePending, Created: time.Unix(1, 0)})
	s.Started("a", time.Unix(2, 0), 3)
	s.Chunk("a", testResults(3, 0))
	s.Close()

	path := walName(dir, 0)
	torn := []byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad} // frame claiming 64 bytes, cut off
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, _ := os.Stat(path)

	s2, recovered := openTest(t, dir)
	if len(recovered) != 1 || len(recovered[0].Results) != 3 {
		t.Fatalf("recovered %+v, want job a with 3 results", recovered)
	}
	if got := s2.Stats().ReplayTruncatedBytes; got != int64(len(torn)) {
		t.Fatalf("ReplayTruncatedBytes = %d, want %d", got, len(torn))
	}
	after, _ := os.Stat(path)
	if after.Size() != before.Size()-int64(len(torn)) {
		t.Fatalf("torn tail not truncated: %d -> %d", before.Size(), after.Size())
	}
	// Appends after the truncation replay fine on the next open.
	s2.Finished("a", jobs.StateSucceeded, "", time.Unix(5, 0))
	s2.Close()
	_, recovered = openTest(t, dir)
	if recovered[0].State != jobs.StateSucceeded {
		t.Fatalf("post-truncation append lost: %+v", recovered[0])
	}
}

// TestReplayStopsAtBitFlip flips one payload byte mid-log: the CRC
// rejects that record and replay keeps only the records before it.
func TestReplayStopsAtBitFlip(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTest(t, dir)
	s.Submitted(jobs.PersistedJob{ID: "a", State: jobs.StatePending, Created: time.Unix(1, 0)})
	s.Started("a", time.Unix(2, 0), 3)                        // record 2: will be corrupted
	s.Finished("a", jobs.StateSucceeded, "", time.Unix(3, 0)) // record 3: unreachable past the flip
	s.Close()

	path := walName(dir, 0)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Find the second record's payload start and flip a byte in it.
	first, _, err := nextFrame(data[headerSize:])
	if err != nil {
		t.Fatal(err)
	}
	off := headerSize + frameSize + len(first) + frameSize + 2
	data[off] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, recovered := openTest(t, dir)
	if len(recovered) != 1 {
		t.Fatalf("recovered %d jobs, want 1", len(recovered))
	}
	if recovered[0].State != jobs.StatePending {
		t.Fatalf("replay crossed the corrupt record: state %q", recovered[0].State)
	}
	if s2.Stats().ReplayTruncatedBytes == 0 {
		t.Fatal("corruption not reported in ReplayTruncatedBytes")
	}
}

func TestVersionMismatchRefused(t *testing.T) {
	var err error
	for _, v := range []byte{99, 0} { // a future version, and one before format 1
		dir := t.TempDir()
		h := header(walMagic)
		h[4] = v
		if err := os.WriteFile(walName(dir, 0), h, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err = Open(Options{Dir: dir, Fsync: FsyncOff})
		if !errors.Is(err, ErrVersionMismatch) {
			t.Fatalf("Open of version %d = %v, want ErrVersionMismatch", v, err)
		}
	}
	// Foreign magic is refused the same way, not silently overwritten.
	dir2 := t.TempDir()
	if err := os.WriteFile(walName(dir2, 0), []byte("NOPE\x01\x00\x00\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(Options{Dir: dir2, Fsync: FsyncOff})
	if !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("Open with foreign magic = %v, want ErrVersionMismatch", err)
	}
}

// TestSnapshotRotation compacts mid-stream and verifies the old
// generation is gone, the state survives, and records after the
// snapshot replay on top of it.
func TestSnapshotRotation(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTest(t, dir)
	s.Submitted(jobs.PersistedJob{ID: "a", State: jobs.StatePending, Created: time.Unix(1, 0)})
	s.Started("a", time.Unix(2, 0), 4)
	s.Chunk("a", testResults(2, 0))
	dump := []jobs.PersistedJob{{
		ID: "a", State: jobs.StateRunning, Created: time.Unix(1, 0),
		Started: time.Unix(2, 0), Total: 4, Results: testAnswers(2, 0),
	}}
	if err := s.Snapshot(dump); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(walName(dir, 0)); !os.IsNotExist(err) {
		t.Fatal("generation 0 WAL survived compaction")
	}
	if s.Stats().Generation != 1 || s.Stats().Snapshots != 1 {
		t.Fatalf("stats after rotation: %+v", s.Stats())
	}
	// Post-snapshot records land in the new generation.
	s.Chunk("a", testResults(2, 2))
	s.Finished("a", jobs.StateSucceeded, "", time.Unix(9, 0))
	s.Close()

	s2, recovered := openTest(t, dir)
	if len(recovered) != 1 {
		t.Fatalf("recovered %d jobs, want 1", len(recovered))
	}
	j := recovered[0]
	if j.State != jobs.StateSucceeded || len(j.Results) != 4 {
		t.Fatalf("snapshot + WAL replay: state %q, %d results", j.State, len(j.Results))
	}
	for i, r := range testAnswers(4, 0) {
		if !reflect.DeepEqual(j.Results[i], r) {
			t.Fatalf("result %d diverged across compaction: %+v", i, j.Results[i])
		}
	}
	if s2.Stats().Generation != 1 {
		t.Fatalf("reopened generation %d, want 1", s2.Stats().Generation)
	}
	// A second rotation removes generation 1's pair.
	if err := s2.Snapshot(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(snapName(dir, 1)); !os.IsNotExist(err) {
		t.Fatal("generation 1 snapshot survived the second compaction")
	}
	if _, err := os.Stat(walName(dir, 1)); !os.IsNotExist(err) {
		t.Fatal("generation 1 WAL survived the second compaction")
	}
}

func TestRemovedJobsStayGone(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTest(t, dir)
	s.Submitted(jobs.PersistedJob{ID: "a", State: jobs.StatePending, Created: time.Unix(1, 0)})
	s.Submitted(jobs.PersistedJob{ID: "b", State: jobs.StatePending, Created: time.Unix(2, 0)})
	s.Removed("a")
	s.Close()
	_, recovered := openTest(t, dir)
	if len(recovered) != 1 || recovered[0].ID != "b" {
		t.Fatalf("recovered %+v, want only job b", recovered)
	}
}

// TestStaleGenerationsRemoved seeds leftovers a crash between rotation
// steps could leave behind (tmp snapshot, older generations) and
// checks open cleans them all.
func TestStaleGenerationsRemoved(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTest(t, dir)
	s.Submitted(jobs.PersistedJob{ID: "a", State: jobs.StatePending, Created: time.Unix(1, 0)})
	if err := s.Snapshot([]jobs.PersistedJob{{ID: "a", State: jobs.StatePending, Created: time.Unix(1, 0)}}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Fake a stale older generation and an interrupted snapshot write.
	if err := os.WriteFile(walName(dir, 0), header(walMagic), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "snap-00000002.db.tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, recovered := openTest(t, dir)
	if len(recovered) != 1 || recovered[0].ID != "a" {
		t.Fatalf("recovered %+v", recovered)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "snap-00000001.db" && e.Name() != "wal-00000001.log" {
			t.Fatalf("stale file %q survived open", e.Name())
		}
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for _, ok := range []string{"always", "interval", "off"} {
		if _, err := ParseFsyncPolicy(ok); err != nil {
			t.Fatalf("ParseFsyncPolicy(%q): %v", ok, err)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("ParseFsyncPolicy accepted garbage")
	}
}

func TestFsyncAlwaysCountsSyncs(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(Options{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Submitted(jobs.PersistedJob{ID: "a", State: jobs.StatePending, Created: time.Unix(1, 0)})
	s.Removed("a")
	if got := s.Stats().Fsyncs; got != 2 {
		t.Fatalf("Fsyncs = %d, want 2 (one per record under always)", got)
	}
}

// TestIntervalBuffersFrames pins the FsyncInterval write path: frames
// accumulate in memory (no per-record write syscall), reach the file
// at a sync, and survive a clean Close — while an abandoned buffer
// (crash before any flush) loses only those unflushed records.
func TestIntervalBuffersFrames(t *testing.T) {
	dir := t.TempDir()
	// An hour-long flush interval: nothing flushes unless forced.
	s, _, err := Open(Options{Dir: dir, Fsync: FsyncInterval, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	s.Submitted(jobs.PersistedJob{ID: "buffered", Kind: jobs.KindSweep, State: jobs.StatePending})
	if fi, err := os.Stat(walName(dir, 0)); err != nil || fi.Size() != headerSize {
		t.Fatalf("record hit the file before a flush: size %d, err %v", fi.Size(), err)
	}
	if s.Stats().WALRecords != 1 {
		t.Fatalf("WALRecords = %d, want 1 (buffered records still count)", s.Stats().WALRecords)
	}
	if err := s.Close(); err != nil { // Close flushes and syncs
		t.Fatal(err)
	}
	if fi, err := os.Stat(walName(dir, 0)); err != nil || fi.Size() <= headerSize {
		t.Fatalf("pending frames not flushed at Close: size %d, err %v", fi.Size(), err)
	}
	s2, recovered, err := Open(Options{Dir: dir, Fsync: FsyncInterval, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if len(recovered) != 1 || recovered[0].ID != "buffered" {
		t.Fatalf("recovered %+v, want the buffered job", recovered)
	}
}
