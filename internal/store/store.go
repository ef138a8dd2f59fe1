package store

import (
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"optspeed/internal/jobs"
	"optspeed/internal/sweep"
)

// Options configures Open.
type Options struct {
	// Dir is the data directory (created if absent).
	Dir string
	// Fsync is the log flush policy; empty means FsyncInterval.
	Fsync FsyncPolicy
	// FlushInterval is the FsyncInterval timer period; 0 means
	// DefaultFlushInterval.
	FlushInterval time.Duration
	// Logger receives write-path failures (an append that cannot reach
	// the log is reported, not silently swallowed); nil discards.
	Logger *slog.Logger
	// WriteFault, when non-nil, is consulted before each WAL append; a
	// returned error fails the append through the store's normal
	// degraded path (count it, log it, keep serving). It exists for the
	// chaos plane — production wiring leaves it nil.
	WriteFault func() error
}

// Stats is the persistence counter set surfaced at /v1/metrics.
// WALBytes/WALRecords cover the current log generation (they reset at
// each compaction); Fsyncs and Snapshots are cumulative since Open.
type Stats struct {
	Generation           uint64 `json:"generation"`
	WALBytes             int64  `json:"wal_bytes"`
	WALRecords           int64  `json:"wal_records"`
	Fsyncs               int64  `json:"fsyncs"`
	Snapshots            int64  `json:"snapshots"`
	RecoveredJobs        int64  `json:"recovered_jobs"`
	ReplayTruncatedBytes int64  `json:"replay_truncated_bytes"`
	WriteErrors          int64  `json:"write_errors,omitempty"`
}

// Store is the durable job log: it implements jobs.Persister over one
// WAL generation and rotates to a new generation at every snapshot.
// All methods are safe for concurrent use.
type Store struct {
	dir        string
	policy     FsyncPolicy
	logger     *slog.Logger
	writeFault func() error

	mu     sync.Mutex // serializes log writes and rotation
	wal    *walFile
	gen    uint64
	closed bool

	walBytes    atomic.Int64
	walRecords  atomic.Int64
	fsyncs      atomic.Int64
	snapshots   atomic.Int64
	writeErrors atomic.Int64
	recovered   int64
	truncated   int64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// Open recovers the durable state in dir and returns the store ready
// for writes plus the recovered jobs for the jobs registry to ingest.
// Recovery picks the newest complete snapshot, replays its WAL
// generation on top (truncating the log at the first torn or corrupt
// record), and removes every older generation. A data directory
// written by a different format version is refused with
// ErrVersionMismatch.
func Open(opts Options) (*Store, []jobs.PersistedJob, error) {
	if opts.Dir == "" {
		return nil, nil, fmt.Errorf("store: Open: empty data dir")
	}
	policy := opts.Fsync
	if policy == "" {
		policy = FsyncInterval
	}
	if _, err := ParseFsyncPolicy(string(policy)); err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, err
	}
	s := &Store{
		dir:        opts.Dir,
		policy:     policy,
		logger:     opts.Logger,
		writeFault: opts.WriteFault,
		stop:       make(chan struct{}),
	}
	recovered, err := s.recover()
	if err != nil {
		return nil, nil, err
	}
	s.recovered = int64(len(recovered))
	if policy == FsyncInterval {
		every := opts.FlushInterval
		if every <= 0 {
			every = DefaultFlushInterval
		}
		s.wg.Add(1)
		go s.flushLoop(every)
	}
	return s, recovered, nil
}

// recover loads the newest complete generation and opens its WAL for
// append. Called once from Open, before any concurrent access.
func (s *Store) recover() ([]jobs.PersistedJob, error) {
	snaps, wals, tmps, err := scanDir(s.dir)
	if err != nil {
		return nil, err
	}
	for _, name := range tmps {
		os.Remove(filepath.Join(s.dir, name)) // interrupted snapshot write
	}
	// The live generation is the newest snapshot (generation 0 has
	// none: it is the fresh-directory state, WAL only).
	gen := uint64(0)
	if len(snaps) > 0 {
		gen = snaps[len(snaps)-1]
	}
	state := newReplayState()
	old := false // the live generation holds an older format's file
	if len(snaps) > 0 {
		snap, err := readRecords(snapName(s.dir, gen), snapMagic)
		if err != nil {
			return nil, err
		}
		old = snap.version < formatVersion
		for _, r := range snap.records {
			state.apply(r.typ, r.body)
		}
		s.truncated += snap.truncated
	}
	walPath := walName(s.dir, gen)
	if _, err := os.Stat(walPath); err == nil {
		wal, err := readRecords(walPath, walMagic)
		if err != nil {
			return nil, err
		}
		old = old || wal.version < formatVersion
		for _, r := range wal.records {
			state.apply(r.typ, r.body)
		}
		s.truncated += wal.truncated
		s.wal, err = openWAL(s.dir, gen, wal.validLen)
		if err != nil {
			return nil, err
		}
		s.walBytes.Store(wal.validLen - headerSize)
		s.walRecords.Store(int64(len(wal.records)))
	} else {
		// Missing WAL: either a fresh directory or a crash between
		// snapshot rename and new-WAL creation (the snapshot alone is
		// the complete state in that window — rotation excludes
		// writers, so nothing was logged in between).
		s.wal, err = createWAL(s.dir, gen)
		if err != nil {
			return nil, err
		}
	}
	s.gen = gen
	// Everything outside the live generation is superseded.
	for _, g := range snaps {
		if g != gen {
			os.Remove(snapName(s.dir, g))
		}
	}
	for _, g := range wals {
		if g != gen {
			os.Remove(walName(s.dir, g))
		}
	}
	replayed := state.jobsInOrder()
	if old {
		// Appending current-format records to an older format's WAL
		// would leave a file whose header misnames its records, so the
		// replayed state becomes the next generation, written in the
		// current format, before anything is appended.
		if err := s.rotate(replayed); err != nil {
			s.wal.close()
			return nil, err
		}
	}
	out := make([]jobs.PersistedJob, len(replayed))
	for i, j := range replayed {
		out[i] = decodeJob(j)
	}
	return out, nil
}

// append writes one record under the policy's durability. The body is
// encoded before the lock is taken, so concurrent jobs serialize only
// on framing and the write. Persister hooks cannot return errors (the
// in-memory transition has already happened); a failing append is
// counted, logged, and the store keeps accepting writes — degraded
// durability beats taking the service down.
func (s *Store) append(typ byte, body any) {
	js, err := marshalRecord(typ, body)
	if err != nil {
		s.writeFailed("store: wal append failed", err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if s.writeFault != nil {
		if err := s.writeFault(); err != nil {
			s.writeFailed("store: wal append failed", err)
			return
		}
	}
	s.walBytes.Add(int64(s.wal.append(typ, js)))
	s.walRecords.Add(1)
	switch {
	case s.policy == FsyncAlways:
		if synced, err := s.wal.sync(); err != nil {
			s.writeFailed("store: wal fsync failed", err)
		} else if synced {
			s.fsyncs.Add(1)
		}
	case s.policy == FsyncOff || len(s.wal.pending) >= flushThreshold:
		// Off writes each record through. Interval writes a burst out
		// once it fills the buffer, so the buffer stays bounded and the
		// loss window stays one interval.
		if err := s.wal.flush(); err != nil {
			s.writeFailed("store: wal flush failed", err)
		}
	}
}

// writeFailed counts and logs one failed write.
func (s *Store) writeFailed(msg string, err error) {
	s.writeErrors.Add(1)
	if s.logger != nil {
		s.logger.Error(msg, "error", err)
	}
}

// flushThreshold bounds the buffered-frame backlog between interval
// flushes; a full buffer is written out inline.
const flushThreshold = 64 << 10

// flushLoop is the FsyncInterval timer: one fsync per interval with
// writes outstanding, amortizing durability across the records in
// between.
func (s *Store) flushLoop(every time.Duration) {
	defer s.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.mu.Lock()
			synced, err := s.wal.sync()
			s.mu.Unlock()
			if err != nil {
				s.writeFailed("store: wal flush failed", err)
			} else if synced {
				s.fsyncs.Add(1)
			}
		}
	}
}

// Submitted implements jobs.Persister.
func (s *Store) Submitted(job jobs.PersistedJob) {
	s.append(recSubmit, encodeJob(job))
}

// Started implements jobs.Persister.
func (s *Store) Started(id string, at time.Time, total int) {
	s.append(recStart, startJSON{ID: id, At: at, Total: total})
}

// Chunk implements jobs.Persister. The pooled results' answers are
// encoded to JSON synchronously — nothing of the buffer is retained past
// the call — and their specs are not written: the job's submit record
// holds the request that names them.
func (s *Store) Chunk(id string, rs []sweep.Result) {
	s.append(recChunk, chunkJSON{ID: id, Results: encodeChunk(rs)})
}

// Finished implements jobs.Persister.
func (s *Store) Finished(id string, state jobs.State, reason string, at time.Time) {
	s.append(recFinish, finishJSON{ID: id, State: state, Reason: reason, At: at})
}

// CancelRequested implements jobs.Persister.
func (s *Store) CancelRequested(id string) {
	s.append(recCancel, idJSON{ID: id})
}

// Removed implements jobs.Persister.
func (s *Store) Removed(id string) {
	s.append(recRemove, idJSON{ID: id})
}

// Snapshot implements jobs.Persister: it writes the dump as the next
// generation and rotates the log to it. The jobs store calls this with
// every writer excluded, so the dump and the rotation point are
// exactly consistent. On failure the current generation stays live and
// intact — compaction is retried at the next snapshot interval.
func (s *Store) Snapshot(dump []jobs.PersistedJob) error {
	encoded := make([]jobJSON, len(dump))
	for i, pj := range dump {
		encoded[i] = encodeJob(pj)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: snapshot after Close")
	}
	return s.rotate(encoded)
}

// rotate writes encoded as the next generation's snapshot, starts that
// generation's WAL, and deletes the current generation. Caller holds
// s.mu, or is Open before the store is shared.
func (s *Store) rotate(encoded []jobJSON) error {
	next := s.gen + 1
	if err := writeSnapshot(s.dir, next, encoded); err != nil {
		return err
	}
	wal, err := createWAL(s.dir, next)
	if err != nil {
		// The new snapshot is durable but its WAL could not be created;
		// roll forward is impossible, so stay on the current generation
		// (whose log still holds everything the snapshot does) and drop
		// the orphan snapshot.
		os.Remove(snapName(s.dir, next))
		return err
	}
	old, oldGen := s.wal, s.gen
	s.wal, s.gen = wal, next
	old.close()
	os.Remove(walName(s.dir, oldGen))
	if oldGen > 0 {
		os.Remove(snapName(s.dir, oldGen))
	}
	s.snapshots.Add(1)
	s.walBytes.Store(0)
	s.walRecords.Store(0)
	return nil
}

// Stats returns the current counter snapshot.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	gen := s.gen
	s.mu.Unlock()
	return Stats{
		Generation:           gen,
		WALBytes:             s.walBytes.Load(),
		WALRecords:           s.walRecords.Load(),
		Fsyncs:               s.fsyncs.Load(),
		Snapshots:            s.snapshots.Load(),
		RecoveredJobs:        s.recovered,
		ReplayTruncatedBytes: s.truncated,
		WriteErrors:          s.writeErrors.Load(),
	}
}

// Close stops the flush loop, syncs outstanding records, and closes
// the log. The jobs store snapshots before calling this, so a clean
// shutdown restarts from a compact, fully durable state.
func (s *Store) Close() error {
	s.stopOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var firstErr error
	if synced, err := s.wal.sync(); err != nil {
		firstErr = err
	} else if synced {
		s.fsyncs.Add(1)
	}
	if err := s.wal.close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
