package store

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// FsyncPolicy selects when the WAL is flushed to stable storage.
type FsyncPolicy string

const (
	// FsyncAlways syncs after every record: no acknowledged transition
	// is ever lost, at one fsync per write.
	FsyncAlways FsyncPolicy = "always"
	// FsyncInterval syncs on a background timer (FlushInterval): a
	// crash loses at most the last interval's records. Frames are
	// additionally coalesced in memory between flushes, so the serving
	// path pays an append to a buffer, not a write syscall per record —
	// the loss window is the same either way.
	FsyncInterval FsyncPolicy = "interval"
	// FsyncOff never syncs explicitly; the OS page cache decides. Each
	// record is still written through to the file, so process crashes
	// (not host crashes) are fully recoverable.
	FsyncOff FsyncPolicy = "off"
)

// ParseFsyncPolicy validates a policy name (the -fsync flag).
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch p := FsyncPolicy(s); p {
	case FsyncAlways, FsyncInterval, FsyncOff:
		return p, nil
	default:
		return "", fmt.Errorf("store: unknown fsync policy %q (want always, interval, or off)", s)
	}
}

// walFile is one open log generation. Every append frames its record
// into pending; a flush writes all pending frames with one write
// syscall — no bufio layer, so a crash can tear at most the bytes of
// one flush, and frames are never split across writes. FsyncOff and
// FsyncAlways flush after each record; FsyncInterval lets frames
// accumulate until the next timer flush.
type walFile struct {
	f       *os.File
	pending []byte // frames awaiting flush
	dirty   bool   // file written since last sync
}

func walName(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%08d.log", gen))
}

func snapName(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%08d.db", gen))
}

// createWAL starts a fresh log generation with its header durably on
// disk (header write + sync + directory sync), so a crash right after
// rotation still finds a well-formed file.
func createWAL(dir string, gen uint64) (*walFile, error) {
	f, err := os.OpenFile(walName(dir, gen), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(header(walMagic)); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return &walFile{f: f}, nil
}

// openWAL opens an existing generation for append at offset — the
// valid prefix replay established. Anything past it (a torn tail) is
// truncated away so new records append to known-good bytes.
func openWAL(dir string, gen uint64, offset int64) (*walFile, error) {
	f, err := os.OpenFile(walName(dir, gen), os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(offset); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(offset, 0); err != nil {
		f.Close()
		return nil, err
	}
	return &walFile{f: f}, nil
}

// append frames one record (type byte and JSON body) onto pending and
// returns the framed size. The caller decides about flushing and
// syncing (policy-dependent).
func (w *walFile) append(typ byte, js []byte) int {
	before := len(w.pending)
	w.pending = appendFrame(w.pending, []byte{typ}, js)
	return len(w.pending) - before
}

// flush writes every pending frame to the file in one syscall. The
// frames are dropped even when the write fails: retrying them after a
// partial write would put them behind a torn frame, where replay never
// reads.
func (w *walFile) flush() error {
	if len(w.pending) == 0 {
		return nil
	}
	_, err := w.f.Write(w.pending)
	w.pending = w.pending[:0]
	w.dirty = true
	if err != nil {
		return fmt.Errorf("store: wal flush: %w", err)
	}
	return nil
}

// sync flushes pending frames and pushes to stable storage if anything
// was written since the last sync; reports whether it actually synced.
func (w *walFile) sync() (bool, error) {
	if err := w.flush(); err != nil {
		return false, err
	}
	if !w.dirty {
		return false, nil
	}
	if err := w.f.Sync(); err != nil {
		return false, err
	}
	w.dirty = false
	return true, nil
}

func (w *walFile) close() error {
	return w.f.Close()
}

// syncDir fsyncs a directory so renames and creates within it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// DefaultFlushInterval is the FsyncInterval timer period.
const DefaultFlushInterval = 100 * time.Millisecond
