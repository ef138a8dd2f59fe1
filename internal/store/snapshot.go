package store

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// fileRecords is the outcome of reading one data file: the decoded
// records of its valid prefix, the byte length of that prefix
// (header included), and how many trailing bytes were dropped as
// torn or corrupt.
type fileRecords struct {
	version   uint32
	records   []typedRecord
	validLen  int64
	truncated int64
}

type typedRecord struct {
	typ  byte
	body any
}

// readRecords loads a data file and decodes its valid record prefix.
// Framing or decode failure is not an error — replay truncates there
// (crashes tear tails; bit flips fail the CRC) — but a bad header is:
// that is a foreign or future-format file, and fabricating job state
// from it would be worse than refusing to start.
func readRecords(path, magic string) (fileRecords, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return fileRecords{}, err
	}
	version, err := checkHeader(data, magic)
	if err != nil {
		return fileRecords{}, fmt.Errorf("%s: %w", path, err)
	}
	out := fileRecords{version: version, validLen: headerSize}
	rest := data[headerSize:]
	for len(rest) > 0 {
		payload, next, err := nextFrame(rest)
		if err != nil {
			break
		}
		typ, body, err := decodeRecord(payload)
		if err != nil {
			break
		}
		out.records = append(out.records, typedRecord{typ: typ, body: body})
		out.validLen += int64(frameSize + len(payload))
		rest = next
	}
	out.truncated = int64(len(data)) - out.validLen
	return out, nil
}

// replayState folds lifecycle records into per-job durable state — the
// read-side mirror of the jobs store's write hooks.
type replayState struct {
	jobs  map[string]*jobJSON
	order []string // insertion order, for deterministic output
}

func newReplayState() *replayState {
	return &replayState{jobs: make(map[string]*jobJSON)}
}

// apply folds one record in. Records referencing unknown ids are
// skipped rather than fatal: the valid-prefix rule already bounds how
// wrong the log can be, and dropping a stray record is strictly safer
// than refusing every job in the directory.
func (rs *replayState) apply(typ byte, body any) {
	switch typ {
	case recSubmit, recSnapJob:
		j := body.(jobJSON)
		if _, ok := rs.jobs[j.ID]; !ok {
			rs.order = append(rs.order, j.ID)
		}
		rs.jobs[j.ID] = &j
	case recStart:
		r := body.(startJSON)
		if j, ok := rs.jobs[r.ID]; ok {
			// A second start for one id is a post-recovery re-dispatch:
			// evaluation restarted from zero, so previously replayed
			// results are void.
			j.State = "running"
			j.Started = r.At
			j.Total = r.Total
			j.Results = nil
		}
	case recChunk:
		r := body.(chunkJSON)
		if j, ok := rs.jobs[r.ID]; ok {
			j.Results = append(j.Results, r.Results...)
		}
	case recFinish:
		r := body.(finishJSON)
		if j, ok := rs.jobs[r.ID]; ok {
			j.State = r.State
			j.Reason = r.Reason
			j.Finished = r.At
		}
	case recCancel:
		r := body.(idJSON)
		if j, ok := rs.jobs[r.ID]; ok {
			j.CancelRequested = true
		}
	case recRemove:
		r := body.(idJSON)
		delete(rs.jobs, r.ID)
	}
}

// jobsInOrder returns the surviving jobs in first-seen order.
func (rs *replayState) jobsInOrder() []jobJSON {
	out := make([]jobJSON, 0, len(rs.jobs))
	for _, id := range rs.order {
		if j, ok := rs.jobs[id]; ok {
			out = append(out, *j)
		}
	}
	return out
}

// writeSnapshot durably writes one full dump as generation gen:
// tmp-file write, fsync, atomic rename, directory fsync. A crash at
// any point leaves either the old state or the complete new snapshot —
// never a torn one with the real name.
func writeSnapshot(dir string, gen uint64, dump []jobJSON) error {
	final := snapName(dir, gen)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer os.Remove(tmp) // no-op after a successful rename
	buf := header(snapMagic)
	for _, j := range dump {
		if buf, err = encodeRecord(buf, recSnapJob, j); err != nil {
			f.Close()
			return err
		}
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	return syncDir(dir)
}

// scanDir inventories the data directory: snapshot and WAL generations
// present, plus leftover tmp files from an interrupted snapshot write.
func scanDir(dir string) (snaps, wals []uint64, tmps []string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if gen, ok := matchGen(name, "snap-", ".db"); ok {
			snaps = append(snaps, gen)
		} else if gen, ok := matchGen(name, "wal-", ".log"); ok {
			wals = append(wals, gen)
		} else if strings.HasSuffix(name, ".tmp") {
			tmps = append(tmps, name)
		}
	}
	sort.Slice(snaps, func(i, k int) bool { return snaps[i] < snaps[k] })
	sort.Slice(wals, func(i, k int) bool { return wals[i] < wals[k] })
	return snaps, wals, tmps, nil
}

// matchGen parses "<prefix>NNNNNNNN<suffix>" (8 decimal digits).
func matchGen(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	digits := name[len(prefix) : len(name)-len(suffix)]
	if len(digits) != 8 {
		return 0, false
	}
	gen, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0, false
	}
	return gen, true
}
