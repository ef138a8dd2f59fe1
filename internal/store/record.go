// Package store is the durable backing for the jobs registry: an
// append-only write-ahead log of job lifecycle records plus periodic
// full snapshots that let the log be truncated. It implements
// jobs.Persister on the write side and hands back []jobs.PersistedJob
// on the read side; the jobs package stays the only owner of job
// semantics.
//
// On-disk layout (one data directory):
//
//	snap-%08d.db   full dump at generation g (absent for g = 0)
//	wal-%08d.log   records after snapshot g
//
// Both files share one format: a header (4-byte magic, "OSWL" for logs
// and "OSNP" for snapshots, then a little-endian uint32 format
// version), followed by framed records:
//
//	uint32 length | uint32 CRC32-IEEE(payload) | payload
//
// where payload is one record-type byte followed by a JSON body. The
// CRC covers the payload only; the length field is validated by the
// CRC check (a corrupt length either fails to read or frames bytes
// whose checksum cannot match). Replay truncates at the first bad
// record — a torn tail is expected after a crash — and refuses to
// start on a version (or magic) mismatch, since misreading a foreign
// format would fabricate job state.
package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"optspeed/internal/core"
	"optspeed/internal/jobs"
	"optspeed/internal/sweep"
)

// Format identity. Version bumps whenever the record framing or any
// JSON payload changes; versions this binary cannot read are refused,
// not silently misread. Version 2 dropped each result's spec ("s") and
// machine name ("ar"), which the job's request determines. A version 1
// body decodes into the same structs (the dropped fields are ignored),
// so version 1 files are still read; the store compacts a version 1
// generation to version 2 on Open, so no file mixes the two.
const (
	walMagic      = "OSWL"
	snapMagic     = "OSNP"
	formatVersion = 2
	oldestVersion = 1

	headerSize = 8 // magic + version
	frameSize  = 8 // length + crc
)

// maxRecordSize bounds one record's payload (64 MiB). Real records are
// far smaller; the bound keeps a corrupt length field from driving a
// giant allocation during replay.
const maxRecordSize = 64 << 20

// Record types. The snapshot-job type appears only in snapshot files;
// everything else only in the WAL.
const (
	recSubmit  byte = 1
	recStart   byte = 2
	recChunk   byte = 3
	recFinish  byte = 4
	recCancel  byte = 5
	recRemove  byte = 6
	recSnapJob byte = 7
)

// ErrVersionMismatch reports a data directory written by an
// incompatible format version. The server refuses to start rather than
// guess at the contents.
var ErrVersionMismatch = errors.New("store: data file format version mismatch")

// errBadRecord marks a record that failed framing, checksum, or decode
// — the truncate-here signal during replay.
var errBadRecord = errors.New("store: bad record")

// header builds a file header for the given magic.
func header(magic string) []byte {
	h := make([]byte, headerSize)
	copy(h, magic)
	binary.LittleEndian.PutUint32(h[4:], formatVersion)
	return h
}

// checkHeader validates a file's first bytes against the expected
// magic and the supported versions, and returns the file's version.
func checkHeader(h []byte, magic string) (uint32, error) {
	if len(h) < headerSize || string(h[:4]) != magic {
		return 0, fmt.Errorf("%w: bad magic (want %q)", ErrVersionMismatch, magic)
	}
	v := binary.LittleEndian.Uint32(h[4:])
	if v < oldestVersion || v > formatVersion {
		return 0, fmt.Errorf("%w: file version %d, this binary reads %d to %d",
			ErrVersionMismatch, v, oldestVersion, formatVersion)
	}
	return v, nil
}

// appendFrame frames one payload, given in parts, onto buf: length,
// CRC32, payload. The parts are copied straight into buf and the CRC is
// taken there, so a record's type byte and JSON body are never joined
// in a copy of their own.
func appendFrame(buf []byte, payload ...[]byte) []byte {
	start := len(buf)
	buf = append(buf, make([]byte, frameSize)...)
	for _, p := range payload {
		buf = append(buf, p...)
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(buf)-start-frameSize))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(buf[start+frameSize:]))
	return buf
}

// nextFrame splits the first framed payload off data, returning the
// payload and the remainder. An incomplete or checksum-failing frame
// returns errBadRecord — the caller truncates there.
func nextFrame(data []byte) (payload, rest []byte, err error) {
	if len(data) < frameSize {
		return nil, nil, errBadRecord
	}
	n := binary.LittleEndian.Uint32(data[0:])
	sum := binary.LittleEndian.Uint32(data[4:])
	if n > maxRecordSize || uint64(frameSize)+uint64(n) > uint64(len(data)) {
		return nil, nil, errBadRecord
	}
	payload = data[frameSize : frameSize+n]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, nil, errBadRecord
	}
	return payload, data[frameSize+n:], nil
}

// Wire payloads. Short keys keep chunk records — the hot write — small;
// every answer field the service's result encoder reads is round-tripped
// so a recovered page re-encodes byte-identically (the encoder names
// each result's spec from the job's request, "rq").

type reqJSON struct {
	Kind  jobs.Kind    `json:"k,omitempty"`
	Specs []sweep.Spec `json:"sp,omitempty"`
	Space *sweep.Space `json:"sc,omitempty"`
}

type allocJSON struct {
	Procs          int     `json:"p"`
	Area           float64 `json:"a,omitempty"`
	CycleTime      float64 `json:"ct,omitempty"`
	Speedup        float64 `json:"sp,omitempty"`
	UsedAll        bool    `json:"ua,omitempty"`
	Single         bool    `json:"si,omitempty"`
	Interior       bool    `json:"in,omitempty"`
	ContinuousArea float64 `json:"ca,omitempty"`
}

type scaledJSON struct {
	N         int     `json:"n,omitempty"`
	Procs     float64 `json:"p,omitempty"`
	CycleTime float64 `json:"ct,omitempty"`
	Speedup   float64 `json:"sp,omitempty"`
}

type resultJSON struct {
	Index    int         `json:"i"`
	CacheHit bool        `json:"c,omitempty"`
	Value    float64     `json:"v,omitempty"`
	Grid     int         `json:"g,omitempty"`
	Alloc    *allocJSON  `json:"a,omitempty"`
	Scaled   *scaledJSON `json:"z,omitempty"`
	Err      string      `json:"e,omitempty"`
	// Panic marks an error produced by a recovered evaluation panic, so
	// replay can rebuild an error that still matches
	// errors.Is(err, sweep.ErrEvaluationPanic) — the service encoder
	// masks those as "internal evaluation error".
	Panic bool `json:"ep,omitempty"`
}

type jobJSON struct {
	ID              string       `json:"id"`
	Kind            jobs.Kind    `json:"k,omitempty"`
	State           jobs.State   `json:"st"`
	CancelRequested bool         `json:"cx,omitempty"`
	Created         time.Time    `json:"cr"`
	Started         time.Time    `json:"sa,omitzero"`
	Finished        time.Time    `json:"fi,omitzero"`
	Reason          string       `json:"re,omitempty"`
	Total           int          `json:"to,omitempty"`
	Request         reqJSON      `json:"rq"`
	Results         []resultJSON `json:"rs,omitempty"`
}

type startJSON struct {
	ID    string    `json:"id"`
	At    time.Time `json:"at"`
	Total int       `json:"to,omitempty"`
}

type chunkJSON struct {
	ID      string       `json:"id"`
	Results []resultJSON `json:"rs"`
}

type finishJSON struct {
	ID     string     `json:"id"`
	State  jobs.State `json:"st"`
	Reason string     `json:"re,omitempty"`
	At     time.Time  `json:"at"`
}

type idJSON struct {
	ID string `json:"id"`
}

// panicError is a replayed evaluation-panic error: the original message
// survives, and errors.Is(err, sweep.ErrEvaluationPanic) still holds,
// so the service encoder masks it exactly as it did pre-crash.
type panicError struct{ msg string }

func (e panicError) Error() string { return e.msg }
func (e panicError) Unwrap() error { return sweep.ErrEvaluationPanic }

func encodeResult(r *sweep.Answer) resultJSON {
	out := resultJSON{
		Index:    r.Index,
		CacheHit: r.CacheHit,
		Value:    r.Value,
		Grid:     r.Grid,
	}
	if r.Alloc.Procs > 0 {
		a := allocJSON(r.Alloc)
		out.Alloc = &a
	}
	if r.Scaled != (core.ScaledPoint{}) {
		z := scaledJSON(r.Scaled)
		out.Scaled = &z
	}
	if r.Err != nil {
		out.Err = r.Err.Error()
		out.Panic = errors.Is(r.Err, sweep.ErrEvaluationPanic)
	}
	return out
}

func decodeResult(in *resultJSON) sweep.Answer {
	r := sweep.Answer{
		Index:    in.Index,
		CacheHit: in.CacheHit,
		Value:    in.Value,
		Grid:     in.Grid,
	}
	if in.Alloc != nil {
		r.Alloc = sweep.Alloc(*in.Alloc)
	}
	if in.Scaled != nil {
		r.Scaled = core.ScaledPoint(*in.Scaled)
	}
	switch {
	case in.Panic:
		r.Err = panicError{msg: in.Err}
	case in.Err != "":
		r.Err = errors.New(in.Err)
	}
	return r
}

// encodeChunk encodes the answers of one streamed chunk; the specs stay
// with the job's request.
func encodeChunk(rs []sweep.Result) []resultJSON {
	out := make([]resultJSON, len(rs))
	for i := range rs {
		out[i] = encodeResult(&rs[i].Answer)
	}
	return out
}

func encodeResults(rs []sweep.Answer) []resultJSON {
	if len(rs) == 0 {
		return nil
	}
	out := make([]resultJSON, len(rs))
	for i := range rs {
		out[i] = encodeResult(&rs[i])
	}
	return out
}

func decodeResults(rs []resultJSON) []sweep.Answer {
	if len(rs) == 0 {
		return nil
	}
	out := make([]sweep.Answer, len(rs))
	for i := range rs {
		out[i] = decodeResult(&rs[i])
	}
	return out
}

func encodeJob(pj jobs.PersistedJob) jobJSON {
	return jobJSON{
		ID:              pj.ID,
		Kind:            pj.Kind,
		State:           pj.State,
		CancelRequested: pj.CancelRequested,
		Created:         pj.Created,
		Started:         pj.Started,
		Finished:        pj.Finished,
		Reason:          pj.Reason,
		Total:           pj.Total,
		Request: reqJSON{
			Kind:  pj.Request.Kind,
			Specs: pj.Request.Specs,
			Space: pj.Request.Space,
		},
		Results: encodeResults(pj.Results),
	}
}

func decodeJob(in jobJSON) jobs.PersistedJob {
	return jobs.PersistedJob{
		ID:              in.ID,
		Kind:            in.Kind,
		State:           in.State,
		CancelRequested: in.CancelRequested,
		Created:         in.Created,
		Started:         in.Started,
		Finished:        in.Finished,
		Reason:          in.Reason,
		Total:           in.Total,
		Request: jobs.Request{
			Kind:  in.Request.Kind,
			Specs: in.Request.Specs,
			Space: in.Request.Space,
		},
		Results: decodeResults(in.Results),
	}
}

// encodeRecord frames one typed record onto buf.
func encodeRecord(buf []byte, typ byte, body any) ([]byte, error) {
	js, err := marshalRecord(typ, body)
	if err != nil {
		return buf, err
	}
	return appendFrame(buf, []byte{typ}, js), nil
}

// marshalRecord encodes one record body.
func marshalRecord(typ byte, body any) ([]byte, error) {
	js, err := json.Marshal(body)
	if err != nil {
		return nil, fmt.Errorf("store: encode record type %d: %w", typ, err)
	}
	return js, nil
}

// decodeRecord parses one record payload (type byte + JSON body) into
// its wire struct. It is the single decode path shared by replay and
// FuzzDecodeWALRecord.
func decodeRecord(payload []byte) (byte, any, error) {
	if len(payload) == 0 {
		return 0, nil, fmt.Errorf("%w: empty payload", errBadRecord)
	}
	typ, body := payload[0], payload[1:]
	var (
		v   any
		err error
	)
	switch typ {
	case recSubmit, recSnapJob:
		var j jobJSON
		err = json.Unmarshal(body, &j)
		v = j
	case recStart:
		var r startJSON
		err = json.Unmarshal(body, &r)
		v = r
	case recChunk:
		var r chunkJSON
		err = json.Unmarshal(body, &r)
		v = r
	case recFinish:
		var r finishJSON
		err = json.Unmarshal(body, &r)
		v = r
	case recCancel, recRemove:
		var r idJSON
		err = json.Unmarshal(body, &r)
		v = r
	default:
		return typ, nil, fmt.Errorf("%w: unknown record type %d", errBadRecord, typ)
	}
	if err != nil {
		return typ, nil, fmt.Errorf("%w: type %d: %v", errBadRecord, typ, err)
	}
	return typ, v, nil
}
