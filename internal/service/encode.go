// Hand-rolled JSON wire encoders for the hot result types. The generic
// encoding/json path reflects over every value and allocates per
// result; a maximum-size sweep response re-marshals tens of thousands
// of results per request, which made serialization the dominant cost of
// the serving path once the engine itself went allocation-free. These
// appenders write the exact bytes encoding/json would produce
// (including its HTML escaping and float formatting quirks — pinned by
// the byte-identity tests in encode_test.go) into pooled buffers, so
// NDJSON streaming and cursor pages cost at most one amortized
// allocation per result.
package service

import (
	"math"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"

	"optspeed/internal/sweep"
)

// bufPool holds response build buffers. Buffers that grew beyond
// maxPooledBuf (a pathological single response) are dropped instead of
// pinning their memory in the pool.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

const maxPooledBuf = 1 << 20

func getBuf() *[]byte {
	return bufPool.Get().(*[]byte)
}

func putBuf(b *[]byte) {
	if cap(*b) > maxPooledBuf {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string exactly as encoding/json
// does with its default HTML escaping: printable ASCII except
// ", \, <, > and & passes through; \b, \f, \n, \r, \t use short
// escapes (encoding/json has written \b and \f so since Go 1.22); other
// control bytes (and <, >, &) become \u00xx; invalid UTF-8 becomes
// �; and U+2028/U+2029 are escaped for JS embedding.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendJSONFloat appends f exactly as encoding/json formats a float64:
// shortest representation, fixed notation inside [1e-6, 1e21),
// exponent notation outside it with a single-digit exponent left
// unpadded (e-7, not e-07). NaN and infinities are not representable in
// JSON — encoding/json fails the whole marshal; the model only emits
// finite values on success paths, and the byte-identity tests pin the
// finite behavior — so they encode as null here rather than corrupting
// the payload mid-write.
func appendJSONFloat(dst []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(dst, "null"...)
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9, matching encoding/json.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, "true"...)
	}
	return append(dst, "false"...)
}

// appendSpec appends one sweep.Spec with the field order and omitempty
// behavior of its struct tags.
func appendSpec(dst []byte, s *sweep.Spec) []byte {
	dst = append(dst, '{')
	if s.Op != "" {
		dst = append(dst, `"op":`...)
		dst = appendJSONString(dst, string(s.Op))
		dst = append(dst, ',')
	}
	dst = append(dst, `"n":`...)
	dst = strconv.AppendInt(dst, int64(s.N), 10)
	dst = append(dst, `,"stencil":`...)
	dst = appendJSONString(dst, s.Stencil)
	dst = append(dst, `,"shape":`...)
	dst = appendJSONString(dst, s.Shape)
	dst = append(dst, `,"machine":{"type":`...)
	dst = appendJSONString(dst, s.Machine.Type)
	if s.Machine.Procs != 0 {
		dst = append(dst, `,"procs":`...)
		dst = strconv.AppendInt(dst, int64(s.Machine.Procs), 10)
	}
	if s.Machine.Tflp != 0 {
		dst = append(dst, `,"tflp":`...)
		dst = appendJSONFloat(dst, s.Machine.Tflp)
	}
	if s.Machine.BusCycle != 0 {
		dst = append(dst, `,"b":`...)
		dst = appendJSONFloat(dst, s.Machine.BusCycle)
	}
	if s.Machine.BusOverhead != 0 {
		dst = append(dst, `,"c":`...)
		dst = appendJSONFloat(dst, s.Machine.BusOverhead)
	}
	if s.Machine.Alpha != 0 {
		dst = append(dst, `,"alpha":`...)
		dst = appendJSONFloat(dst, s.Machine.Alpha)
	}
	if s.Machine.Beta != 0 {
		dst = append(dst, `,"beta":`...)
		dst = appendJSONFloat(dst, s.Machine.Beta)
	}
	if s.Machine.PacketWords != 0 {
		dst = append(dst, `,"packet":`...)
		dst = appendJSONFloat(dst, s.Machine.PacketWords)
	}
	if s.Machine.SwitchTime != 0 {
		dst = append(dst, `,"w":`...)
		dst = appendJSONFloat(dst, s.Machine.SwitchTime)
	}
	if s.Machine.ReadsOnly {
		dst = append(dst, `,"reads_only":true`...)
	}
	if s.Machine.ConvHW {
		dst = append(dst, `,"convergence_hardware":true`...)
	}
	dst = append(dst, '}')
	if s.Procs != 0 {
		dst = append(dst, `,"procs":`...)
		dst = strconv.AppendInt(dst, int64(s.Procs), 10)
	}
	if s.Target != 0 {
		dst = append(dst, `,"target":`...)
		dst = appendJSONFloat(dst, s.Target)
	}
	if s.PointsPerProc != 0 {
		dst = append(dst, `,"points_per_proc":`...)
		dst = appendJSONFloat(dst, s.PointsPerProc)
	}
	return append(dst, '}')
}

// appendSweepResult appends the wire form of one evaluated spec — the
// SweepResultJSON shape — straight from the spec and its answer. The
// allocation fields are written only for a positive allocation; a
// scaled op without an error reports its series point instead
// (procs_used, cycle_time, speedup); the error is the answer's wire
// text, so a recovered panic never shows its message.
func appendSweepResult(dst []byte, s *sweep.Spec, a *sweep.Answer) []byte {
	var procs int
	var procsUsed, area, cycleTime, speedup float64
	if a.Alloc.Procs > 0 {
		procs, area, cycleTime, speedup = a.Alloc.Procs, a.Alloc.Area, a.Alloc.CycleTime, a.Alloc.Speedup
	}
	if s.Op == sweep.OpScaled && a.Err == nil {
		procsUsed, cycleTime, speedup = a.Scaled.Procs, a.Scaled.CycleTime, a.Scaled.Speedup
	}
	dst = append(dst, `{"index":`...)
	dst = strconv.AppendInt(dst, int64(a.Index), 10)
	dst = append(dst, `,"spec":`...)
	dst = appendSpec(dst, s)
	dst = append(dst, `,"cache_hit":`...)
	dst = appendBool(dst, a.CacheHit)
	if procs != 0 {
		dst = append(dst, `,"procs":`...)
		dst = strconv.AppendInt(dst, int64(procs), 10)
	}
	if procsUsed != 0 {
		dst = append(dst, `,"procs_used":`...)
		dst = appendJSONFloat(dst, procsUsed)
	}
	if area != 0 {
		dst = append(dst, `,"area":`...)
		dst = appendJSONFloat(dst, area)
	}
	if cycleTime != 0 {
		dst = append(dst, `,"cycle_time":`...)
		dst = appendJSONFloat(dst, cycleTime)
	}
	if speedup != 0 {
		dst = append(dst, `,"speedup":`...)
		dst = appendJSONFloat(dst, speedup)
	}
	if a.Grid != 0 {
		dst = append(dst, `,"grid":`...)
		dst = strconv.AppendInt(dst, int64(a.Grid), 10)
	}
	if a.Value != 0 {
		dst = append(dst, `,"value":`...)
		dst = appendJSONFloat(dst, a.Value)
	}
	if errText := a.ErrText(); errText != "" {
		dst = append(dst, `,"error":`...)
		dst = appendJSONString(dst, errText)
	}
	return append(dst, '}')
}

// appendSweepStats appends one SweepStats object.
func appendSweepStats(dst []byte, st *SweepStats) []byte {
	dst = append(dst, `{"specs":`...)
	dst = strconv.AppendInt(dst, int64(st.Specs), 10)
	dst = append(dst, `,"cache_hits":`...)
	dst = strconv.AppendInt(dst, int64(st.CacheHits), 10)
	dst = append(dst, `,"evaluated":`...)
	dst = strconv.AppendInt(dst, int64(st.Evaluated), 10)
	dst = append(dst, `,"errors":`...)
	dst = strconv.AppendInt(dst, int64(st.Errors), 10)
	return append(dst, '}')
}

// appendStreamResultLine appends one NDJSON result line of
// POST /v2/sweeps/stream — {"result":{...}} plus the newline
// json.Encoder.Encode used to emit.
func appendStreamResultLine(dst []byte, s *sweep.Spec, a *sweep.Answer) []byte {
	dst = append(dst, `{"result":`...)
	dst = appendSweepResult(dst, s, a)
	return append(dst, '}', '\n')
}

// appendStreamDoneLine appends the final NDJSON line —
// {"done":true,"stats":{...}} plus newline.
func appendStreamDoneLine(dst []byte, st *SweepStats) []byte {
	dst = append(dst, `{"done":true,"stats":`...)
	dst = appendSweepStats(dst, st)
	return append(dst, '}', '\n')
}

// sweepBody assembles one v1 /sweep body — {"results":[...],"stats":{...}}
// plus newline — from results that arrive in any order: each result is
// encoded into the arena as its chunk lands, spans records where index
// i's bytes lie, and appendTo copies them out in index order. Engine
// chunks are not index-contiguous (workers claim work from a shared
// cursor), so the spans carry the order. Bodies are pooled.
type sweepBody struct {
	arena []byte
	spans []byteSpan
	stats SweepStats
}

// byteSpan is one result's byte range in the arena; end is 0 until the
// result arrives (an encoded result is never empty).
type byteSpan struct{ start, end int }

var sweepBodyPool = sync.Pool{New: func() any { return new(sweepBody) }}

// getSweepBody returns an empty pooled body for total results.
func getSweepBody(total int) *sweepBody {
	b := sweepBodyPool.Get().(*sweepBody)
	b.reset(total)
	return b
}

// putSweepBody returns b to the pool unless its arena grew past
// maxPooledBuf.
func putSweepBody(b *sweepBody) {
	if cap(b.arena) <= maxPooledBuf {
		sweepBodyPool.Put(b)
	}
}

// reset empties b, keeping its storage, for a sweep of total results.
func (b *sweepBody) reset(total int) {
	if cap(b.spans) < total {
		b.spans = make([]byteSpan, total)
	}
	b.spans = b.spans[:total]
	clear(b.spans)
	b.arena, b.stats = b.arena[:0], SweepStats{}
}

// add encodes results and counts them in the stats. A repeated index
// keeps its first arrival.
func (b *sweepBody) add(results []sweep.Result) {
	for i := range results {
		r := &results[i]
		sp := &b.spans[r.Index]
		if sp.end != 0 {
			continue
		}
		b.stats.observe(&r.Answer)
		sp.start = len(b.arena)
		b.arena = appendSweepResult(b.arena, &r.Spec, &r.Answer)
		sp.end = len(b.arena)
	}
}

// complete reports whether every index has arrived.
func (b *sweepBody) complete() bool { return b.stats.Specs == len(b.spans) }

// appendTo appends the body, results in index order; it is meant for a
// complete body (a missing result would leave an empty element).
func (b *sweepBody) appendTo(dst []byte) []byte {
	dst = slices.Grow(dst, len(b.arena)+len(b.spans)+128)
	dst = append(dst, `{"results":[`...)
	for i, sp := range b.spans {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, b.arena[sp.start:sp.end]...)
	}
	dst = append(dst, `],"stats":`...)
	dst = appendSweepStats(dst, &b.stats)
	return append(dst, '}', '\n')
}

// appendJobResultsPage appends the full GET /v2/jobs/{id}/results body
// — the JobResultsResponse shape — straight from a zero-copy slab page
// of answers, naming each answer's spec from the job's request.
func appendJobResultsPage(dst []byte, jobID, state string, work sweep.Batch, answers []sweep.Answer, nextCursor int, done bool) []byte {
	dst = append(dst, `{"job_id":`...)
	dst = appendJSONString(dst, jobID)
	dst = append(dst, `,"state":`...)
	dst = appendJSONString(dst, state)
	dst = append(dst, `,"results":[`...)
	for i := range answers {
		if i > 0 {
			dst = append(dst, ',')
		}
		spec := work.At(answers[i].Index)
		dst = appendSweepResult(dst, &spec, &answers[i])
	}
	dst = append(dst, `],"next_cursor":"`...)
	dst = strconv.AppendInt(dst, int64(nextCursor), 10)
	dst = append(dst, `","done":`...)
	dst = appendBool(dst, done)
	return append(dst, '}', '\n')
}
