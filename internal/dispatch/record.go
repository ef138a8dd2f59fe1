package dispatch

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"optspeed/internal/sweep"
)

// The answer-record stream is the peer protocol: POST /v2/sweeps/stream
// with "X-Stream-Format: answers" answers in application/x-optspeed-answers,
// a sequence of little-endian records ending in one done record. A
// record carries an answer's float64 bits and no spec — the coordinator
// planned the shard and names each spec from its plan — so a peer never
// formats a float and the coordinator never parses one.
//
// Every record opens with an 8-byte header:
//
//	0  u8   tag: 'A' answer, 'D' done
//	1  u8   flags: bit 0 cache hit; other bits zero
//	2  u16  reserved, zero
//	4  u32  error text length E (answer records only; at most 1 MiB)
//
// An answer record goes on with 80 bytes, then E bytes of error text:
//
//	8   i64  index (shard-local: the peer sees the shard as a sweep)
//	16  i64  Alloc.Procs
//	24  f64  Alloc.Area
//	32  f64  Alloc.CycleTime
//	40  f64  Alloc.Speedup
//	48  f64  Scaled.Procs
//	56  f64  Scaled.CycleTime
//	64  f64  Scaled.Speedup
//	72  f64  Value
//	80  i64  Grid
//
// A done record is the header alone, with flags and length zero.
const (
	// StreamFormatHeader selects the stream's encoding; the answers
	// format is StreamFormatAnswers, anything else is NDJSON.
	StreamFormatHeader  = "X-Stream-Format"
	StreamFormatAnswers = "answers"
	// AnswersContentType marks an answer-record response. A worker that
	// ignores StreamFormatHeader answers in NDJSON under another type.
	AnswersContentType = "application/x-optspeed-answers"
)

const (
	tagAnswer     = 'A'
	tagDone       = 'D'
	flagCacheHit  = 1
	headerSize    = 8
	answerSize    = headerSize + 80
	maxErrorBytes = 1 << 20
)

// AppendAnswerRecord appends a's answer record to dst. The error
// crosses as its wire text, so a recovered panic arrives masked.
func AppendAnswerRecord(dst []byte, a *sweep.Answer) []byte {
	errText := a.ErrText()
	var flags byte
	if a.CacheHit {
		flags = flagCacheHit
	}
	le := binary.LittleEndian
	dst = append(dst, tagAnswer, flags, 0, 0)
	dst = le.AppendUint32(dst, uint32(len(errText)))
	dst = le.AppendUint64(dst, uint64(a.Index))
	dst = le.AppendUint64(dst, uint64(a.Alloc.Procs))
	for _, f := range [...]float64{a.Alloc.Area, a.Alloc.CycleTime, a.Alloc.Speedup,
		a.Scaled.Procs, a.Scaled.CycleTime, a.Scaled.Speedup, a.Value} {
		dst = le.AppendUint64(dst, math.Float64bits(f))
	}
	dst = le.AppendUint64(dst, uint64(a.Grid))
	return append(dst, errText...)
}

// AppendDoneRecord appends the stream's closing record.
func AppendDoneRecord(dst []byte) []byte {
	return append(dst, tagDone, 0, 0, 0, 0, 0, 0, 0)
}

// ReadAnswerRecord reads one record from br: an answer record fills a
// and reports done=false, the done record reports done=true. A clean
// end before the done record is io.EOF; any other framing fault — an
// unknown tag, stray flag or reserved bits, a short record, an
// oversized error text — is an error, and a is then unspecified. Only
// an error answer allocates, for its text. br's buffer must hold a
// whole fixed record (the default 4 KB does).
func ReadAnswerRecord(br *bufio.Reader, a *sweep.Answer) (done bool, err error) {
	h, err := br.Peek(headerSize)
	if err != nil {
		if err == io.EOF && len(h) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return false, err
	}
	le := binary.LittleEndian
	flags, reserved, errLen := h[1], le.Uint16(h[2:]), le.Uint32(h[4:])
	switch {
	case h[0] == tagDone && (flags != 0 || reserved != 0 || errLen != 0):
		return false, fmt.Errorf("dispatch: done record header % x has stray bits", h)
	case h[0] == tagDone:
		_, err = br.Discard(headerSize)
		return true, err
	case h[0] != tagAnswer:
		return false, fmt.Errorf("dispatch: unknown record tag %#02x", h[0])
	case flags&^flagCacheHit != 0 || reserved != 0:
		return false, fmt.Errorf("dispatch: answer record header % x has stray bits", h)
	case errLen > maxErrorBytes:
		return false, fmt.Errorf("dispatch: answer error text of %d bytes exceeds %d", errLen, maxErrorBytes)
	}
	b, err := br.Peek(answerSize)
	if err != nil {
		return false, shortRecord(err)
	}
	f := func(off int) float64 { return math.Float64frombits(le.Uint64(b[off:])) }
	*a = sweep.Answer{
		Index:    int(le.Uint64(b[8:])),
		CacheHit: flags&flagCacheHit != 0,
		Alloc: sweep.Alloc{
			Procs:     int(le.Uint64(b[16:])),
			Area:      f(24),
			CycleTime: f(32),
			Speedup:   f(40),
		},
		Value: f(72),
		Grid:  int(le.Uint64(b[80:])),
	}
	a.Scaled.Procs, a.Scaled.CycleTime, a.Scaled.Speedup = f(48), f(56), f(64)
	if _, err := br.Discard(answerSize); err != nil {
		return false, err
	}
	if errLen > 0 {
		text := make([]byte, errLen)
		if _, err := io.ReadFull(br, text); err != nil {
			return false, shortRecord(err)
		}
		a.Err = errors.New(string(text))
	}
	return false, nil
}

// shortRecord names a record cut off by the end of the stream.
func shortRecord(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("dispatch: short answer record: %w", io.ErrUnexpectedEOF)
	}
	return err
}
