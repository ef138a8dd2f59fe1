package dispatch

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"optspeed/internal/core"
	"optspeed/internal/sweep"
)

// wireView is the part of an answer a record carries, minus the error,
// which crosses as its text (compare ErrText).
func wireView(a sweep.Answer) sweep.Answer {
	return sweep.Answer{
		Index: a.Index, CacheHit: a.CacheHit, Value: a.Value, Grid: a.Grid,
		Alloc:  sweep.Alloc{Procs: a.Alloc.Procs, Area: a.Alloc.Area, CycleTime: a.Alloc.CycleTime, Speedup: a.Alloc.Speedup},
		Scaled: core.ScaledPoint{Procs: a.Scaled.Procs, CycleTime: a.Scaled.CycleTime, Speedup: a.Scaled.Speedup},
	}
}

func sameAnswer(got, want sweep.Answer) bool {
	return wireView(got) == wireView(want) && got.ErrText() == want.ErrText()
}

// randomAnswer draws an answer over every record field, including the
// ones a record drops (UsedAll, Scaled.N) and every error kind.
func randomAnswer(r *rand.Rand) sweep.Answer {
	f := func() float64 {
		return [...]float64{0, math.Copysign(0, -1), 1, -2.5, 1e-300, 3.5e21, math.Inf(1),
			math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64, r.NormFloat64() * 1e6}[r.IntN(11)]
	}
	i := func() int { return [...]int{0, 1, -1, math.MaxInt, math.MinInt, r.IntN(1 << 20)}[r.IntN(6)] }
	errs := []error{nil, nil, errors.New(`sweep: unknown stencil "bogus"`), errors.New("line\nbreak \xff"),
		fmt.Errorf("%w: boom", sweep.ErrEvaluationPanic), errors.New(strings.Repeat("x", 5000))}
	return sweep.Answer{
		Index: r.IntN(1 << 16), CacheHit: r.IntN(2) == 0, Value: f(), Grid: i(),
		Alloc:  sweep.Alloc{Procs: i(), Area: f(), CycleTime: f(), Speedup: f(), UsedAll: r.IntN(2) == 0, ContinuousArea: f()},
		Scaled: core.ScaledPoint{N: i(), Procs: f(), CycleTime: f(), Speedup: f()},
		Err:    errs[r.IntN(len(errs))],
	}
}

// stream encodes answers followed by the done record.
func stream(answers []sweep.Answer) []byte {
	var b []byte
	for i := range answers {
		b = AppendAnswerRecord(b, &answers[i])
	}
	return AppendDoneRecord(b)
}

// readAll decodes b to its done record or first error.
func readAll(b []byte) (got []sweep.Answer, done bool, err error) {
	br := bufio.NewReaderSize(bytes.NewReader(b), 4096)
	for {
		var a sweep.Answer
		if done, err = ReadAnswerRecord(br, &a); err != nil || done {
			return got, done, err
		}
		got = append(got, a)
	}
}

// TestAnswerRecordRoundTrip decodes randomized streams back to their
// answers, record for record.
func TestAnswerRecordRoundTrip(t *testing.T) {
	r := rand.New(rand.NewPCG(27, 1))
	for iter := range 300 {
		want := make([]sweep.Answer, r.IntN(40))
		for i := range want {
			want[i] = randomAnswer(r)
		}
		got, done, err := readAll(stream(want))
		if err != nil || !done || len(got) != len(want) {
			t.Fatalf("stream %d: %d of %d answers, done=%v, err=%v", iter, len(got), len(want), done, err)
		}
		for i := range want {
			if !sameAnswer(got[i], want[i]) {
				t.Fatalf("stream %d answer %d:\n got  %+v\n want %+v", iter, i, got[i], want[i])
			}
		}
	}
}

// TestAnswerRecordCorruption cuts a valid stream at every byte and
// rewrites every record's tag to every other byte value. Each decode
// must yield a prefix of the original answers; only the whole stream
// ends in its done record without error, except where a tag turned
// into the done tag, which ends early and leaves the coordinator's
// index-coverage check to fail the attempt.
func TestAnswerRecordCorruption(t *testing.T) {
	want := []sweep.Answer{
		{Index: 0, Alloc: sweep.Alloc{Procs: 14, Area: 4681.142857142857, CycleTime: 3.1e-3, Speedup: 9.5}},
		{Index: 1, CacheHit: true, Value: 3.25},
		{Index: 2, Err: errors.New(`sweep: unknown stencil "bogus"`)},
		{Index: 3, Scaled: core.ScaledPoint{Procs: 16.25, CycleTime: 1e-21, Speedup: 1e21}},
		{Index: 4, Grid: 96, Value: 7},
	}
	base := stream(want)
	check := func(what string, b []byte, earlyDone bool) {
		t.Helper()
		got, done, err := readAll(b)
		for i := range got {
			if i >= len(want) || !sameAnswer(got[i], want[i]) {
				t.Fatalf("%s: answer %d decoded as %+v", what, i, got[i])
			}
		}
		if done && err == nil && len(got) < len(want) && !earlyDone {
			t.Fatalf("%s: done after %d of %d answers", what, len(got), len(want))
		}
	}
	for i := 0; i < len(base); i++ {
		if _, done, err := readAll(base[:i]); done || err == nil {
			t.Fatalf("stream cut at %d of %d: done=%v err=%v", i, len(base), done, err)
		}
		check(fmt.Sprintf("cut at %d", i), base[:i], false)
	}
	var starts []int
	for off := 0; off < len(base); {
		starts = append(starts, off)
		if base[off] == tagDone {
			break
		}
		off += answerSize + int(binary.LittleEndian.Uint32(base[off+4:]))
	}
	if len(starts) != len(want)+1 {
		t.Fatalf("found %d record starts, want %d", len(starts), len(want)+1)
	}
	for _, off := range starts {
		for v := range 256 {
			if byte(v) == base[off] {
				continue
			}
			mut := bytes.Clone(base)
			mut[off] = byte(v)
			check(fmt.Sprintf("tag at %d set to %#02x", off, v), mut, v == tagDone)
		}
	}
}

// TestAnswerRecordFraming pins each framing fault's error.
func TestAnswerRecordFraming(t *testing.T) {
	one := AppendAnswerRecord(nil, &sweep.Answer{Index: 3, Value: 2})
	header := func(b0, b1, b2 byte, errLen uint32) []byte {
		return binary.LittleEndian.AppendUint32([]byte{b0, b1, b2, 0}, errLen)
	}
	for name, b := range map[string][]byte{
		"unknown tag":        append([]byte{'{'}, one[1:]...),
		"stray flag":         append(header(tagAnswer, 2, 0, 0), one[headerSize:]...),
		"reserved bits":      append(header(tagAnswer, 0, 1, 0), one[headerSize:]...),
		"done with a length": header(tagDone, 0, 0, 1),
		"short header":       one[:5],
		"short record":       one[:answerSize-1],
		"short error text":   append(header(tagAnswer, 0, 0, 9), append(one[headerSize:], "abc"...)...),
		"error above 1 MiB":  append(header(tagAnswer, 0, 0, maxErrorBytes+1), one[headerSize:]...),
	} {
		if got, done, err := readAll(b); err == nil || err == io.EOF || done || len(got) != 0 {
			t.Errorf("%s: %d answers, done=%v, err=%v", name, len(got), done, err)
		}
	}
	if _, done, err := readAll(nil); done || err != io.EOF {
		t.Errorf("empty stream: done=%v err=%v, want io.EOF", done, err)
	}
	limit := strings.Repeat("e", maxErrorBytes)
	got, done, err := readAll(stream([]sweep.Answer{{Err: errors.New(limit)}}))
	if err != nil || !done || len(got) != 1 || got[0].ErrText() != limit {
		t.Errorf("1 MiB error text: %d answers, done=%v, err=%v", len(got), done, err)
	}
}

// TestFetchShardFraming serves fetchShard crafted replies: each framing
// fault fails the attempt and keeps the answers that came before it.
func TestFetchShardFraming(t *testing.T) {
	specs := make([]sweep.Spec, 4)
	for i := range specs {
		specs[i] = sweep.Spec{N: 16 + i, Stencil: "5-point", Shape: "square", Machine: core.MachineSpec{Type: "sync-bus"}}
	}
	sh := shard{start: 8, size: len(specs), work: Request{Specs: specs}}
	rec := func(local int) []byte {
		return AppendAnswerRecord(nil, &sweep.Answer{Index: local, Value: float64(local)})
	}
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	all := join(rec(0), rec(1), rec(2), rec(3))
	cases := []struct {
		name, ctype string
		body        []byte
		ok          bool
		kept        int
	}{
		{"complete", AnswersContentType, AppendDoneRecord(bytes.Clone(all)), true, 4},
		{"duplicates dropped", AnswersContentType, join(rec(0), rec(0), all, AppendDoneRecord(nil)), true, 4},
		{"old worker", "application/x-ndjson", AppendDoneRecord(bytes.Clone(all)), false, 0},
		{"unknown tag", AnswersContentType, join(rec(0), []byte("{chaos-garbage\n"), rec(1)), false, 1},
		{"short record", AnswersContentType, join(rec(0), rec(1)[:40]), false, 1},
		{"oversized error", AnswersContentType, join(rec(0), []byte{tagAnswer, 0, 0, 0, 1, 0, 0x10, 0}), false, 1},
		{"index outside shard", AnswersContentType, join(rec(0), rec(4), rec(1)), false, 1},
		{"eof before done", AnswersContentType, all, false, 4},
		{"done with gaps", AnswersContentType, join(rec(0), rec(2), AppendDoneRecord(nil)), false, 2},
	}
	d := New(Options{Engine: sweep.New(sweep.Options{})})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Header.Get(StreamFormatHeader) != StreamFormatAnswers || r.Header.Get("X-Stream-Flush") != "" {
					t.Errorf("shard request headers %v", r.Header)
				}
				w.Header().Set("Content-Type", tc.ctype)
				w.Write(tc.body)
			}))
			defer ts.Close()
			acc := newShardAccumulator(sh)
			err := d.fetchShard(context.Background(), d.newPeerState(ts.URL), sh, acc)
			if (err == nil) != tc.ok || sh.size-acc.missing() != tc.kept {
				t.Fatalf("err %v, kept %d answers; want ok=%v, %d kept", err, sh.size-acc.missing(), tc.ok, tc.kept)
			}
			for local, r := range acc.results {
				if acc.seen[local] && (r.Index != sh.start+local || r.Spec != specs[local] || r.Value != float64(local)) {
					t.Fatalf("accepted %d as %+v", local, r)
				}
			}
		})
	}
}

// BenchmarkDecodeAnswerRecord times one optimize answer's decode, the
// per-result cost a coordinator pays to gather a shard.
func BenchmarkDecodeAnswerRecord(b *testing.B) {
	const n = 1024
	var buf []byte
	for i := range n {
		buf = AppendAnswerRecord(buf, &sweep.Answer{Index: i, Alloc: sweep.Alloc{Procs: 1024, Area: 256,
			CycleTime: 1.234e-5, Speedup: 812.345}, Value: 812.345})
	}
	src := bytes.NewReader(buf)
	br := bufio.NewReaderSize(src, 4096)
	var a sweep.Answer
	b.ReportAllocs()
	b.SetBytes(answerSize)
	for i := 0; i < b.N; i++ {
		if i%n == 0 {
			src.Reset(buf)
			br.Reset(src)
		}
		if _, err := ReadAnswerRecord(br, &a); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzAnswerRecord decodes arbitrary bytes: it must never panic, and
// every record it decodes must re-encode to the bytes it was read from.
func FuzzAnswerRecord(f *testing.F) {
	r := rand.New(rand.NewPCG(5, 5))
	for range 4 {
		answers := make([]sweep.Answer, 1+r.IntN(3))
		for i := range answers {
			answers[i] = randomAnswer(r)
		}
		f.Add(stream(answers))
	}
	f.Add([]byte("{\"result\":{}}\n"))
	f.Add(AppendDoneRecord(nil)[:5])
	f.Fuzz(func(t *testing.T, data []byte) {
		src := bytes.NewReader(data)
		br := bufio.NewReaderSize(src, 4096)
		consumed := func() int { return len(data) - src.Len() - br.Buffered() }
		for pos := 0; ; {
			var a sweep.Answer
			done, err := ReadAnswerRecord(br, &a)
			if err != nil {
				return
			}
			next := consumed()
			want := AppendDoneRecord(nil)
			if !done {
				want = AppendAnswerRecord(nil, &a)
			}
			if !bytes.Equal(data[pos:next], want) {
				t.Fatalf("record % x re-encodes to % x", data[pos:next], want)
			}
			if done {
				return
			}
			pos = next
		}
	})
}
