package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"optspeed/internal/core"
	"optspeed/internal/dispatch"
	"optspeed/internal/sweep"
)

// decodeAnswerRecord reads the one answer record rec holds.
func decodeAnswerRecord(t *testing.T, rec []byte) sweep.Answer {
	t.Helper()
	var a sweep.Answer
	br := bufio.NewReader(bytes.NewReader(rec))
	if done, err := dispatch.ReadAnswerRecord(br, &a); err != nil || done {
		t.Fatalf("record % x: done=%v err=%v", rec, done, err)
	}
	if _, err := br.ReadByte(); err == nil {
		t.Fatalf("record % x: trailing bytes", rec)
	}
	return a
}

// TestAnswerRecordWireShapes crosses one result of every wire shape as
// an answer record: the coordinator's NDJSON line for the decoded
// answer must equal the peer's own line for the same result.
func TestAnswerRecordWireShapes(t *testing.T) {
	eng := sweep.New(sweep.Options{})
	one := func(b sweep.Batch, i int) sweep.Result {
		ch, _, err := eng.Open(context.Background(), b)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := eng.Collect(context.Background(), ch, b)
		if err != nil {
			t.Fatal(err)
		}
		return rs[i]
	}
	machine := []core.MachineSpec{{Type: "hypercube"}}
	cases := []struct {
		name, key string // key is a field the peer's line must carry
		res       sweep.Result
	}{
		{"optimize allocation", `"area":`, one(sweep.Batch{Specs: []sweep.Spec{{N: 256, Stencil: "5-point",
			Shape: "square", Machine: core.MachineSpec{Type: "sync-bus"}}}}, 0)},
		{"batched speedup value", `"value":`, one(sweep.Batch{Space: &sweep.Space{Op: sweep.OpSpeedup, Ns: []int{64},
			Stencils: []string{"9-point"}, Shapes: []string{"strip"}, Machines: machine, Procs: []int{2, 4, 8}}}, 2)},
		{"scaled point", `"procs_used":`, one(sweep.Batch{Space: &sweep.Space{Op: sweep.OpScaled, Ns: []int{32, 64},
			Stencils: []string{"5-point"}, Shapes: []string{"square"}, Machines: machine, PointsPerProc: 64}}, 1)},
		{"grid search grid", `"grid":`, one(sweep.Batch{Specs: []sweep.Spec{{Op: sweep.OpMinGrid, Stencil: "5-point",
			Shape: "strip", Machine: core.MachineSpec{Type: "banyan"}, Procs: 16}}}, 0)},
		{"per-spec error", `"error":"sweep: unknown stencil`, one(sweep.Batch{Specs: []sweep.Spec{{N: 32, Stencil: "bogus", Shape: "square",
			Machine: core.MachineSpec{Type: "sync-bus"}}}}, 0)},
		{"recovered panic", `"error":"internal evaluation error"`, sweep.Result{Spec: sweep.Spec{N: 96, Stencil: "5-point", Shape: "strip",
			Machine: core.MachineSpec{Type: "banyan"}},
			Answer: sweep.Answer{Index: 7, CacheHit: true, Err: fmt.Errorf("%w: secret boom", sweep.ErrEvaluationPanic)}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := appendStreamResultLine(nil, &tc.res.Spec, &tc.res.Answer)
			if !bytes.Contains(want, []byte(tc.key)) {
				t.Fatalf("peer line %s lacks %s", want, tc.key)
			}
			rec := dispatch.AppendAnswerRecord(nil, &tc.res.Answer)
			if bytes.Contains(rec, []byte("secret")) {
				t.Fatalf("panic text crossed the wire: % x", rec)
			}
			coord := decodeAnswerRecord(t, rec)
			if got := appendStreamResultLine(nil, &tc.res.Spec, &coord); !bytes.Equal(got, want) {
				t.Fatalf("coordinator line diverges:\n got  %s\n want %s", got, want)
			}
		})
	}
}

// TestSweepStreamAnswers streams one body as answer records from a cold
// server and as NDJSON from another: every record must re-encode to the
// NDJSON line of its index, and the stream must end in one done record.
func TestSweepStreamAnswers(t *testing.T) {
	body := `{"space":{"ns":[16,32],"stencils":["5-point","bogus"],"shapes":["strip","square"],` +
		`"machines":[{"type":"sync-bus"},{"type":"mesh"}]}}`
	var sp sweep.Space
	if err := json.Unmarshal([]byte(body[len(`{"space":`):len(body)-1]), &sp); err != nil {
		t.Fatal(err)
	}
	lines := make(map[int][]byte)
	_, ndjson := newTestServerWith(t, Config{})
	_, raw := doJSON(t, http.MethodPost, ndjson.URL+"/v2/sweeps/stream", body)
	for _, line := range bytes.SplitAfter(raw, []byte("\n")) {
		var l StreamLine
		if json.Unmarshal(line, &l) == nil && l.Result != nil {
			lines[l.Result.Index] = line
		}
	}

	_, ts := newTestServerWith(t, Config{})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v2/sweeps/stream", strings.NewReader(body))
	req.Header.Set(dispatch.StreamFormatHeader, dispatch.StreamFormatAnswers)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != dispatch.AnswersContentType {
		t.Fatalf("answers stream: status %d, content type %q", resp.StatusCode, ct)
	}
	br := bufio.NewReader(resp.Body)
	seen := 0
	for {
		var a sweep.Answer
		done, err := dispatch.ReadAnswerRecord(br, &a)
		if err != nil {
			t.Fatalf("after %d records: %v", seen, err)
		}
		if done {
			break
		}
		seen++
		spec := sp.At(a.Index)
		if got := appendStreamResultLine(nil, &spec, &a); !bytes.Equal(got, lines[a.Index]) {
			t.Fatalf("record %d re-encodes to\n %s\nwant\n %s", a.Index, got, lines[a.Index])
		}
	}
	if _, err := br.ReadByte(); seen != sp.Size() || len(lines) != seen || err == nil {
		t.Fatalf("%d records and %d lines for %d specs, trailing read %v", seen, len(lines), sp.Size(), err)
	}
}
