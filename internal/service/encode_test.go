package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"testing"

	"optspeed/internal/core"
	"optspeed/internal/sweep"
)

// encodeJSONLine marshals v exactly the way the handlers used to —
// json.Encoder with default HTML escaping, newline-terminated — the
// reference output every AppendJSON encoder is held to.
func encodeJSONLine(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// trickyStrings exercise every escaping branch of appendJSONString:
// quotes, backslashes, short escapes, generic control bytes, the HTML
// set, multibyte runes, the JS line separators, and invalid UTF-8.
var trickyStrings = []string{
	"",
	"plain",
	`quote " and backslash \`,
	"newline\ntab\tcr\r",
	"control \x01 \x1f \x00 bytes",
	"html <b> & </b> escapes",
	"unicode é ☃ 日本語",
	"line sep \u2028 and \u2029 end",
	"invalid \xff utf8 \xc3\x28 tail",
	"del \x7f survives",
	`sweep: unknown stencil "bogus"`,
}

// trickyFloats exercise the float formatter's branches: fixed vs
// exponent notation, the 1e-6 / 1e21 thresholds, exponent zero
// trimming, negatives, and denormals.
var trickyFloats = []float64{
	0, 1, -1, 0.5, -0.25, 1.0 / 3.0,
	1e-6, 9.9e-7, 1e-7, 1e20, 1e21, 9.999999e20, 1e22, -1e22,
	123456.789, 3.141592653589793, 2.718281828459045e-10,
	math.SmallestNonzeroFloat64, math.MaxFloat64,
	42, 1024, 0.1,
}

func TestAppendJSONStringMatchesEncodingJSON(t *testing.T) {
	for _, s := range trickyStrings {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		got := appendJSONString(nil, s)
		if !bytes.Equal(got, want) {
			t.Errorf("appendJSONString(%q) = %s, encoding/json says %s", s, got, want)
		}
	}
}

func TestAppendJSONFloatMatchesEncodingJSON(t *testing.T) {
	for _, f := range trickyFloats {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		got := appendJSONFloat(nil, f)
		if !bytes.Equal(got, want) {
			t.Errorf("appendJSONFloat(%v) = %s, encoding/json says %s", f, got, want)
		}
	}
}

// wireResults is a corpus of wire results covering every op shape the
// service emits: optimize allocations, scalar speedups, grid searches,
// scaled points, cache hits, spec errors, and machines with every
// override field set.
func wireResults() []SweepResultJSON {
	fullMachine := core.MachineSpec{
		Type: "mesh", Procs: 4096, Tflp: 1e-7, BusCycle: 2.5e-7, BusOverhead: 1e-8,
		Alpha: 1.5e-6, Beta: 4e-9, PacketWords: 8, SwitchTime: 5e-8,
		ReadsOnly: true, ConvHW: true,
	}
	return []SweepResultJSON{
		{Index: 0, Spec: sweep.Spec{N: 512, Stencil: "5-point", Shape: "square",
			Machine: core.MachineSpec{Type: "sync-bus"}},
			Procs: 37, Area: 1234.5678, CycleTime: 3.25e-5, Speedup: 21.7},
		{Index: 1, Spec: sweep.Spec{Op: sweep.OpSpeedup, N: 256, Stencil: "9-point", Shape: "strip",
			Machine: fullMachine, Procs: 64},
			CacheHit: true, Value: 55.5},
		{Index: 2, Spec: sweep.Spec{Op: sweep.OpMinGrid, Stencil: "5-point", Shape: "strip",
			Machine: core.MachineSpec{Type: "banyan"}, Procs: 128},
			Grid: 96},
		{Index: 3, Spec: sweep.Spec{Op: sweep.OpIsoeffGrid, N: 16, Stencil: "13-point", Shape: "square",
			Machine: core.MachineSpec{Type: "hypercube"}, Procs: 32, Target: 0.75},
			Grid: 40, Value: 7},
		{Index: 4, Spec: sweep.Spec{Op: sweep.OpScaled, N: 1024, Stencil: "9-star", Shape: "square",
			Machine: core.MachineSpec{Type: "async-bus"}, PointsPerProc: 64.5},
			ProcsUsed: 16.25, CycleTime: 1e-21, Speedup: 1e21},
		{Index: 5, Spec: sweep.Spec{N: 128, Stencil: "bogus", Shape: "square",
			Machine: core.MachineSpec{Type: "sync-bus"}},
			Error: `sweep: unknown stencil "bogus"`},
		{Index: 6, Spec: sweep.Spec{N: -3, Stencil: "<&>", Shape: "\n",
			Machine: core.MachineSpec{Type: "full-async-bus", Tflp: -2.5}},
			Value: -1e-9, Error: "weird \x01 error \xff"},
		{Index: 7, Spec: sweep.Spec{Op: sweep.OpAmdahl, N: 256, Stencil: "5-point", Shape: "square",
			Machine: core.MachineSpec{Type: "sync-bus"}, Procs: 16},
			Value: 9.876543},
		{Index: 8, Spec: sweep.Spec{Op: sweep.OpGustafson, N: 256, Stencil: "9-star", Shape: "strip",
			Machine: core.MachineSpec{Type: "mesh"}, Procs: 64},
			CacheHit: true, Value: 61.25},
		{Index: 9, Spec: sweep.Spec{Op: sweep.OpCriticalPath, N: 512, Stencil: "13-point", Shape: "square",
			Machine: core.MachineSpec{Type: "banyan", Procs: 256}, Procs: 1024},
			Value: 333.125},
	}
}

func TestAppendSweepResultMatchesEncodingJSON(t *testing.T) {
	for i, jr := range wireResults() {
		want, err := json.Marshal(jr)
		if err != nil {
			t.Fatal(err)
		}
		got := appendSweepResult(nil, &jr)
		if !bytes.Equal(got, want) {
			t.Errorf("result %d:\n got: %s\nwant: %s", i, got, want)
		}
	}
}

func TestAppendStreamLinesMatchEncodingJSON(t *testing.T) {
	for i, jr := range wireResults() {
		jr := jr
		want := encodeJSONLine(t, StreamLine{Result: &jr})
		got := appendStreamResultLine(nil, &jr)
		if !bytes.Equal(got, want) {
			t.Errorf("result line %d:\n got: %s\nwant: %s", i, got, want)
		}
	}
	st := &SweepStats{Specs: 12, CacheHits: 3, Evaluated: 8, Errors: 1}
	want := encodeJSONLine(t, StreamLine{Done: true, Stats: st})
	got := appendStreamDoneLine(nil, st)
	if !bytes.Equal(got, want) {
		t.Errorf("done line:\n got: %s\nwant: %s", got, want)
	}
}

// engineResults builds raw engine results whose wire conversion covers
// the allocation, scaled, grid, and error payloads, including the
// panic-redaction path.
func engineResults() []sweep.Result {
	return []sweep.Result{
		{Spec: sweep.Spec{N: 64, Stencil: "5-point", Shape: "strip",
			Machine: core.MachineSpec{Type: "sync-bus"}},
			Answer: sweep.Answer{Index: 0, Alloc: sweep.Alloc{Procs: 9, Area: 455.11,
				CycleTime: 4.25e-6, Speedup: 8.31}, Value: 8.31}},
		{Spec: sweep.Spec{Op: sweep.OpSpeedup, N: 128, Stencil: "9-point", Shape: "square",
			Machine: core.MachineSpec{Type: "mesh"}, Procs: 16},
			Answer: sweep.Answer{Index: 1, CacheHit: true, Value: 14.9}},
		{Spec: sweep.Spec{Op: sweep.OpScaled, N: 512, Stencil: "5-point", Shape: "square",
			Machine: core.MachineSpec{Type: "hypercube"}, PointsPerProc: 32},
			Answer: sweep.Answer{Index: 2,
				Scaled: core.ScaledPoint{Procs: 8192.5, CycleTime: 2e-7, Speedup: 1.25e3}, Value: 1.25e3}},
		{Spec: sweep.Spec{N: 32, Stencil: "nope", Shape: "square",
			Machine: core.MachineSpec{Type: "sync-bus"}},
			Answer: sweep.Answer{Index: 3, Err: errors.New(`sweep: unknown stencil "nope"`)}},
		{Spec: sweep.Spec{N: 96, Stencil: "5-point", Shape: "strip",
			Machine: core.MachineSpec{Type: "banyan"}},
			Answer: sweep.Answer{Index: 4, Err: fmt.Errorf("%w: boom", sweep.ErrEvaluationPanic)}},
	}
}

// engineAnswers splits engineResults into the request a job keeps and
// the answers its slabs hold, in reverse (completion) order.
func engineAnswers() (sweep.Batch, []sweep.Answer) {
	results := engineResults()
	work := sweep.Batch{Specs: make([]sweep.Spec, len(results))}
	answers := make([]sweep.Answer, len(results))
	for i, r := range results {
		work.Specs[r.Index] = r.Spec
		answers[len(results)-1-i] = r.Answer
	}
	return work, answers
}

func TestAppendSweepResponseMatchesEncodingJSON(t *testing.T) {
	results := engineResults()
	var stats SweepStats
	resp := SweepResponse{Results: make([]SweepResultJSON, len(results))}
	for i := range results {
		stats.observe(&results[i])
		resp.Results[i] = sweepResultJSON(results[i])
	}
	resp.Stats = stats
	want := encodeJSONLine(t, resp)
	got := appendSweepResponse(nil, results, &stats)
	if !bytes.Equal(got, want) {
		t.Errorf("sweep response:\n got: %s\nwant: %s", got, want)
	}
	// The empty sweep still encodes a non-nil results array.
	empty := SweepResponse{Results: []SweepResultJSON{}}
	want = encodeJSONLine(t, empty)
	got = appendSweepResponse(nil, nil, &SweepStats{})
	if !bytes.Equal(got, want) {
		t.Errorf("empty sweep response:\n got: %s\nwant: %s", got, want)
	}
}

func TestAppendJobResultsPageMatchesEncodingJSON(t *testing.T) {
	work, answers := engineAnswers()
	resp := JobResultsResponse{
		JobID:      "a1b2c3d4e5f60718",
		State:      "running",
		Results:    make([]SweepResultJSON, len(answers)),
		NextCursor: "261",
		Done:       false,
	}
	for i, a := range answers {
		resp.Results[i] = sweepResultJSON(sweep.Result{Spec: work.At(a.Index), Answer: a})
	}
	want := encodeJSONLine(t, resp)
	got := appendJobResultsPage(nil, "a1b2c3d4e5f60718", "running", work, answers, 261, false)
	if !bytes.Equal(got, want) {
		t.Errorf("results page:\n got: %s\nwant: %s", got, want)
	}
	// Empty terminal page.
	want = encodeJSONLine(t, JobResultsResponse{
		JobID: "x", State: "succeeded", Results: []SweepResultJSON{}, NextCursor: "0", Done: true,
	})
	got = appendJobResultsPage(nil, "x", "succeeded", sweep.Batch{}, nil, 0, true)
	if !bytes.Equal(got, want) {
		t.Errorf("empty page:\n got: %s\nwant: %s", got, want)
	}
}

// TestWireEncoderAllocBudget pins the serving path's allocation story:
// encoding results into a pre-grown buffer allocates nothing per
// result (the one allocation the ≤1-per-result budget allows is the
// pooled buffer itself, amortized across a whole chunk or page).
func TestWireEncoderAllocBudget(t *testing.T) {
	results := engineResults()
	buf := make([]byte, 0, 1<<16)
	var stats SweepStats
	for i := range results {
		stats.observe(&results[i])
	}
	allocs := testing.AllocsPerRun(200, func() {
		buf = appendSweepResponse(buf[:0], results, &stats)
	})
	if allocs > 0 {
		t.Fatalf("appendSweepResponse allocates %.1f/op over %d results, budget is 0", allocs, len(results))
	}
	work, answers := engineAnswers()
	allocs = testing.AllocsPerRun(200, func() {
		buf = appendJobResultsPage(buf[:0], "a1b2c3d4e5f60718", "running", work, answers, 5, false)
	})
	if allocs > 0 {
		t.Fatalf("appendJobResultsPage allocates %.1f/op, budget is 0", allocs)
	}
	jr := sweepResultJSON(results[0])
	allocs = testing.AllocsPerRun(200, func() {
		buf = appendStreamResultLine(buf[:0], &jr)
	})
	if allocs > 0 {
		t.Fatalf("appendStreamResultLine allocates %.1f/op, budget is 0", allocs)
	}
}
