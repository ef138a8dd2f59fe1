package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
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
	"backspace \b form feed \f",
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

// sweepResultJSON is the reference conversion of one (spec, answer)
// pair to its wire struct — the rules appendSweepResult applies,
// written over SweepResultJSON so encoding/json can be the oracle the
// encoder is compared with. A recovered evaluation panic is reported
// without the panic text.
func sweepResultJSON(res sweep.Result) SweepResultJSON {
	jr := SweepResultJSON{
		Index:    res.Index,
		Spec:     res.Spec,
		CacheHit: res.CacheHit,
		Grid:     res.Grid,
		Value:    res.Value,
	}
	if res.Alloc.Procs > 0 {
		jr.Procs = res.Alloc.Procs
		jr.Area = res.Alloc.Area
		jr.CycleTime = res.Alloc.CycleTime
		jr.Speedup = res.Alloc.Speedup
	}
	if res.Spec.Op == sweep.OpScaled && res.Err == nil {
		jr.ProcsUsed = res.Scaled.Procs
		jr.CycleTime = res.Scaled.CycleTime
		jr.Speedup = res.Scaled.Speedup
	}
	jr.Error = res.ErrText()
	return jr
}

// wireShapes are wire results covering every payload shape the service
// emits — optimize allocations, scalar speedups, grid searches, scaled
// points, cache hits, spec errors, machines with every override field
// set — and the escaping and float branches. Each enters the corpus as
// the answer it is encoded from (answerFor).
var wireShapes = []SweepResultJSON{
	{Index: 0, Spec: sweep.Spec{N: 512, Stencil: "5-point", Shape: "square",
		Machine: core.MachineSpec{Type: "sync-bus"}},
		Procs: 37, Area: 1234.5678, CycleTime: 3.25e-5, Speedup: 21.7},
	{Index: 1, Spec: sweep.Spec{Op: sweep.OpSpeedup, N: 256, Stencil: "9-point", Shape: "strip",
		Machine: core.MachineSpec{
			Type: "mesh", Procs: 4096, Tflp: 1e-7, BusCycle: 2.5e-7, BusOverhead: 1e-8,
			Alpha: 1.5e-6, Beta: 4e-9, PacketWords: 8, SwitchTime: 5e-8,
			ReadsOnly: true, ConvHW: true,
		}, Procs: 64},
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

// answerFor rebuilds the answer a wire result is encoded from.
func answerFor(jr SweepResultJSON) sweep.Answer {
	a := sweep.Answer{Index: jr.Index, CacheHit: jr.CacheHit, Grid: jr.Grid, Value: jr.Value}
	if jr.Procs > 0 {
		a.Alloc = sweep.Alloc{Procs: jr.Procs, Area: jr.Area, CycleTime: jr.CycleTime, Speedup: jr.Speedup}
	}
	if jr.Spec.Op == sweep.OpScaled && jr.Error == "" {
		a.Scaled = core.ScaledPoint{Procs: jr.ProcsUsed, CycleTime: jr.CycleTime, Speedup: jr.Speedup}
	}
	if jr.Error != "" {
		a.Err = errors.New(jr.Error)
	}
	return a
}

// TestWireShapesComeFromAnswers holds every hand-written wire shape to
// an answer: the reference conversion of its rebuilt answer must give
// it back, so no corpus entry is a shape the encoder never sees.
func TestWireShapesComeFromAnswers(t *testing.T) {
	for _, jr := range wireShapes {
		if got := sweepResultJSON(sweep.Result{Spec: jr.Spec, Answer: answerFor(jr)}); got != jr {
			t.Errorf("wire shape %d is not reachable from an answer:\n got: %+v\nwant: %+v", jr.Index, got, jr)
		}
	}
}

// opSpecs holds one spec per op that the engine answers without an
// error, so every op's real answer crosses the encoder.
var opSpecs = map[sweep.Op]sweep.Spec{
	sweep.OpOptimize: {Op: sweep.OpOptimize, N: 128, Stencil: "5-point", Shape: "square",
		Machine: core.MachineSpec{Type: "sync-bus"}},
	sweep.OpOptimizeSnapped: {Op: sweep.OpOptimizeSnapped, N: 96, Stencil: "9-point", Shape: "strip",
		Machine: core.MachineSpec{Type: "hypercube"}},
	sweep.OpSpeedup: {Op: sweep.OpSpeedup, N: 128, Stencil: "9-point", Shape: "square",
		Machine: core.MachineSpec{Type: "mesh"}, Procs: 16},
	sweep.OpMinGrid: {Op: sweep.OpMinGrid, Stencil: "5-point", Shape: "strip",
		Machine: core.MachineSpec{Type: "banyan"}, Procs: 16},
	sweep.OpIsoeffGrid: {Op: sweep.OpIsoeffGrid, N: 16, Stencil: "13-point", Shape: "square",
		Machine: core.MachineSpec{Type: "hypercube"}, Procs: 32, Target: 0.75},
	sweep.OpScaled: {Op: sweep.OpScaled, N: 512, Stencil: "5-point", Shape: "square",
		Machine: core.MachineSpec{Type: "hypercube"}, PointsPerProc: 32},
	sweep.OpAmdahl: {Op: sweep.OpAmdahl, N: 256, Stencil: "5-point", Shape: "square",
		Machine: core.MachineSpec{Type: "sync-bus"}, Procs: 16},
	sweep.OpGustafson: {Op: sweep.OpGustafson, N: 256, Stencil: "9-star", Shape: "strip",
		Machine: core.MachineSpec{Type: "mesh"}, Procs: 64},
	sweep.OpCriticalPath: {Op: sweep.OpCriticalPath, N: 512, Stencil: "13-point", Shape: "square",
		Machine: core.MachineSpec{Type: "banyan"}, Procs: 64},
}

// evaluate runs work through a fresh engine.
func evaluate(tb testing.TB, work sweep.Batch) []sweep.Result {
	tb.Helper()
	eng := sweep.New(sweep.Options{})
	ch, _, err := eng.Open(context.Background(), work)
	if err != nil {
		tb.Fatal(err)
	}
	results, err := eng.Collect(context.Background(), ch, work)
	if err != nil {
		tb.Fatal(err)
	}
	return results
}

// wireCorpus is the identity corpus: (spec, answer) pairs covering the
// allocation, scaled, grid and error payloads and the panic-redaction
// path, every wire shape, and one real engine answer per op. Indices
// are the corpus positions, so a request naming each spec by index
// (engineAnswers) is well formed.
func wireCorpus(tb testing.TB) []sweep.Result {
	tb.Helper()
	corpus := []sweep.Result{
		{Spec: sweep.Spec{N: 64, Stencil: "5-point", Shape: "strip",
			Machine: core.MachineSpec{Type: "sync-bus"}},
			Answer: sweep.Answer{Alloc: sweep.Alloc{Procs: 9, Area: 455.11,
				CycleTime: 4.25e-6, Speedup: 8.31}, Value: 8.31}},
		{Spec: sweep.Spec{Op: sweep.OpSpeedup, N: 128, Stencil: "9-point", Shape: "square",
			Machine: core.MachineSpec{Type: "mesh"}, Procs: 16},
			Answer: sweep.Answer{CacheHit: true, Value: 14.9}},
		{Spec: sweep.Spec{Op: sweep.OpScaled, N: 512, Stencil: "5-point", Shape: "square",
			Machine: core.MachineSpec{Type: "hypercube"}, PointsPerProc: 32},
			Answer: sweep.Answer{
				Scaled: core.ScaledPoint{Procs: 8192.5, CycleTime: 2e-7, Speedup: 1.25e3}, Value: 1.25e3}},
		{Spec: sweep.Spec{N: 32, Stencil: "nope", Shape: "square",
			Machine: core.MachineSpec{Type: "sync-bus"}},
			Answer: sweep.Answer{Err: errors.New(`sweep: unknown stencil "nope"`)}},
		{Spec: sweep.Spec{N: 96, Stencil: "5-point", Shape: "strip",
			Machine: core.MachineSpec{Type: "banyan"}},
			Answer: sweep.Answer{Err: fmt.Errorf("%w: boom", sweep.ErrEvaluationPanic)}},
	}
	for _, jr := range wireShapes {
		corpus = append(corpus, sweep.Result{Spec: jr.Spec, Answer: answerFor(jr)})
	}
	var specs []sweep.Spec
	for _, op := range sweep.Ops() {
		s, ok := opSpecs[op]
		if !ok {
			tb.Fatalf("op %q has no spec in opSpecs", op)
		}
		specs = append(specs, s)
	}
	results := evaluate(tb, sweep.Batch{Specs: specs})
	for _, r := range results {
		if r.Err != nil {
			tb.Fatalf("op %q: %v", r.Spec.Op, r.Err)
		}
	}
	corpus = append(corpus, results...)
	for i := range corpus {
		corpus[i].Index = i
	}
	return corpus
}

func TestAppendSweepResultMatchesEncodingJSON(t *testing.T) {
	for i, r := range wireCorpus(t) {
		want, err := json.Marshal(sweepResultJSON(r))
		if err != nil {
			t.Fatal(err)
		}
		got := appendSweepResult(nil, &r.Spec, &r.Answer)
		if !bytes.Equal(got, want) {
			t.Errorf("result %d:\n got: %s\nwant: %s", i, got, want)
		}
	}
}

func TestAppendStreamLinesMatchEncodingJSON(t *testing.T) {
	for i, r := range wireCorpus(t) {
		jr := sweepResultJSON(r)
		want := encodeJSONLine(t, StreamLine{Result: &jr})
		got := appendStreamResultLine(nil, &r.Spec, &r.Answer)
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

// engineAnswers splits the corpus into the request a job keeps and the
// answers its slabs hold, in reverse (completion) order.
func engineAnswers(tb testing.TB) (sweep.Batch, []sweep.Answer) {
	results := wireCorpus(tb)
	work := sweep.Batch{Specs: make([]sweep.Spec, len(results))}
	answers := make([]sweep.Answer, len(results))
	for i, r := range results {
		work.Specs[r.Index] = r.Spec
		answers[len(results)-1-i] = r.Answer
	}
	return work, answers
}

// sweepResponseJSON is the reference v1 body for results, through
// encoding/json.
func sweepResponseJSON(t *testing.T, results []sweep.Result) []byte {
	t.Helper()
	resp := SweepResponse{Results: make([]SweepResultJSON, len(results))}
	for i := range results {
		resp.Stats.observe(&results[i].Answer)
		resp.Results[i] = sweepResultJSON(results[i])
	}
	return encodeJSONLine(t, resp)
}

// chunked shuffles results and splits them into chunks of 1..maxLen,
// the way engine workers and gathered shards hand them over.
func chunked(results []sweep.Result, seed int64, maxLen int) [][]sweep.Result {
	rng := rand.New(rand.NewSource(seed))
	shuffled := slices.Clone(results)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	var chunks [][]sweep.Result
	for len(shuffled) > 0 {
		n := min(1+rng.Intn(maxLen), len(shuffled))
		chunks = append(chunks, shuffled[:n])
		shuffled = shuffled[n:]
	}
	return chunks
}

func TestAppendSweepResponseMatchesEncodingJSON(t *testing.T) {
	results := wireCorpus(t)
	want := sweepResponseJSON(t, results)
	var body sweepBody
	body.reset(len(results))
	body.add(results)
	if got := body.appendTo(nil); !bytes.Equal(got, want) {
		t.Errorf("sweep response:\n got: %s\nwant: %s", got, want)
	}
	// The empty sweep still encodes a non-nil results array.
	want = encodeJSONLine(t, SweepResponse{Results: []SweepResultJSON{}})
	body.reset(0)
	if got := body.appendTo(nil); !body.complete() || !bytes.Equal(got, want) {
		t.Errorf("empty sweep response:\n got: %s\nwant: %s", got, want)
	}
}

// TestSweepBodyOutOfOrderMatchesEncodingJSON feeds the corpus in
// shuffled, unevenly split chunks: the body must still be the
// in-order reference, byte for byte, and a repeated delivery must not
// change it.
func TestSweepBodyOutOfOrderMatchesEncodingJSON(t *testing.T) {
	results := wireCorpus(t)
	want := sweepResponseJSON(t, results)
	var body sweepBody
	for seed := int64(1); seed <= 16; seed++ {
		body.reset(len(results))
		chunks := chunked(results, seed, 7)
		for i, c := range chunks {
			if body.complete() {
				t.Fatalf("seed %d: complete after %d of %d chunks", seed, i, len(chunks))
			}
			body.add(c)
		}
		body.add(chunks[0])
		if !body.complete() {
			t.Fatalf("seed %d: incomplete after every chunk", seed)
		}
		if got := body.appendTo(nil); !bytes.Equal(got, want) {
			t.Fatalf("seed %d:\n got: %s\nwant: %s", seed, got, want)
		}
	}
}

func TestAppendJobResultsPageMatchesEncodingJSON(t *testing.T) {
	work, answers := engineAnswers(t)
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

// FuzzAppendSweepResult draws a spec and an answer from arbitrary
// bytes and holds appendSweepResult to json.Marshal of the reference
// conversion.
func FuzzAppendSweepResult(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add(bytes.Repeat([]byte{0x3f, 0xf0, 0x80, '<', 0xff, 5}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := fuzzResult(data)
		want, err := json.Marshal(sweepResultJSON(r))
		if err != nil {
			t.Fatal(err)
		}
		if got := appendSweepResult(nil, &r.Spec, &r.Answer); !bytes.Equal(got, want) {
			t.Fatalf("\n got: %s\nwant: %s", got, want)
		}
	})
}

// fuzzResult reads one (spec, answer) pair from data, field by field;
// fields past the end of data are zero. Floats are kept finite: NaN
// and the infinities encode as null by design, where encoding/json
// fails the marshal. The op is a declared one, empty, or arbitrary
// text, and the error is none, plain text, or a recovered panic.
func fuzzResult(data []byte) sweep.Result {
	next := func(n int) []byte {
		b := make([]byte, n)
		data = data[copy(b, data):]
		return b
	}
	num := func() int { return int(int64(binary.LittleEndian.Uint64(next(8)))) }
	float := func() float64 {
		f := math.Float64frombits(binary.LittleEndian.Uint64(next(8)))
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return 0
		}
		return f
	}
	text := func() string { return string(next(int(next(1)[0] % 32))) }
	flag := func() bool { return next(1)[0]&1 == 1 }

	var r sweep.Result
	s, a := &r.Spec, &r.Answer
	ops := sweep.Ops()
	switch k := int(next(1)[0]); {
	case k < len(ops):
		s.Op = ops[k]
	case k%2 == 0:
		s.Op = sweep.Op(text())
	}
	s.N, s.Stencil, s.Shape = num(), text(), text()
	m := &s.Machine
	m.Type, m.Procs = text(), num()
	m.Tflp, m.BusCycle, m.BusOverhead, m.Alpha = float(), float(), float(), float()
	m.Beta, m.PacketWords, m.SwitchTime = float(), float(), float()
	m.ReadsOnly, m.ConvHW = flag(), flag()
	s.Procs, s.Target, s.PointsPerProc = num(), float(), float()

	a.Index, a.CacheHit = num(), flag()
	a.Alloc = sweep.Alloc{Procs: num(), Area: float(), CycleTime: float(), Speedup: float()}
	a.Scaled = core.ScaledPoint{Procs: float(), CycleTime: float(), Speedup: float()}
	a.Value, a.Grid = float(), num()
	switch next(1)[0] % 3 {
	case 1:
		a.Err = errors.New(text())
	case 2:
		a.Err = fmt.Errorf("%w: %s", sweep.ErrEvaluationPanic, text())
	}
	return r
}

// TestWireEncoderAllocBudget pins the serving path's allocation story:
// encoding results into a pre-grown buffer allocates nothing per
// result (the one allocation the ≤1-per-result budget allows is the
// pooled buffer itself, amortized across a whole chunk or page).
func TestWireEncoderAllocBudget(t *testing.T) {
	results := wireCorpus(t)
	chunks := chunked(results, 1, 7)
	buf := make([]byte, 0, 1<<16)
	var body sweepBody
	allocs := testing.AllocsPerRun(200, func() {
		body.reset(len(results))
		for _, c := range chunks {
			body.add(c)
		}
		buf = body.appendTo(buf[:0])
	})
	if allocs > 0 {
		t.Fatalf("sweepBody add+appendTo allocates %.1f/op over %d results, budget is 0", allocs, len(results))
	}
	work, answers := engineAnswers(t)
	allocs = testing.AllocsPerRun(200, func() {
		buf = appendJobResultsPage(buf[:0], "a1b2c3d4e5f60718", "running", work, answers, 5, false)
	})
	if allocs > 0 {
		t.Fatalf("appendJobResultsPage allocates %.1f/op, budget is 0", allocs)
	}
	allocs = testing.AllocsPerRun(200, func() {
		buf = appendStreamResultLine(buf[:0], &results[0].Spec, &results[0].Answer)
	})
	if allocs > 0 {
		t.Fatalf("appendStreamResultLine allocates %.1f/op, budget is 0", allocs)
	}
}

// coldSweep evaluates a 768-spec optimize space once — 48 n × 2
// stencils × 2 shapes × 4 machines, the shape of one perfbench
// sweep-cold op — for the encoder benchmarks.
func coldSweep(b *testing.B) (sweep.Batch, []sweep.Result) {
	ns := make([]int, 48)
	for i := range ns {
		ns[i] = 300 + i
	}
	work := sweep.Batch{Space: &sweep.Space{Ns: ns, Stencils: []string{"5-point", "9-point"},
		Shapes: []string{"strip", "square"}, Machines: []core.MachineSpec{
			{Type: "sync-bus"}, {Type: "async-bus"}, {Type: "hypercube"}, {Type: "mesh"}}}}
	return work, evaluate(b, work)
}

// BenchmarkAppendSweepResponse times the v1 /sweep body of one
// sweep-cold op, assembled from its results arriving out of order in
// engine-sized chunks.
func BenchmarkAppendSweepResponse(b *testing.B) {
	_, results := coldSweep(b)
	chunks := chunked(results, 1, 64)
	var body sweepBody
	var buf []byte
	run := func() {
		body.reset(len(results))
		for _, c := range chunks {
			body.add(c)
		}
		buf = body.appendTo(buf[:0])
	}
	run()
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		run()
	}
}

// BenchmarkAppendJobResultsPage times one page of all 768 answers of a
// sweep-cold op, each spec named from the job's space.
func BenchmarkAppendJobResultsPage(b *testing.B) {
	work, results := coldSweep(b)
	answers := make([]sweep.Answer, len(results))
	for i := range results {
		answers[i] = results[i].Answer
	}
	buf := appendJobResultsPage(nil, "a1b2c3d4e5f60718", "succeeded", work, answers, len(answers), true)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		buf = appendJobResultsPage(buf[:0], "a1b2c3d4e5f60718", "succeeded", work, answers, len(answers), true)
	}
}
