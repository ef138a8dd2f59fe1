package dispatch

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"optspeed/internal/core"
	"optspeed/internal/sweep"
)

// decodeBoth runs a line through decodeLine (fast path + fallback) and
// through plain encoding/json, and requires identical outcomes.
func decodeBoth(t *testing.T, raw []byte) (wireResult, bool, bool) {
	t.Helper()
	var fast wireResult
	isResult, done, err := decodeLine(raw, &fast)
	if err != nil {
		t.Fatalf("decodeLine(%s): %v", raw, err)
	}
	var ref wireLine
	if err := json.Unmarshal(raw, &ref); err != nil {
		t.Fatalf("reference unmarshal(%s): %v", raw, err)
	}
	if (ref.Result != nil) != isResult || ref.Done != done {
		t.Fatalf("decodeLine(%s): result=%v done=%v; reference result=%v done=%v",
			raw, isResult, done, ref.Result != nil, ref.Done)
	}
	if isResult && !reflect.DeepEqual(fast, *ref.Result) {
		t.Fatalf("decodeLine(%s):\n fast %+v\n ref  %+v", raw, fast, *ref.Result)
	}
	return fast, isResult, done
}

// randomWireResult builds a random result covering every field, and a
// random spec for the peer to echo, including values that force the
// encoding/json fallback (escaped strings) and omitempty-elided zeros.
func randomWireResult(rng *rand.Rand) (wireResult, sweep.Spec) {
	stencils := []string{"5-point", "9-point", "9-star", "13-point", "weird \"st\"", ""}
	shapes := []string{"strip", "square", "rhombus"}
	types := []string{"hypercube", "mesh", "sync-bus", "async-bus", "full-async-bus", "banyan", "<custom>"}
	ops := []string{"", "optimize", "speedup", "scaled", "min-grid", "isoeff-grid"}
	errs := []string{"", "core: Speedup: procs=9 out of range [1, 4]", `sweep: unknown stencil "bogus"`, "line\nbreak"}
	f := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return rng.Float64() * 1e-7
		case 2:
			return float64(rng.Intn(1000))
		default:
			return rng.NormFloat64() * 1e9
		}
	}
	spec := sweep.Spec{
		Op:      sweep.Op(ops[rng.Intn(len(ops))]),
		N:       rng.Intn(4096) - 4,
		Stencil: stencils[rng.Intn(len(stencils))],
		Shape:   shapes[rng.Intn(len(shapes))],
		Machine: core.MachineSpec{
			Type:        types[rng.Intn(len(types))],
			Procs:       rng.Intn(3) * rng.Intn(2048),
			Tflp:        f(),
			BusCycle:    f(),
			BusOverhead: f(),
			Alpha:       f(),
			Beta:        f(),
			PacketWords: f(),
			SwitchTime:  f(),
			ReadsOnly:   rng.Intn(4) == 0,
			ConvHW:      rng.Intn(4) == 0,
		},
		Procs:         rng.Intn(3) * rng.Intn(512),
		Target:        f(),
		PointsPerProc: f(),
	}
	return wireResult{
		Index:     rng.Intn(100000),
		CacheHit:  rng.Intn(2) == 0,
		Procs:     rng.Intn(3) * rng.Intn(2048),
		ProcsUsed: f(),
		Area:      f(),
		CycleTime: f(),
		Speedup:   f(),
		Grid:      rng.Intn(3) * rng.Intn(8192),
		Value:     f(),
		Error:     errs[rng.Intn(len(errs))],
	}, spec
}

// wireResultTagged mirrors the service's result line, echoed spec and
// omitempty tags included, so marshaling it reproduces the exact
// elision behavior of the peer's encoder for test inputs.
type wireResultTagged struct {
	Index     int        `json:"index"`
	Spec      sweep.Spec `json:"spec"`
	CacheHit  bool       `json:"cache_hit"`
	Procs     int        `json:"procs,omitempty"`
	ProcsUsed float64    `json:"procs_used,omitempty"`
	Area      float64    `json:"area,omitempty"`
	CycleTime float64    `json:"cycle_time,omitempty"`
	Speedup   float64    `json:"speedup,omitempty"`
	Grid      int        `json:"grid,omitempty"`
	Value     float64    `json:"value,omitempty"`
	Error     string     `json:"error,omitempty"`
}

// withSpec builds the peer's line for result w echoing spec s.
func withSpec(w wireResult, s sweep.Spec) wireResultTagged {
	return wireResultTagged{
		Index: w.Index, Spec: s, CacheHit: w.CacheHit, Procs: w.Procs,
		ProcsUsed: w.ProcsUsed, Area: w.Area, CycleTime: w.CycleTime,
		Speedup: w.Speedup, Grid: w.Grid, Value: w.Value, Error: w.Error,
	}
}

// TestDecodeLineMatchesEncodingJSON is the decoder's equivalence
// property: over thousands of randomized result lines — compact and
// indented, with and without escapes — the fast decoder (or its
// fallback) produces exactly what encoding/json produces.
func TestDecodeLineMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 4000; iter++ {
		w, spec := randomWireResult(rng)
		tagged := withSpec(w, spec)
		var raw []byte
		var err error
		if iter%5 == 4 {
			// Whitespace variant: must still decode identically (via
			// the fallback if need be).
			raw, err = json.MarshalIndent(struct {
				Result *wireResultTagged `json:"result"`
			}{&tagged}, "", " ")
		} else {
			raw, err = json.Marshal(struct {
				Result *wireResultTagged `json:"result"`
			}{&tagged})
		}
		if err != nil {
			t.Fatal(err)
		}
		got, isResult, _ := decodeBoth(t, raw)
		if !isResult {
			t.Fatalf("line %s not recognized as a result", raw)
		}
		// Against the original too: omitempty drops zeros, which decode
		// back to zeros, and the echoed spec is skipped, so the round
		// trip must be exact.
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("round trip diverged:\n in  %+v\n out %+v\n raw %s", w, got, raw)
		}
	}
}

func TestDecodeLineDoneAndEdgeCases(t *testing.T) {
	cases := []struct {
		raw      string
		isResult bool
		done     bool
	}{
		{`{"done":true,"stats":{"specs":5,"cache_hits":0,"evaluated":5,"errors":0}}`, false, true},
		{`{"done":true}`, false, true},
		{`{"done":false}`, false, false},
		{`{"unknown":{"nested":[1,2,{"x":"y"}]},"done":true}`, false, true},
		{`{"result":{"index":0,"spec":{"n":1,"stencil":"s","shape":"h","machine":{"type":"t"}},"cache_hit":true},"extra":null}`, true, false},
	}
	for _, tc := range cases {
		_, isResult, done := decodeBoth(t, []byte(tc.raw))
		if isResult != tc.isResult || done != tc.done {
			t.Errorf("%s: got result=%v done=%v, want %v/%v", tc.raw, isResult, done, tc.isResult, tc.done)
		}
	}
	var res wireResult
	for _, bad := range []string{``, `{`, `nope`, `{"done":tru}`, `{"result":{"index":"x"}}`,
		// Malformed values the decoder skips rather than keeps.
		`{"done":true,"stats":{"specs":5,,}}`, `{"done":true,"stats":{"specs":01}}`,
		`{"done":true,"stats":[1 2]}`, `{"done":true,"stats":{"specs"}}`,
		`{"result":{"index":0,"spec":{"n":1,}}}`, `{"result":{"index":0,"spec":[}}`,
		// Nesting past encoding/json's depth limit.
		`{"done":true,"stats":` + strings.Repeat("[", 10001) + strings.Repeat("]", 10001) + `}`} {
		if _, _, err := decodeLine([]byte(bad), &res); err == nil {
			t.Errorf("decodeLine(%.80q): want error", bad)
		}
	}
}

// TestDecodeLineAgreesUnderCorruption mutates valid lines — a result
// line and a done line with a stats object, both of which carry a
// nested value the decoder skips — by prefix truncations and
// single-byte substitutions, and requires decodeLine to agree with
// encoding/json on every one: both succeed with the same value, or
// both fail. This is what makes the fast path safe against a peer
// dying mid-line or writing garbage.
func TestDecodeLineAgreesUnderCorruption(t *testing.T) {
	bases := [][]byte{
		[]byte(`{"result":{"index":7,"spec":{"op":"speedup","n":64,"stencil":"5-point",` +
			`"shape":"strip","machine":{"type":"sync-bus","reads_only":true},"procs":4},` +
			`"cache_hit":true,"value":3.25,"error":"boom"}}`),
		[]byte(`{"done":true,"stats":{"specs":5,"cache_hits":0,"evaluated":5,"errors":0,` +
			`"ratio":-1.5e3,"peers":["a",null,false],"empty":{}}}`),
	}
	check := func(raw []byte) {
		t.Helper()
		var fast wireResult
		isResult, done, fastErr := decodeLine(raw, &fast)
		var ref wireLine
		refErr := json.Unmarshal(raw, &ref)
		if (fastErr == nil) != (refErr == nil) {
			t.Fatalf("decodeLine(%q) err=%v, encoding/json err=%v", raw, fastErr, refErr)
		}
		if fastErr != nil {
			return
		}
		if (ref.Result != nil) != isResult || ref.Done != done {
			t.Fatalf("decodeLine(%q) diverged on line shape", raw)
		}
		if isResult && !reflect.DeepEqual(fast, *ref.Result) {
			t.Fatalf("decodeLine(%q) diverged on value", raw)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for _, base := range bases {
		for i := 0; i <= len(base); i++ {
			check(base[:i])
		}
		for iter := 0; iter < 4000; iter++ {
			mut := append([]byte(nil), base...)
			// Full byte range: high bytes matter — encoding/json coerces
			// invalid UTF-8 inside strings to U+FFFD, and the fast path
			// must defer to it there rather than accept the raw bytes.
			mut[rng.Intn(len(mut))] = byte(rng.Intn(256))
			check(mut)
		}
	}
}

// BenchmarkDecodeLine tracks the fast path's per-line cost (the
// coordinator pays it once per gathered result).
func BenchmarkDecodeLine(b *testing.B) {
	line := []byte(`{"result":{"index":42,"spec":{"n":512,"stencil":"5-point","shape":"square",` +
		`"machine":{"type":"hypercube"}},"cache_hit":false,"procs":1024,"area":256,` +
		`"cycle_time":1.234e-5,"speedup":812.345}}`)
	var res wireResult
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := decodeLine(line, &res); err != nil {
			b.Fatal(err)
		}
	}
}
