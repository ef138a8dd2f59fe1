package telemetry

import (
	"bytes"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func render(t *testing.T, r *Registry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return buf.Bytes()
}

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("optspeed_requests_total", "Requests served.", L("endpoint", "sweep"))
	c2 := r.NewCounter("optspeed_requests_total", "Requests served.", L("endpoint", "optimize"))
	g := r.NewGauge("optspeed_jobs_resident", "Resident jobs.")
	c.Add(41)
	c.Inc()
	c2.Inc()
	g.Set(7)
	g.Add(-2)
	out := string(render(t, r))
	want := strings.Join([]string{
		"# HELP optspeed_jobs_resident Resident jobs.",
		"# TYPE optspeed_jobs_resident gauge",
		"optspeed_jobs_resident 5",
		"# HELP optspeed_requests_total Requests served.",
		"# TYPE optspeed_requests_total counter",
		`optspeed_requests_total{endpoint="optimize"} 1`,
		`optspeed_requests_total{endpoint="sweep"} 42`,
		"",
	}, "\n")
	if out != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", out, want)
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("optspeed_latency_seconds", "Latency.", []float64{0.01, 0.1, 1})
	h.Observe(5 * time.Millisecond)
	h.Observe(50 * time.Millisecond)
	h.Observe(50 * time.Millisecond)
	h.Observe(5 * time.Second)
	out := string(render(t, r))
	want := strings.Join([]string{
		"# HELP optspeed_latency_seconds Latency.",
		"# TYPE optspeed_latency_seconds histogram",
		`optspeed_latency_seconds_bucket{le="0.01"} 1`,
		`optspeed_latency_seconds_bucket{le="0.1"} 3`,
		`optspeed_latency_seconds_bucket{le="1"} 3`,
		`optspeed_latency_seconds_bucket{le="+Inf"} 4`,
		"optspeed_latency_seconds_sum 5.105",
		"optspeed_latency_seconds_count 4",
		"",
	}, "\n")
	if out != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", out, want)
	}
	if h.Count() != 4 {
		t.Fatalf("Count = %d, want 4", h.Count())
	}
	if h.Sum() != 5105*time.Millisecond || h.Max() != 5*time.Second {
		t.Fatalf("Sum, Max = %v, %v; want 5.105s, 5s", h.Sum(), h.Max())
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("optspeed_weird_total", `Help with \backslash
and newline.`, L("tenant", "a\\b\"c\nd"))
	out := string(render(t, r))
	if !strings.Contains(out, `# HELP optspeed_weird_total Help with \\backslash\nand newline.`) {
		t.Fatalf("help not escaped:\n%s", out)
	}
	if !strings.Contains(out, `optspeed_weird_total{tenant="a\\b\"c\nd"} 0`) {
		t.Fatalf("label value not escaped:\n%s", out)
	}
	if err := CheckExposition([]byte(out)); err != nil {
		t.Fatalf("escaped page fails conformance: %v", err)
	}
}

func TestFuncCollectors(t *testing.T) {
	r := NewRegistry()
	n := 3.0
	r.NewCounterFunc("optspeed_evals_total", "Evals.", func() float64 { return n })
	r.NewGaugeFunc("optspeed_cache_len", "Cache entries.", func() float64 { return 2 * n })
	out := string(render(t, r))
	if !strings.Contains(out, "optspeed_evals_total 3") || !strings.Contains(out, "optspeed_cache_len 6") {
		t.Fatalf("func collectors missing:\n%s", out)
	}
}

// TestUnregister removes a series: an emptied family leaves nothing on
// a valid page, and the series may be registered again.
func TestUnregister(t *testing.T) {
	r := NewRegistry()
	one := func() float64 { return 1 }
	r.NewGaugeFunc("optspeed_peer_up", "Peer up.", one, L("peer", "a"))
	r.NewCounterFunc("optspeed_other_total", "Other.", one)
	r.Unregister("optspeed_peer_up", L("peer", "a"))
	r.Unregister("optspeed_missing")
	if out := render(t, r); strings.Contains(string(out), "optspeed_peer_up") || CheckExposition(out) != nil {
		t.Fatalf("page after removal:\n%s", out)
	}
	r.NewGaugeFunc("optspeed_peer_up", "Peer up.", one, L("peer", "a"))
	if out := string(render(t, r)); !strings.Contains(out, `optspeed_peer_up{peer="a"} 1`) {
		t.Fatalf("re-registered series missing:\n%s", out)
	}
}

func TestRegistrationPanics(t *testing.T) {
	cases := map[string]func(r *Registry){
		"bad name":        func(r *Registry) { r.NewCounter("9bad", "h") },
		"bad label":       func(r *Registry) { r.NewCounter("ok_total", "h", L("9bad", "v")) },
		"reserved label":  func(r *Registry) { r.NewCounter("ok_total", "h", L("__internal", "v")) },
		"le on histogram": func(r *Registry) { r.NewHistogram("h_seconds", "h", []float64{1}, L("le", "x")) },
		"dup series": func(r *Registry) {
			r.NewCounter("dup_total", "h", L("a", "1"))
			r.NewCounter("dup_total", "h", L("a", "1"))
		},
		"type clash": func(r *Registry) {
			r.NewCounter("clash", "h")
			r.NewGauge("clash", "h")
		},
		"help clash": func(r *Registry) {
			r.NewCounter("hc_total", "one", L("a", "1"))
			r.NewCounter("hc_total", "two", L("a", "2"))
		},
		"unsorted buckets": func(r *Registry) { r.NewHistogram("ub_seconds", "h", []float64{1, 0.5}) },
		"bucket layout clash": func(r *Registry) {
			r.NewHistogram("bl_seconds", "h", []float64{1}, L("a", "1"))
			r.NewHistogram("bl_seconds", "h", []float64{2}, L("a", "2"))
		},
	}
	for name, f := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			f(NewRegistry())
		})
	}
}

// TestRegistryOutputConformance pins that whatever the registry
// renders, the strict checker accepts — the two halves of the
// conformance satellite agree.
func TestRegistryOutputConformance(t *testing.T) {
	r := NewRegistry()
	for _, ep := range []string{"sweep", "optimize", "jobs_submit"} {
		c := r.NewCounter("optspeed_http_requests_total", "Requests.", L("endpoint", ep))
		c.Add(uint64(len(ep)))
		h := r.NewHistogram("optspeed_http_request_duration_seconds", "Latency.",
			DefLatencyBuckets, L("endpoint", ep))
		for i := 0; i < 10; i++ {
			h.Observe(time.Duration(i) * 13 * time.Millisecond)
		}
	}
	r.NewGauge("optspeed_uptime_seconds", "Uptime.").Set(12.5)
	r.NewCounterFunc("optspeed_engine_evaluations_total", "Evals.", func() float64 { return 99 })
	out := render(t, r)
	if err := CheckExposition(out); err != nil {
		t.Fatalf("registry output fails conformance:\n%v\n%s", err, out)
	}
}

func TestCheckExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"sample before TYPE": "foo_total 1\n",
		"unknown type":       "# TYPE foo wibble\nfoo 1\n",
		"duplicate TYPE":     "# TYPE foo counter\n# TYPE foo counter\nfoo 1\n",
		"duplicate series":   "# TYPE foo counter\nfoo 1\nfoo 2\n",
		"foreign sample":     "# TYPE foo counter\nbar 1\n",
		"bad value":          "# TYPE foo counter\nfoo x\n",
		"bad escape":         "# TYPE foo counter\nfoo{a=\"\\q\"} 1\n",
		"unquoted label":     "# TYPE foo counter\nfoo{a=1} 1\n",
		"bad label name":     "# TYPE foo counter\nfoo{9a=\"1\"} 1\n",
		"bucket not monotone": "# TYPE h histogram\n" +
			`h_bucket{le="0.1"} 5` + "\n" + `h_bucket{le="1"} 3` + "\n" +
			`h_bucket{le="+Inf"} 5` + "\nh_sum 1\nh_count 5\n",
		"le not increasing": "# TYPE h histogram\n" +
			`h_bucket{le="1"} 1` + "\n" + `h_bucket{le="0.1"} 2` + "\n" +
			`h_bucket{le="+Inf"} 2` + "\nh_sum 1\nh_count 2\n",
		"missing +Inf": "# TYPE h histogram\n" +
			`h_bucket{le="1"} 1` + "\nh_sum 1\nh_count 1\n",
		"count mismatch": "# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 3` + "\nh_sum 1\nh_count 2\n",
		"missing sum": "# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 1` + "\nh_count 1\n",
		"second HELP": "# HELP foo a\n# HELP foo b\n# TYPE foo counter\nfoo 1\n",
	}
	for name, page := range cases {
		if err := CheckExposition([]byte(page)); err == nil {
			t.Errorf("%s: accepted:\n%s", name, page)
		}
	}
	good := "# HELP h Latency.\n# TYPE h histogram\n" +
		`h_bucket{le="0.1"} 1` + "\n" + `h_bucket{le="+Inf"} 2` + "\n" +
		"h_sum 1.5\nh_count 2\n\n# TYPE foo counter\nfoo 1 1712345678901\n"
	if err := CheckExposition([]byte(good)); err != nil {
		t.Fatalf("valid page rejected: %v", err)
	}
}

// TestHotPathAllocs pins the tentpole's 0 allocs/op contract on the
// instrument hot paths.
func TestHotPathAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("allocs_total", "h", L("endpoint", "x"))
	h := r.NewHistogram("allocs_seconds", "h", DefLatencyBuckets, L("endpoint", "x"))
	g := r.NewGauge("allocs_gauge", "h")
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Errorf("Counter.Inc allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(17 * time.Millisecond) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(3) }); n != 0 {
		t.Errorf("Gauge.Set allocates %v/op", n)
	}
}

// TestConcurrentInstruments hammers every instrument from many
// goroutines (race mode is where this earns its keep) and checks the
// totals land exactly.
func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("conc_total", "h")
	h := r.NewHistogram("conc_seconds", "h", []float64{0.5})
	g := r.NewGauge("conc_gauge", "h")
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(time.Second)
				g.Add(1)
				if i%64 == 0 {
					// Scrapes and lazy registrations (an endpoint's first
					// request) must be safe together.
					r.NewCounter("conc_lazy_total", "h", L("at", strconv.Itoa(w*per+i)))
					var buf bytes.Buffer
					_ = r.WritePrometheus(&buf)
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*per)
	}
	if h.Max() != time.Second {
		t.Errorf("histogram max = %v, want 1s", h.Max())
	}
	if h.Sum() != workers*per*time.Second {
		t.Errorf("histogram sum = %v, want %v", h.Sum(), workers*per*time.Second)
	}
	if g.Value() != workers*per {
		t.Errorf("gauge = %v, want %d", g.Value(), workers*per)
	}
	if err := CheckExposition(render(t, r)); err != nil {
		t.Fatalf("post-hammer page fails conformance: %v", err)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.NewCounter("bench_total", "h")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.NewHistogram("bench_seconds", "h", DefLatencyBuckets)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			h.Observe(time.Duration(i%100) * 3 * time.Millisecond)
			i++
		}
	})
}

func TestTracerRecordAndView(t *testing.T) {
	tr := NewTracer(TracerOptions{MaxTraces: 2, MaxSpansPerTrace: 3})
	ctxRoot, root := tr.StartRoot(t.Context(), "job", "", "")
	traceID := root.TraceID()
	if traceID == "" || root.SpanID() == "" {
		t.Fatal("root span ids empty")
	}
	if got := TraceIDFrom(ctxRoot); got != traceID {
		t.Fatalf("TraceIDFrom = %q, want %q", got, traceID)
	}
	_, child := StartSpan(ctxRoot, "shard")
	child.SetAttr("shard", "0")
	time.Sleep(2 * time.Millisecond)
	child.End()
	root.End()
	v, ok := tr.Trace(traceID)
	if !ok {
		t.Fatal("trace not resident")
	}
	if len(v.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(v.Spans))
	}
	var foundChild bool
	for _, sp := range v.Spans {
		if sp.Name == "shard" {
			foundChild = true
			if sp.ParentID != root.SpanID() {
				t.Errorf("child parent = %q, want %q", sp.ParentID, root.SpanID())
			}
			if sp.Duration <= 0 {
				t.Error("child duration not measured")
			}
			if len(sp.Attrs) != 1 || sp.Attrs[0].Key != "shard" {
				t.Errorf("child attrs = %v", sp.Attrs)
			}
		}
	}
	if !foundChild {
		t.Fatal("child span not recorded")
	}
	sum := v.Summary()
	if sum.Spans != 2 || sum.WallMs <= 0 || sum.CriticalPathMs <= 0 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.CriticalPathMs > sum.WallMs {
		t.Fatalf("critical path %v exceeds wall %v", sum.CriticalPathMs, sum.WallMs)
	}
}

func TestTracerBounds(t *testing.T) {
	tr := NewTracer(TracerOptions{MaxTraces: 2, MaxSpansPerTrace: 2})
	rec := func(trace string, n int) {
		for i := 0; i < n; i++ {
			tr.record(SpanRecord{TraceID: trace, SpanID: strconv.Itoa(i), Name: "s", Start: time.Now()})
		}
	}
	rec("t1", 1)
	rec("t2", 3) // one past the span bound
	if v, _ := tr.Trace("t2"); len(v.Spans) != 2 || v.Dropped != 1 {
		t.Fatalf("t2 spans=%d dropped=%d, want 2/1", len(v.Spans), v.Dropped)
	}
	rec("t3", 1) // evicts t1 (oldest)
	if _, ok := tr.Trace("t1"); ok {
		t.Fatal("t1 not evicted")
	}
	if _, ok := tr.Trace("t2"); !ok {
		t.Fatal("t2 evicted early")
	}
	if tr.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tr.Len())
	}
	if tr.tracesEvicted.Value() != 1 || tr.spansDropped.Value() != 1 {
		t.Fatalf("counters evicted=%d dropped=%d, want 1/1",
			tr.tracesEvicted.Value(), tr.spansDropped.Value())
	}
}

// TestNilTracerNoOps pins the nil-safety contract the call sites rely
// on: a nil tracer and nil spans must be inert, not panicky.
func TestNilTracerNoOps(t *testing.T) {
	var tr *Tracer
	ctx, sp := tr.StartRoot(t.Context(), "x", "", "")
	if sp != nil {
		t.Fatal("nil tracer returned a span")
	}
	sp.SetAttr("k", "v")
	sp.End()
	if sp.TraceID() != "" || sp.SpanID() != "" {
		t.Fatal("nil span has ids")
	}
	if _, ok := tr.Trace("x"); ok {
		t.Fatal("nil tracer has traces")
	}
	if tr.Len() != 0 {
		t.Fatal("nil tracer non-empty")
	}
	// StartSpan without a span context is also inert.
	if _, child := StartSpan(ctx, "y"); child != nil {
		t.Fatal("StartSpan outside a trace returned a span")
	}
}

func TestRemoteParentAdoption(t *testing.T) {
	tr := NewTracer(TracerOptions{})
	ctx, sp := tr.StartRoot(t.Context(), "sweep_stream", "cafebabecafebabe", "deadbeefdeadbeef")
	if sp.TraceID() != "cafebabecafebabe" {
		t.Fatalf("trace id = %q", sp.TraceID())
	}
	sp.End()
	v, ok := tr.Trace("cafebabecafebabe")
	if !ok || len(v.Spans) != 1 {
		t.Fatalf("remote trace not recorded: %v %d", ok, len(v.Spans))
	}
	if v.Spans[0].ParentID != "deadbeefdeadbeef" {
		t.Fatalf("parent = %q", v.Spans[0].ParentID)
	}
	if got := SpanIDFrom(ctx); got != sp.SpanID() {
		t.Fatalf("SpanIDFrom = %q, want %q", got, sp.SpanID())
	}
}

// TestSummaryCriticalPath builds a deterministic DAG and checks the
// numbers: root 100ms enveloping three leaf shards (60, 40, 20 ms,
// overlapping), so wall=100, critical path=60, serial=120.
func TestSummaryCriticalPath(t *testing.T) {
	t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	v := TraceView{ID: "t", Spans: []SpanRecord{
		{TraceID: "t", SpanID: "root", Name: "job", Start: t0, Duration: ms(100)},
		{TraceID: "t", SpanID: "s0", ParentID: "root", Name: "shard", Start: t0.Add(ms(10)), Duration: ms(60)},
		{TraceID: "t", SpanID: "s1", ParentID: "root", Name: "shard", Start: t0.Add(ms(10)), Duration: ms(40)},
		{TraceID: "t", SpanID: "s2", ParentID: "root", Name: "shard", Start: t0.Add(ms(55)), Duration: ms(20)},
	}}
	sum := v.Summary()
	if sum.Spans != 4 {
		t.Fatalf("spans = %d", sum.Spans)
	}
	if sum.WallMs != 100 {
		t.Fatalf("wall = %v, want 100", sum.WallMs)
	}
	if sum.CriticalPathMs != 60 {
		t.Fatalf("critical path = %v, want 60", sum.CriticalPathMs)
	}
	if sum.SerialMs != 120 {
		t.Fatalf("serial = %v, want 120", sum.SerialMs)
	}
}

func TestConcurrentTracer(t *testing.T) {
	tr := NewTracer(TracerOptions{MaxTraces: 8})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ctx, root := tr.StartRoot(t.Context(), "job", "", "")
				_, child := StartSpan(ctx, "shard")
				child.End()
				root.End()
				tr.Trace(root.TraceID())
				tr.Len()
			}
		}(w)
	}
	wg.Wait()
}
