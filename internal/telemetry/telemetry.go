// Package telemetry is the observability core: a dependency-free
// metrics registry with a Prometheus text-exposition writer, and
// request-scoped tracing with a bounded in-memory trace store.
//
// Metrics: counters, gauges, and fixed-bucket duration histograms whose
// hot paths are a few atomic operations — zero allocations per Inc/Set/
// Observe — plus Func variants that read a value at scrape time, so
// subsystems that already keep their own atomic counters (the sweep
// engine, the WAL store, the admission gate) export without changing
// their hot paths. WritePrometheus renders the whole registry in
// text exposition format 0.0.4, deterministically ordered.
//
// Tracing: see trace.go. Context plumbing shared with the HTTP layer
// (request ids, span propagation) lives in context.go.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one name/value pair attached to a metric series.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for building a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// DefLatencyBuckets is the default latency histogram layout, in
// seconds: 100µs to 60s, roughly logarithmic — wide enough for a warm
// cache hit and a maximum-size distributed sweep to land in different
// buckets.
var DefLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Counter is a monotonically increasing uint64. Inc/Add are one atomic
// add: zero allocations, safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 that can go up and down. Set is one atomic store;
// Add is a CAS loop over the float bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution of durations. Observe is a
// linear scan over the (small, fixed) bound slice, one atomic add for
// the bucket and one for the integer-nanosecond sum, and a load for the
// maximum (a CAS only when it grows) — no allocation, no lock. The
// exposition renders bounds and sum in seconds.
type Histogram struct {
	limits []time.Duration // the family's bucket bounds, exclusive of +Inf
	counts []atomic.Uint64 // len(limits)+1; last is the +Inf bucket
	sumNS  atomic.Int64    // running sum of observed durations
	maxNS  atomic.Int64    // largest observed duration
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	i := 0
	for i < len(h.limits) && d > h.limits[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumNS.Add(int64(d))
	for {
		max := h.maxNS.Load()
		if int64(d) <= max || h.maxNS.CompareAndSwap(max, int64(d)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed durations, exact to the
// nanosecond.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sumNS.Load()) }

// Max returns the largest observed duration (0 before any).
func (h *Histogram) Max() time.Duration { return time.Duration(h.maxNS.Load()) }

// metric kinds, mapped onto exposition TYPE names.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// child is one labeled series of a family. Exactly one of the value
// fields is set, matching the family's kind (fn covers both Func
// variants — the kind decides the TYPE line).
type child struct {
	labels  []Label
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64
}

// family is one metric name: its metadata plus every labeled series.
type family struct {
	name    string
	help    string
	kind    metricKind
	buckets []float64 // histograms only

	mu       sync.Mutex
	children map[string]*child
}

// Registry holds metric families and renders them. All methods are
// safe for concurrent use; instrument handles returned from the New*
// methods are valid forever.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// validMetricName reports [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// validLabelName reports [a-zA-Z_][a-zA-Z0-9_]*, excluding the
// reserved "__" prefix.
func validLabelName(s string) bool {
	if s == "" || (len(s) >= 2 && s[0] == '_' && s[1] == '_') {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// signature keys a label set inside a family. Labels are sorted by
// name first, so registration order never splits a series.
func signature(labels []Label) string {
	var b []byte
	for _, l := range labels {
		b = append(b, l.Name...)
		b = append(b, 0xff)
		b = append(b, l.Value...)
		b = append(b, 0xfe)
	}
	return string(b)
}

// sortLabels returns a name-sorted copy.
func sortLabels(labels []Label) []Label {
	out := make([]Label, len(labels))
	copy(out, labels)
	sort.Slice(out, func(i, k int) bool { return out[i].Name < out[k].Name })
	return out
}

// register validates one instrument and publishes c, whose value field
// is already set, as its series: a concurrent scrape may render it at
// once. Misuse — bad names, redefining a family with a different type,
// help or bucket layout, registering the same series twice — panics:
// these are programming errors at construction time, not runtime
// conditions.
func (r *Registry) register(name, help string, kind metricKind, buckets []float64, labels []Label, c *child) {
	if !validMetricName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	labels = sortLabels(labels)
	for i, l := range labels {
		if !validLabelName(l.Name) {
			panic(fmt.Sprintf("telemetry: metric %s: invalid label name %q", name, l.Name))
		}
		if kind == kindHistogram && l.Name == "le" {
			panic(fmt.Sprintf("telemetry: metric %s: label \"le\" is reserved for histogram buckets", name))
		}
		if i > 0 && labels[i-1].Name == l.Name {
			panic(fmt.Sprintf("telemetry: metric %s: duplicate label name %q", name, l.Name))
		}
	}
	if kind == kindHistogram {
		if len(buckets) == 0 {
			panic(fmt.Sprintf("telemetry: histogram %s: no buckets", name))
		}
		for i, b := range buckets {
			if math.IsNaN(b) || math.IsInf(b, 0) {
				panic(fmt.Sprintf("telemetry: histogram %s: bucket bound %v is not finite (+Inf is implicit)", name, b))
			}
			if i > 0 && b <= buckets[i-1] {
				panic(fmt.Sprintf("telemetry: histogram %s: bucket bounds not strictly increasing at %v", name, b))
			}
		}
	}
	r.mu.Lock()
	f := r.families[name]
	if f == nil {
		f = &family{
			name:     name,
			help:     help,
			kind:     kind,
			buckets:  append([]float64(nil), buckets...),
			children: make(map[string]*child),
		}
		r.families[name] = f
	}
	r.mu.Unlock()
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %s redefined as %s (was %s)", name, kind, f.kind))
	}
	if f.help != help {
		panic(fmt.Sprintf("telemetry: metric %s redefined with different help", name))
	}
	if !slices.Equal(f.buckets, buckets) {
		panic(fmt.Sprintf("telemetry: histogram %s: series registered with different bucket layout", name))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	sig := signature(labels)
	if _, dup := f.children[sig]; dup {
		panic(fmt.Sprintf("telemetry: duplicate series %s%s", name, renderLabels(nil, labels, "")))
	}
	c.labels = labels
	f.children[sig] = c
}

// NewCounter registers a counter series and returns its handle.
func (r *Registry) NewCounter(name, help string, labels ...Label) *Counter {
	c := &child{counter: &Counter{}}
	r.register(name, help, kindCounter, nil, labels, c)
	return c.counter
}

// NewGauge registers a gauge series and returns its handle.
func (r *Registry) NewGauge(name, help string, labels ...Label) *Gauge {
	c := &child{gauge: &Gauge{}}
	r.register(name, help, kindGauge, nil, labels, c)
	return c.gauge
}

// NewHistogram registers a histogram series with the given upper
// bounds in seconds (+Inf is implicit) and returns its handle; bounds
// are compared against observations to the nanosecond. Series of the
// same family must be registered with identical bounds.
func (r *Registry) NewHistogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	limits := make([]time.Duration, len(buckets))
	for i, b := range buckets {
		limits[i] = time.Duration(math.Round(b * float64(time.Second)))
	}
	c := &child{hist: &Histogram{limits: limits, counts: make([]atomic.Uint64, len(buckets)+1)}}
	r.register(name, help, kindHistogram, buckets, labels, c)
	return c.hist
}

// NewCounterFunc registers a counter series whose value is read from fn
// at scrape time — the bridge for subsystems that already maintain
// their own monotone counters. fn must be safe for concurrent use.
func (r *Registry) NewCounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindCounter, nil, labels, &child{fn: fn})
}

// NewGaugeFunc registers a gauge series read from fn at scrape time.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindGauge, nil, labels, &child{fn: fn})
}

// Unregister removes one series, so a source that goes away stops
// being scraped and the same series may be registered again later. A
// family left with no series renders nothing; a handle to the removed
// series stays usable but is no longer read.
func (r *Registry) Unregister(name string, labels ...Label) {
	r.mu.Lock()
	f := r.families[name]
	r.mu.Unlock()
	if f != nil {
		f.mu.Lock()
		delete(f.children, signature(sortLabels(labels)))
		f.mu.Unlock()
	}
}

// appendEscaped appends s with the exposition escapes: backslash and
// newline always, double quote when quote is set (label values).
func appendEscaped(b []byte, s string, quote bool) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '\\':
			b = append(b, '\\', '\\')
		case c == '\n':
			b = append(b, '\\', 'n')
		case c == '"' && quote:
			b = append(b, '\\', '"')
		default:
			b = append(b, c)
		}
	}
	return b
}

// renderLabels appends a {name="value",...} block (empty labels render
// nothing). le, when non-empty, is appended as the trailing bucket
// label; leInf marks the +Inf bucket.
func renderLabels(b []byte, labels []Label, le string) []byte {
	if len(labels) == 0 && le == "" {
		return b
	}
	b = append(b, '{')
	for i, l := range labels {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, l.Name...)
		b = append(b, '=', '"')
		b = appendEscaped(b, l.Value, true)
		b = append(b, '"')
	}
	if le != "" {
		if len(labels) > 0 {
			b = append(b, ',')
		}
		b = append(b, `le="`...)
		b = append(b, le...)
		b = append(b, '"')
	}
	b = append(b, '}')
	return b
}

// formatBound renders a bucket bound the shortest way float64 allows.
func formatBound(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// appendFloat renders a sample value.
func appendFloat(b []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(b, "+Inf"...)
	case math.IsInf(v, -1):
		return append(b, "-Inf"...)
	case math.IsNaN(v):
		return append(b, "NaN"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// WritePrometheus renders every family in text exposition format
// 0.0.4: families sorted by name, series sorted by label signature,
// one HELP and one TYPE line per family. The whole page is built in
// one buffer and written with a single Write.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	var b []byte
	for _, f := range fams {
		b = f.render(b)
	}
	_, err := w.Write(b)
	return err
}

// render appends one family's HELP/TYPE block and every series.
func (f *family) render(b []byte) []byte {
	f.mu.Lock()
	sigs := make([]string, 0, len(f.children))
	for sig := range f.children {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	children := make([]*child, 0, len(sigs))
	for _, sig := range sigs {
		children = append(children, f.children[sig])
	}
	f.mu.Unlock()
	if len(children) == 0 {
		return b
	}
	b = append(b, "# HELP "...)
	b = append(b, f.name...)
	b = append(b, ' ')
	b = appendEscaped(b, f.help, false)
	b = append(b, '\n')
	b = append(b, "# TYPE "...)
	b = append(b, f.name...)
	b = append(b, ' ')
	b = append(b, f.kind.String()...)
	b = append(b, '\n')
	for _, c := range children {
		switch {
		case c.hist != nil:
			b = f.renderHistogram(b, c)
		default:
			b = append(b, f.name...)
			b = renderLabels(b, c.labels, "")
			b = append(b, ' ')
			switch {
			case c.counter != nil:
				b = strconv.AppendUint(b, c.counter.Value(), 10)
			case c.gauge != nil:
				b = appendFloat(b, c.gauge.Value())
			default:
				b = appendFloat(b, c.fn())
			}
			b = append(b, '\n')
		}
	}
	return b
}

// renderHistogram appends one series' cumulative buckets, sum, and
// count. Bucket counts are loaded once and accumulated, so the emitted
// cumulative sequence is monotone and le="+Inf" equals _count by
// construction even under concurrent observes.
func (f *family) renderHistogram(b []byte, c *child) []byte {
	h := c.hist
	var cum uint64
	for i, bound := range f.buckets {
		cum += h.counts[i].Load()
		b = append(b, f.name...)
		b = append(b, "_bucket"...)
		b = renderLabels(b, c.labels, formatBound(bound))
		b = append(b, ' ')
		b = strconv.AppendUint(b, cum, 10)
		b = append(b, '\n')
	}
	cum += h.counts[len(f.buckets)].Load()
	b = append(b, f.name...)
	b = append(b, "_bucket"...)
	b = renderLabels(b, c.labels, "+Inf")
	b = append(b, ' ')
	b = strconv.AppendUint(b, cum, 10)
	b = append(b, '\n')
	b = append(b, f.name...)
	b = append(b, "_sum"...)
	b = renderLabels(b, c.labels, "")
	b = append(b, ' ')
	b = appendFloat(b, float64(h.Sum())/float64(time.Second))
	b = append(b, '\n')
	b = append(b, f.name...)
	b = append(b, "_count"...)
	b = renderLabels(b, c.labels, "")
	b = append(b, ' ')
	b = strconv.AppendUint(b, cum, 10)
	b = append(b, '\n')
	return b
}
