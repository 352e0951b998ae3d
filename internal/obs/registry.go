// Package obs is the query plane's observability layer: a
// dependency-free metrics registry (atomic counters, gauges,
// fixed-bucket histograms, labeled families) with Prometheus-text
// exposition, plus per-query execution traces that aggregate into
// Profiles (see trace.go).
//
// The registry is deliberately small. Metric types are concrete (no
// interface soup), registration is get-or-create so hot paths can
// re-resolve a family without bookkeeping, and exposition output is
// deterministic (families and label values sorted) so it can be
// golden-tested. Polled families (CounterFunc, GaugeFunc,
// CounterVecFunc) read their value at scrape time, which lets existing
// atomic counters — service stats, cluster.Metrics byte totals, kernel
// selection counts — surface without double accounting.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds metric families and renders them in Prometheus text
// format. All methods are safe for concurrent use. Registration is
// get-or-create: asking for an existing name returns the existing
// collector (the help string of the first registration wins).
// Registering the same name as a different metric type panics — that
// is a programming error, not a runtime condition.
type Registry struct {
	mu  sync.Mutex
	fam map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fam: make(map[string]*family)}
}

// family is one exposition block: a # HELP/# TYPE header plus the
// collectors that render under it.
type family struct {
	name string
	help string
	typ  string // "counter", "gauge", "histogram"
	kind string // concrete Go kind, for mismatch detection

	counter *Counter
	gauge   *Gauge
	hist    *Histogram

	counterFn func() int64
	gaugeFn   func() float64

	// Labeled variants. label is the single label name; children are
	// keyed by label value.
	label   string
	mu      sync.Mutex
	cvec    map[string]*Counter
	hvec    map[string]*Histogram
	cvecFn  func() map[string]int64
	gvecFn  func() map[string]float64
	buckets []float64
}

func (r *Registry) family(name, help, typ, kind string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fam[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, f.kind))
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ, kind: kind}
	r.fam[name] = f
	return f
}

// Counter is a monotonically increasing int64.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the exposition to stay monotone; this
// is not enforced).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Counter registers (or fetches) a counter family with one unlabeled
// series.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.family(name, help, "counter", "counter")
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.counter == nil {
		f.counter = &Counter{}
	}
	return f.counter
}

// CounterFunc registers a counter family whose value is read from fn
// at scrape time. Re-registering an existing name replaces the
// function (last writer wins), which keeps service restarts in tests
// idempotent.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	f := r.family(name, help, "counter", "counterfunc")
	f.mu.Lock()
	f.counterFn = fn
	f.mu.Unlock()
}

// Gauge is a float64 that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d (CAS loop; fine for low-rate gauges).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Gauge registers (or fetches) a gauge family with one unlabeled
// series.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.family(name, help, "gauge", "gauge")
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.gauge == nil {
		f.gauge = &Gauge{}
	}
	return f.gauge
}

// GaugeFunc registers a gauge family read from fn at scrape time.
// Like CounterFunc, re-registration replaces the function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.family(name, help, "gauge", "gaugefunc")
	f.mu.Lock()
	f.gaugeFn = fn
	f.mu.Unlock()
}

// DefLatencyBuckets is the default histogram shape for request/query
// latencies: 50µs to 10s, roughly 3 buckets per decade.
var DefLatencyBuckets = []float64{
	0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram of float64 observations.
// Buckets are cumulative at exposition time (Prometheus convention);
// internally each slot counts only its own range so Observe is a
// single atomic add.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf implicit
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Histogram registers (or fetches) a histogram family with one
// unlabeled series. buckets must be ascending; nil means
// DefLatencyBuckets. The bucket shape of the first registration wins.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefLatencyBuckets
	}
	f := r.family(name, help, "histogram", "histogram")
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.hist == nil {
		f.hist = newHistogram(buckets)
	}
	return f.hist
}

// CounterVec is a counter family with one label dimension.
type CounterVec struct{ f *family }

// With returns the child counter for a label value, creating it on
// first use.
func (v CounterVec) With(value string) *Counter {
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	c, ok := v.f.cvec[value]
	if !ok {
		c = &Counter{}
		v.f.cvec[value] = c
	}
	return c
}

// CounterVec registers (or fetches) a labeled counter family.
func (r *Registry) CounterVec(name, help, label string) CounterVec {
	f := r.family(name, help, "counter", "countervec")
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.cvec == nil {
		f.cvec = make(map[string]*Counter)
		f.label = label
	}
	return CounterVec{f: f}
}

// CounterVecFunc registers a labeled counter family whose series are
// read from fn at scrape time (one series per map key).
// Re-registration replaces the function.
func (r *Registry) CounterVecFunc(name, help, label string, fn func() map[string]int64) {
	f := r.family(name, help, "counter", "countervecfunc")
	f.mu.Lock()
	f.label = label
	f.cvecFn = fn
	f.mu.Unlock()
}

// GaugeVecFunc registers a labeled gauge family whose series are read
// from fn at scrape time (one series per map key) — the labeled
// companion of GaugeFunc, used for per-machine cluster health views.
// Re-registration replaces the function.
func (r *Registry) GaugeVecFunc(name, help, label string, fn func() map[string]float64) {
	f := r.family(name, help, "gauge", "gaugevecfunc")
	f.mu.Lock()
	f.label = label
	f.gvecFn = fn
	f.mu.Unlock()
}

// HistogramVec is a histogram family with one label dimension; all
// children share the bucket shape.
type HistogramVec struct{ f *family }

// With returns the child histogram for a label value, creating it on
// first use.
func (v HistogramVec) With(value string) *Histogram {
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	h, ok := v.f.hvec[value]
	if !ok {
		h = newHistogram(v.f.buckets)
		v.f.hvec[value] = h
	}
	return h
}

// HistogramVec registers (or fetches) a labeled histogram family.
// buckets of the first registration win; nil means DefLatencyBuckets.
func (r *Registry) HistogramVec(name, help, label string, buckets []float64) HistogramVec {
	if buckets == nil {
		buckets = DefLatencyBuckets
	}
	f := r.family(name, help, "histogram", "histogramvec")
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.hvec == nil {
		f.hvec = make(map[string]*Histogram)
		f.label = label
		f.buckets = buckets
	}
	return HistogramVec{f: f}
}

// WritePrometheus renders every family in Prometheus text exposition
// format. Output is deterministic: families sort by name, labeled
// series by label value. It is WriteFleet with no worker snapshots.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return WriteFleet(w, r, nil)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fmtFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// Handler returns an http.Handler serving the registry in Prometheus
// text format (for GET /metrics).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
