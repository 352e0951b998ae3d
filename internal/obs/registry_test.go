package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestRegistryGolden locks the exposition format: family ordering,
// HELP/TYPE headers, histogram cumulative buckets, label quoting, help
// escaping, and empty labeled families, over all nine family kinds.
func TestRegistryGolden(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("app_requests_total", "Requests served.")
	c.Add(3)
	g := reg.Gauge("app_temperature", "Current temperature.")
	g.Set(36.6)
	h := reg.Histogram("app_latency_seconds", "Request latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	v := reg.CounterVec("app_bytes_total", "Bytes by kind.", "kind")
	v.With("verifyE").Add(10)
	v.With("fetchV").Add(20)
	hv := reg.HistogramVec("app_rpc_seconds", "RPC latency by kind.", "kind", []float64{1})
	hv.With("ping").Observe(0.25)
	reg.GaugeFunc("app_running", "Live count.", func() float64 { return 2 })
	reg.CounterFunc("app_polled_total", "Polled counter.", func() int64 { return 7 })
	reg.CounterVecFunc("app_kinds_total", "Polled vec.", "kind",
		func() map[string]int64 { return map[string]int64{"b": 2, "a": 1} })
	reg.GaugeVecFunc("app_up", "Liveness by machine.", "machine",
		func() map[string]float64 { return map[string]float64{"1": 0, "0": 1.5} })
	reg.CounterVec("app_empty_total", "Empty vec.", "kind")
	reg.HistogramVec("app_empty_seconds", "Empty histogram vec.", "kind", nil)
	reg.Gauge("app_escaped", "A back\\slash and\na newline.")

	want := `# HELP app_bytes_total Bytes by kind.
# TYPE app_bytes_total counter
app_bytes_total{kind="fetchV"} 20
app_bytes_total{kind="verifyE"} 10
# HELP app_empty_seconds Empty histogram vec.
# TYPE app_empty_seconds histogram
# HELP app_empty_total Empty vec.
# TYPE app_empty_total counter
# HELP app_escaped A back\\slash and\na newline.
# TYPE app_escaped gauge
app_escaped 0
# HELP app_kinds_total Polled vec.
# TYPE app_kinds_total counter
app_kinds_total{kind="a"} 1
app_kinds_total{kind="b"} 2
# HELP app_latency_seconds Request latency.
# TYPE app_latency_seconds histogram
app_latency_seconds_bucket{le="0.1"} 1
app_latency_seconds_bucket{le="1"} 2
app_latency_seconds_bucket{le="+Inf"} 3
app_latency_seconds_sum 5.55
app_latency_seconds_count 3
# HELP app_polled_total Polled counter.
# TYPE app_polled_total counter
app_polled_total 7
# HELP app_requests_total Requests served.
# TYPE app_requests_total counter
app_requests_total 3
# HELP app_rpc_seconds RPC latency by kind.
# TYPE app_rpc_seconds histogram
app_rpc_seconds_bucket{kind="ping",le="1"} 1
app_rpc_seconds_bucket{kind="ping",le="+Inf"} 1
app_rpc_seconds_sum{kind="ping"} 0.25
app_rpc_seconds_count{kind="ping"} 1
# HELP app_running Live count.
# TYPE app_running gauge
app_running 2
# HELP app_temperature Current temperature.
# TYPE app_temperature gauge
app_temperature 36.6
# HELP app_up Liveness by machine.
# TYPE app_up gauge
app_up{machine="0"} 1.5
app_up{machine="1"} 0
`
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", b.String(), want)
	}
}

// TestRegistryGetOrCreate verifies registration is idempotent and
// returns the same collector.
func TestRegistryGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "first help wins")
	b := reg.Counter("x_total", "ignored")
	if a != b {
		t.Fatal("Counter not get-or-create")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatalf("shared counter: got %d, want 1", b.Value())
	}
	h1 := reg.Histogram("h_seconds", "", []float64{1, 2})
	h2 := reg.Histogram("h_seconds", "", nil)
	if h1 != h2 {
		t.Fatal("Histogram not get-or-create")
	}
	v1 := reg.CounterVec("v_total", "", "kind")
	v2 := reg.CounterVec("v_total", "", "kind")
	if v1.With("a") != v2.With("a") {
		t.Fatal("CounterVec child not shared")
	}
}

// TestRegistryTypeMismatchPanics verifies re-registering a name as a
// different metric type is a loud programming error.
func TestRegistryTypeMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on type mismatch")
		}
	}()
	reg.Gauge("x_total", "")
}

// TestRegistryConcurrency hammers every collector type from many
// goroutines while scraping; run with -race. Totals are verified
// afterwards.
func TestRegistryConcurrency(t *testing.T) {
	reg := NewRegistry()
	const goroutines = 16
	const perG = 2000

	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Re-resolve families each iteration: get-or-create must be
			// contention-safe too.
			for j := 0; j < perG; j++ {
				reg.Counter("c_total", "").Inc()
				reg.Gauge("g", "").Add(1)
				reg.Histogram("h_seconds", "", nil).Observe(float64(j%10) / 100)
				reg.CounterVec("cv_total", "", "kind").With("k" + string(rune('a'+id%3))).Inc()
				reg.HistogramVec("hv_seconds", "", "kind", nil).With("k").Observe(0.001)
			}
		}(i)
	}
	// Concurrent scrapes must not race with writers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var b strings.Builder
			_ = reg.WritePrometheus(&b)
		}
	}()
	wg.Wait()
	<-done

	const total = goroutines * perG
	if got := reg.Counter("c_total", "").Value(); got != total {
		t.Errorf("counter: got %d, want %d", got, total)
	}
	if got := reg.Gauge("g", "").Value(); got != total {
		t.Errorf("gauge: got %v, want %d", got, total)
	}
	if got := reg.Histogram("h_seconds", "", nil).Count(); got != total {
		t.Errorf("histogram count: got %d, want %d", got, total)
	}
	var vecSum int64
	for _, k := range []string{"ka", "kb", "kc"} {
		vecSum += reg.CounterVec("cv_total", "", "kind").With(k).Value()
	}
	if vecSum != total {
		t.Errorf("countervec sum: got %d, want %d", vecSum, total)
	}
	hv := reg.HistogramVec("hv_seconds", "", "kind", nil).With("k")
	if hv.Count() != total {
		t.Errorf("histogramvec count: got %d, want %d", hv.Count(), total)
	}
	if math.Abs(hv.Sum()-float64(total)*0.001) > 1e-6 {
		t.Errorf("histogramvec sum: got %v", hv.Sum())
	}
}

// TestHistogramBuckets verifies bucket boundary placement (le is
// inclusive).
func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	h.Observe(1)   // le="1"
	h.Observe(1.5) // le="2"
	h.Observe(3)   // +Inf
	var b strings.Builder
	writeSeries(&b, "h", "histogram", "", "", snapshotHistogram("", h))
	want := `h_bucket{le="1"} 1
h_bucket{le="2"} 2
h_bucket{le="+Inf"} 3
h_sum 5.5
h_count 3
`
	if b.String() != want {
		t.Errorf("got:\n%s\nwant:\n%s", b.String(), want)
	}
}
