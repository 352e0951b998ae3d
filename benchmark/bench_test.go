package main

import (
	"bytes"
	"context"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sync"
	"testing"
	"time"
)

func TestMedianAndQuantile(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{7}, 0.99, 7},
		{[]float64{0, 10}, 0.25, 2.5},
		{nil, 0.5, 0},
	} {
		if got := quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
}

// The tail is the highest percentile with at least ten samples beyond
// it, no higher than the one the workload nominally supports.
func TestTailQuantile(t *testing.T) {
	// The nominal percentiles must themselves obey the rule at the
	// sample counts a 25 s window yields on the reference box.
	for workload, n := range map[string]int{"enum_local": 33, "enum_tcp": 27, "serve_http": 60000, "census_k4": 240} {
		if got := tailQuantile(n, tailOf[workload]); got != tailOf[workload] {
			t.Errorf("%s: %d samples support p%g, tailOf says p%g", workload, n, got*100, tailOf[workload]*100)
		}
		if _, ok := workloads[workload]; !ok || len(tailOf) != len(workloads) {
			t.Errorf("tailOf and workloads disagree on %s", workload)
		}
	}
	for _, c := range []struct {
		n     int
		limit float64
		want  float64
	}{
		{5, 0.99, 0.5},  // five passes: nothing above the median qualifies
		{19, 0.99, 0.5}, // 9.5 samples beyond the median: still not ten
		{20, 0.99, 0.5},
		{40, 0.99, 0.75},
		{100, 0.99, 0.9},
		{200, 0.99, 0.95},
		{999, 0.99, 0.95},
		{1000, 0.99, 0.99},
		{50000, 0.99, 0.99}, // capped: p99.9 qualifies but is not gated
		{50000, 0.999, 0.999},
		{9999, 0.999, 0.99},
	} {
		if got := tailQuantile(c.n, c.limit); got != c.want {
			t.Errorf("tailQuantile(%d, %v) = %v, want %v", c.n, c.limit, got, c.want)
		}
	}
}

// quartileSpread must agree with Python's statistics.quantiles(n=4),
// which is what the acceptance driver computes.
func TestQuartileSpread(t *testing.T) {
	xs := []float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9} // quartiles 2.75, 5.5, 8.25
	if got := quartileSpread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	// Two values: Python extrapolates, quartiles 0.75 and 2.25 of [1, 2].
	if got := quartileSpread([]float64{1, 2}); math.Abs(got-1) > 1e-12 {
		t.Errorf("two-value spread = %v, want 1", got)
	}
	if got := quartileSpread([]float64{5}); got != 0 {
		t.Errorf("single value spread = %v, want 0", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "engine.Run", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "a.x", StartNs: 10, EndNs: 30},
		{ID: 3, Parent: 1, Name: "a.y", StartNs: 20, EndNs: 50},  // overlaps span 2: counted once
		{ID: 4, Parent: 1, Name: "b.z", StartNs: 60, EndNs: 120}, // outlives the parent: clipped
		{ID: 5, Parent: 3, Name: "c.w", StartNs: 25, EndNs: 45},
	}
	selfTimes(spans)
	for id, want := range map[int]int64{1: 20, 2: 20, 3: 10, 4: 60, 5: 20} {
		if got := spans[id-1].SelfNs; got != want {
			t.Errorf("span %d self = %d, want %d", id, got, want)
		}
	}
	layers := layerTotals(spans)
	if l := layers["a"]; l.Spans != 2 || math.Abs(l.SelfSeconds-30e-9) > 1e-15 {
		t.Errorf("layer a = %+v", l)
	}

	var rec *recorder // nil: an untraced run records nothing and must not panic
	rec.do(0, 0, "x", func(id int) { rec.end(rec.start(id, 0, "y")) })
	if rec.finish() != nil {
		t.Error("nil recorder produced spans")
	}
	live := newRecorder()
	live.do(0, 7, "outer.call", func(id int) { live.start(id, 7, "inner.call") }) // inner left open
	got := live.finish()
	if len(got) != 2 || got[1].Parent != got[0].ID || got[1].EndNs < got[1].StartNs || got[1].Request != 7 {
		t.Errorf("recorded spans: %+v", got)
	}
}

func TestJudgeBounds(t *testing.T) {
	spec := &benchSpec{EndToEnd: []metricDef{
		{Name: "lat", Unit: "ms", Better: "lower", Bound: 0.1},
		{Name: "qps", Unit: "1/s", Better: "higher", Bound: 0.1},
	}}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	runs := func(lat, qps []float64) []runRecord {
		var out []runRecord
		for i := range lat {
			out = append(out, runRecord{Workload: "w", Metrics: map[string]metric{"lat": {Value: lat[i]}, "qps": {Value: qps[i]}}})
		}
		return out
	}
	verdicts := func(a, b []runRecord) map[string]string {
		out := map[string]string{}
		for _, c := range judge(spec, a, b) {
			out[c.metric] = c.verdict
		}
		return out
	}
	base := runs([]float64{100}, []float64{50})
	for _, c := range []struct {
		name     string
		b        []runRecord
		lat, qps string
	}{
		{"within bound", runs([]float64{109}, []float64{46}), verdictOK, verdictOK},
		{"worse beyond bound", runs([]float64{111}, []float64{44}), verdictRegression, verdictRegression},
		{"better beyond bound", runs([]float64{80}, []float64{60}), verdictImproved, verdictImproved},
	} {
		got := verdicts(base, c.b)
		if got["lat"] != c.lat || got["qps"] != c.qps {
			t.Errorf("%s: got %v", c.name, got)
		}
	}
	// Spread wider than the bound: a small difference is unresolved,
	// not unchanged; a regression beyond the bound is still one.
	noisy := runs([]float64{80, 100, 120, 100}, []float64{50, 50, 50, 50})
	if got := verdicts(noisy, runs([]float64{104}, []float64{50})); got["lat"] != verdictUnresolved || got["qps"] != verdictOK {
		t.Errorf("noisy baseline: got %v", got)
	}
	if got := verdicts(noisy, runs([]float64{130}, []float64{50})); got["lat"] != verdictRegression {
		t.Errorf("noisy baseline, clear regression: got %v", got)
	}
	// A traced run or an n/a value is no end-to-end sample.
	traced := []runRecord{{Workload: "w", Trace: true, Metrics: map[string]metric{"lat": {Value: 1}, "qps": {NA: "x"}}}}
	if got := verdicts(base, traced); got["lat"] != verdictMissing || got["qps"] != verdictMissing {
		t.Errorf("missing: got %v", got)
	}
	var buf bytes.Buffer
	if bad := printComparison(&buf, spec, base, runs([]float64{150}, []float64{50})); bad != 1 {
		t.Errorf("out-of-bound comparison not reported:\n%s", buf.String())
	}
	if bad := printComparison(&buf, spec, base, base); bad != 0 {
		t.Errorf("identical sets: %d findings", bad)
	}
	failed := runs([]float64{100}, []float64{50})
	failed[0].Failed, failed[0].Attempted = 1, 10
	if bad := printComparison(&buf, spec, base, failed); bad != 1 {
		t.Error("a set with failed operations passed")
	}
	// Where the tail is the median again, the pair is judged once: the
	// regression is one finding, not two.
	spec.EndToEnd[0].Name, spec.EndToEnd[1].Name = "lat_p50_ms", "lat_tail_ms"
	spec.Workloads[0].Name = "enum_local"
	dup := func(v float64) []runRecord {
		return []runRecord{{Workload: "enum_local", Metrics: map[string]metric{"lat_p50_ms": {Value: v}, "lat_tail_ms": {Value: v}}}}
	}
	if got := verdicts(dup(100), dup(150)); got["lat_p50_ms"] != verdictRegression || got["lat_tail_ms"] != verdictSame {
		t.Errorf("duplicate tail: got %v", got)
	}
	if bad := printComparison(&buf, spec, dup(100), dup(150)); bad != 1 {
		t.Errorf("duplicate tail counted %d times", bad)
	}
}

// Same seed, byte-identical inputs; another seed, other inputs.
func TestSeedDrivesInputs(t *testing.T) {
	cfg := sizes["tiny"]
	if !bytes.Equal(enumEdgeList(cfg, 1), enumEdgeList(cfg, 1)) ||
		!bytes.Equal(serveEdgeList(cfg, 1), serveEdgeList(cfg, 1)) {
		t.Error("same seed gave different edge lists")
	}
	if bytes.Equal(enumEdgeList(cfg, 1), enumEdgeList(cfg, 2)) ||
		bytes.Equal(serveEdgeList(cfg, 1), serveEdgeList(cfg, 2)) {
		t.Error("different seeds gave the same edge list")
	}
	stream := func(seed int64, client int) (out []request) {
		next := requestStream(seed, client)
		for i := 0; i < 200; i++ {
			out = append(out, next())
		}
		return out
	}
	same := func(a, b []request) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if !same(stream(1, 0), stream(1, 0)) {
		t.Error("same seed gave different request streams")
	}
	if same(stream(1, 0), stream(2, 0)) || same(stream(1, 0), stream(1, 1)) {
		t.Error("different seeds or clients gave the same request stream")
	}
	noCache := 0
	for _, r := range stream(1, 0) {
		if r.noCache {
			noCache++
		}
	}
	if noCache < 5 || noCache > 45 {
		t.Errorf("%d of 200 requests bypass the cache, want about a tenth", noCache)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// BENCHMARK.json must stay inside the contract it is checked against
// and name exactly the workloads this program runs.
func TestSpecContract(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads listed, %d implemented", len(spec.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range spec.Workloads {
		name(w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not implemented", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: why has %d characters", w.Name, len(w.Why))
		}
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	setup := false
	for _, d := range spec.EndToEnd {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v", d)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range spec.PerLayer {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") || d.Bound != 0 {
			t.Errorf("per-layer metric %+v", d)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
}

var (
	radserveOnce sync.Once
	radserveBin  string
	radserveErr  error
)

// smokeOptions are the -size tiny options of one workload; serve_http
// is skipped when cmd/radserve cannot be built.
func smokeOptions(t *testing.T, workload string, seed int64, trace bool) options {
	t.Helper()
	repo, err := findRepo("")
	if err != nil {
		t.Fatal(err)
	}
	opt := options{workload: workload, seed: seed, seconds: 0.5, trace: trace, size: "tiny", repo: repo,
		traceOut: t.TempDir() + "/spans.json"}
	if workload == "serve_http" {
		if _, err := exec.LookPath("go"); err != nil {
			t.Skip("go toolchain unavailable: cannot build cmd/radserve")
		}
		radserveOnce.Do(func() { radserveBin, radserveErr = buildRadserve(context.Background(), repo) })
		if radserveErr != nil {
			t.Fatal(radserveErr)
		}
		opt.radserve = radserveBin
	}
	return opt
}

// Every workload runs end to end at -size tiny, untraced on one seed
// and traced on another, and every answer verifies on both.
func TestTinySmoke(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	// Layer metrics each workload must produce itself (not n/a).
	produced := map[string][]string{
		"enum_local": {"graph.kway_u32_ns", "localenum.pass_s", "plan.compute_us", "engine.adapter_overhead_ms",
			"rads.phase.group_s", "rads.tree_nodes", "rads.et_el_ratio", "rads.comm_mb", "dataset.ingest_s", "partition.kway_s", "obs.trace_overhead_ratio"},
		"enum_tcp": {"cluster.msgs.verifyE", "cluster.bytes.fetchV", "cluster.call_p99_us.verifyE", "cluster.ping_rtt_us",
			"cluster.wire_overhead_s", "rads.budget_local_pass_s", "rads.cache_hit_ratio", "snapshot.write_s", "snapshot.open_shards_s"},
		"serve_http": {"graph.intersect_generic_ns", "pattern.parse_canon_us", "service.hit_us", "service.miss_overhead_us",
			"service.cache_hit_ratio", "radserve.hit_p50_ms", "radserve.miss_p95_ms", "radserve.http_overhead_us", "radserve.boot_s"},
		"census_k4": {"census.subgraphs_per_s", "census.w1_pass_s", "census.speedup_w2", "dataset.open_s"},
	}
	reached := map[string][]string{
		"enum_local": {"rads.sme_share", "rads.phase.sme_s", "rads.phase.group_s", "graph.calls.merge_u32", "graph.calls.gallop_u32"},
		"enum_tcp":   {"rads.phase.sme_s", "graph.calls.merge_u32", "cluster.msgs.fetchV", "cluster.msgs.verifyE"},
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			rec, err := runWorkload(context.Background(), smokeOptions(t, w.Name, 1, false), spec)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("untraced: correct=%v attempted=%d failed=%d", rec.Correct, rec.Attempted, rec.Failed)
			}
			if len(rec.Metrics) != len(spec.EndToEnd) {
				t.Errorf("untraced run reported %d metrics, want the %d end-to-end ones", len(rec.Metrics), len(spec.EndToEnd))
			}
			for _, d := range spec.EndToEnd {
				if m := rec.Metrics[d.Name]; m.NA != "" || m.Value <= 0 || m.Unit != d.Unit {
					t.Errorf("end-to-end %s = %+v", d.Name, m)
				}
			}

			rec, err = runWorkload(context.Background(), smokeOptions(t, w.Name, 2, true), spec)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct || rec.Failed != 0 {
				t.Errorf("traced: correct=%v attempted=%d failed=%d", rec.Correct, rec.Attempted, rec.Failed)
			}
			if len(rec.Metrics) != len(spec.PerLayer) {
				t.Errorf("traced run reported %d metrics, want the %d per-layer ones", len(rec.Metrics), len(spec.PerLayer))
			}
			for _, name := range produced[w.Name] {
				if m, ok := rec.Metrics[name]; !ok || m.NA != "" {
					t.Errorf("layer metric %s = %+v, want a value", name, m)
				}
			}
			// The enum fixture exists to reach SM-E and, through it, the
			// CSR U32 kernels; a fixture that stops doing so makes the
			// workloads' stated reason false.
			for _, name := range reached[w.Name] {
				if m := rec.Metrics[name]; m.Value <= 0 {
					t.Errorf("layer metric %s = %+v, want > 0", name, m)
				}
			}
		})
	}
}

// An interrupted run returns promptly with an error and takes its
// radserve child down with it.
func TestInterruptTearsDown(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	opt := smokeOptions(t, "serve_http", 1, false)
	opt.seconds = 30
	// A private copy of the binary gives the child a command line no
	// other run on this machine shares, so pgrep can look for it.
	bin, err := os.ReadFile(opt.radserve)
	if err != nil {
		t.Fatal(err)
	}
	opt.radserve = filepath.Join(t.TempDir(), "radserve-interrupt-test")
	if err := os.WriteFile(opt.radserve, bin, 0o755); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	if _, err := runWorkload(ctx, opt, spec); err == nil {
		t.Error("interrupted run reported a result")
	}
	if d := time.Since(t0); d > 10*time.Second {
		t.Errorf("interrupted run took %v to return", d)
	}
	if out, err := exec.Command("pgrep", "-f", opt.radserve).Output(); err == nil && len(bytes.TrimSpace(out)) > 0 {
		t.Errorf("radserve child left behind: pids %s", bytes.TrimSpace(out))
	}
}
