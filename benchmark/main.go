// Command benchmark is the repository's benchmark: four workloads
// (enum_local, enum_tcp, serve_http, census_k4) measured from outside
// the program, every answer checked against an oracle computed at
// set-up, end-to-end metrics from an untraced run and per-layer
// metrics from a traced one. BENCHMARK.json at the repository root
// names the metrics, their units and the bounds; README.md in this
// directory is the glossary.
//
// It is a module of its own (so the root module's build and tests do
// not depend on it) whose import path sits under "rads", which is what
// lets it import rads/internal/... through the replace directive.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec mirrors BENCHMARK.json, the single list of metric names
// this program prints: a name missing from a run is printed as n/a, a
// name a run produces that the file does not list is an error.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(repo string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(repo, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// metric is one reported number. NA carries the reason when the
// workload cannot produce it (Value is then 0).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Min     float64 `json:"min,omitempty"`
	Max     float64 `json:"max,omitempty"`
	NA      string  `json:"na,omitempty"`
}

// provenance says where a result came from.
type provenance struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"git_commit"`
	When       string `json:"when"`
}

// runRecord is the result of one run of one workload.
type runRecord struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Trace      bool              `json:"trace"`
	Seconds    float64           `json:"seconds"`
	Size       string            `json:"size"`
	Correct    bool              `json:"correct"`
	Attempted  int64             `json:"attempted"`
	Failed     int64             `json:"failed"`
	Metrics    map[string]metric `json:"metrics"`
	Fixture    map[string]any    `json:"fixture"`
	Provenance provenance        `json:"provenance"`
}

// runSet is what -out files hold: runs appended one after another.
type runSet struct {
	Runs []runRecord `json:"runs"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	size     string
	out      string
	traceOut string // span file of a traced run; tests redirect it, the command writes .bench_build/trace-<workload>.json
	repo     string
	radserve string
}

// sizeCfg is everything that differs between the measured size and the
// -size tiny smoke the tests drive.
type sizeCfg struct {
	enumBlocks  int     // CSR fixture: power-law blocks
	enumBlockN  int     // CSR fixture: vertices per block
	tcpBudget   int64   // per-machine budget of enum_tcp, bytes
	commK       int     // serve graph: communities
	commSize    int     // serve graph: vertices per community
	commP       float64 // serve graph: in-community edge probability
	setupReps   int     // set-up repetitions behind setup_s
	minPasses   int     // timed passes at least, whatever -seconds says
	warmSeconds float64 // serve_http warm-up
	bruteN      int     // census brute-force sub-fixture vertices
	microPairs  int     // row pairs per kernel micro loop
	replay      int     // in-process replayed requests (serve_http traced)
	pings       int     // rads.Ping samples (enum_tcp traced)
}

var sizes = map[string]sizeCfg{
	"full": {enumBlocks: 6, enumBlockN: 400, tcpBudget: 1 << 19, commK: 36, commSize: 20, commP: 0.22,
		setupReps: 25, minPasses: 3, warmSeconds: 2, bruteN: 200, microPairs: 4096, replay: 4000, pings: 1000},
	"tiny": {enumBlocks: 4, enumBlockN: 75, tcpBudget: 1 << 18, commK: 6, commSize: 12, commP: 0.3,
		setupReps: 2, minPasses: 1, warmSeconds: 0.2, bruteN: 40, microPairs: 256, replay: 200, pings: 50},
}

// run is the state of one workload run.
type run struct {
	ctx  context.Context
	opt  options
	cfg  sizeCfg
	spec *benchSpec
	rec  *recorder // nil unless tracing
	tmp  string    // private temp dir, removed when the run ends

	attempted, failed atomic.Int64

	mu      sync.Mutex
	metrics map[string]metric
	stages  map[string][]float64 // set-up stage seconds by layer metric name
	fixture map[string]any
}

func (r *run) put(name string, v float64) {
	r.mu.Lock()
	r.metrics[name] = metric{Value: v, Samples: 1, Min: v, Max: v}
	r.mu.Unlock()
}

// putQ reports the q-quantile of xs with the sample count and range.
func (r *run) putQ(name string, xs []float64, q float64) {
	if len(xs) == 0 {
		return
	}
	lo, hi := minMax(xs)
	r.mu.Lock()
	r.metrics[name] = metric{Value: quantile(xs, q), Samples: len(xs), Min: lo, Max: hi}
	r.mu.Unlock()
}

func (r *run) na(name, reason string) {
	r.mu.Lock()
	r.metrics[name] = metric{NA: reason}
	r.mu.Unlock()
}

// failf counts one failed operation and says why on standard error.
func (r *run) failf(format string, args ...any) {
	r.failed.Add(1)
	fmt.Fprintf(os.Stderr, "FAIL "+format+"\n", args...)
}

// stage times one set-up stage: a span named after the call and a
// sample for the layer metric that reports it.
func (r *run) stage(parent int, spanName, metricName string, fn func() error) error {
	id := r.rec.start(parent, 0, spanName)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0).Seconds()
	r.rec.end(id)
	if metricName != "" {
		r.mu.Lock()
		r.stages[metricName] = append(r.stages[metricName], d)
		r.mu.Unlock()
	}
	return err
}

var workloads = map[string]func(*run) error{
	"enum_local": runEnumLocal,
	"enum_tcp":   runEnumTCP,
	"serve_http": runServeHTTP,
	"census_k4":  runCensus,
}

func main() {
	var opt options
	var trace int
	var compare bool
	flag.StringVar(&opt.workload, "workload", "all", "enum_local, enum_tcp, serve_http, census_k4 or all")
	flag.Int64Var(&opt.seed, "seed", 1, "workload seed: drives fixture labelling, the request stream and row sampling")
	flag.Float64Var(&opt.seconds, "seconds", 0, "timed window per run (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics (with -workload all: both)")
	flag.StringVar(&opt.size, "size", "full", "full, or tiny for the test smoke")
	flag.StringVar(&opt.out, "out", "", "append the run records to this JSON run-set")
	flag.StringVar(&opt.repo, "repo", "", "repository root (default: . or ..)")
	flag.StringVar(&opt.radserve, "radserve", "", "prebuilt cmd/radserve binary (default: build it)")
	flag.BoolVar(&compare, "compare", false, "compare two run-sets: -compare a.json b.json")
	flag.Parse()
	opt.trace = trace != 0

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := mainErr(ctx, opt, compare, flag.Args())
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr(ctx context.Context, opt options, compare bool, args []string) error {
	repo, err := findRepo(opt.repo)
	if err != nil {
		return err
	}
	opt.repo = repo
	spec, err := loadSpec(repo)
	if err != nil {
		return err
	}
	if compare {
		if len(args) != 2 {
			return errors.New("-compare needs two run-set files")
		}
		return compareFiles(os.Stdout, spec, args[0], args[1])
	}
	if opt.seconds <= 0 {
		opt.seconds = float64(spec.RunSeconds)
	}
	if _, ok := sizes[opt.size]; !ok {
		return fmt.Errorf("unknown -size %q", opt.size)
	}
	if opt.workload == "all" {
		return runAll(ctx, opt, spec)
	}
	rec, err := runWorkload(ctx, opt, spec)
	if err != nil {
		return err
	}
	printRecord(os.Stdout, spec, rec)
	if opt.out != "" {
		if err := appendRuns(opt.out, []runRecord{*rec}); err != nil {
			return err
		}
	}
	printResultLine(os.Stdout, rec)
	if !rec.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", rec.Workload, rec.Failed, rec.Attempted)
	}
	return nil
}

// findRepo locates the repository root: the directory holding the root
// module and BENCHMARK.json. The driver runs from the root; `go run .`
// inside benchmark/ runs one level below it.
func findRepo(flagged string) (string, error) {
	cands := []string{".", ".."}
	if flagged != "" {
		cands = []string{flagged}
	}
	for _, c := range cands {
		mod, err := os.ReadFile(filepath.Join(c, "go.mod"))
		if err != nil || !strings.HasPrefix(string(mod), "module rads\n") {
			continue
		}
		if _, err := os.Stat(filepath.Join(c, "BENCHMARK.json")); err != nil {
			continue
		}
		return filepath.Abs(c)
	}
	return "", errors.New("repository root (go.mod of module rads plus BENCHMARK.json) not found; run from the root or pass -repo")
}

// runWorkload runs one workload once and returns its record. All
// resources the run creates — temp dirs, listeners, clients, the
// radserve child — are released before it returns, on every path.
func runWorkload(ctx context.Context, opt options, spec *benchSpec) (*runRecord, error) {
	fn, ok := workloads[opt.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", opt.workload)
	}
	if err := os.MkdirAll(filepath.Join(opt.repo, ".bench_build"), 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(filepath.Join(opt.repo, ".bench_build"), "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	r := &run{ctx: ctx, opt: opt, cfg: sizes[opt.size], spec: spec, tmp: tmp,
		metrics: make(map[string]metric), stages: make(map[string][]float64), fixture: make(map[string]any)}
	if opt.trace {
		r.rec = newRecorder()
	}
	if err := fn(r); err != nil {
		return nil, fmt.Errorf("%s: %w", opt.workload, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%s: interrupted: %w", opt.workload, err)
	}
	if opt.trace {
		for name, xs := range r.stages {
			r.putQ(name, xs, 0.5)
		}
		spans := r.rec.finish()
		path := opt.traceOut
		if path == "" {
			path = filepath.Join(opt.repo, ".bench_build", "trace-"+opt.workload+".json")
		}
		if err := writeSpans(path, opt.workload, spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "%d spans written to %s\n", len(spans), path)
	}
	return r.record()
}

// record keeps exactly the metrics BENCHMARK.json lists for this kind
// of run, filling the ones the workload did not produce with n/a.
func (r *run) record() (*runRecord, error) {
	defs := r.spec.EndToEnd
	if r.opt.trace {
		defs = r.spec.PerLayer
	}
	listed := make(map[string]bool, len(r.spec.EndToEnd)+len(r.spec.PerLayer))
	for _, d := range r.spec.EndToEnd {
		listed[d.Name] = true
	}
	for _, d := range r.spec.PerLayer {
		listed[d.Name] = true
	}
	for name := range r.metrics {
		if !listed[name] {
			return nil, fmt.Errorf("metric %q is not listed in BENCHMARK.json", name)
		}
	}
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		m, ok := r.metrics[d.Name]
		if !ok {
			m = metric{NA: "layer not crossed by " + r.opt.workload}
		}
		m.Unit = d.Unit
		out[d.Name] = m
	}
	attempted, failed := r.attempted.Load(), r.failed.Load()
	if attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	return &runRecord{
		Workload: r.opt.workload, Seed: r.opt.seed, Trace: r.opt.trace, Seconds: r.opt.seconds, Size: r.opt.size,
		Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: out, Fixture: r.fixture, Provenance: provenanceOf(r.opt.repo),
	}, nil
}

func provenanceOf(repo string) provenance {
	commit := "unknown"
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = repo
	if b, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	return provenance{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit: commit, When: time.Now().UTC().Format(time.RFC3339),
	}
}

// runAll re-executes this binary once per workload (and once more,
// traced, under -trace 1) so that heap and GC state never leak from
// one workload into the next.
func runAll(ctx context.Context, opt options, spec *benchSpec) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if opt.radserve == "" {
		if opt.radserve, err = buildRadserve(ctx, opt.repo); err != nil {
			return err
		}
	}
	collect := filepath.Join(opt.repo, ".bench_build", fmt.Sprintf("all-%d.json", os.Getpid()))
	defer os.Remove(collect)

	traceArgs := []string{"0"}
	if opt.trace {
		traceArgs = append(traceArgs, "1")
	}
	var failed []string
	for _, w := range spec.Workloads {
		for _, trace := range traceArgs {
			cmd := exec.CommandContext(ctx, self, "-workload", w.Name, "-seed", fmt.Sprint(opt.seed),
				"-seconds", fmt.Sprint(opt.seconds), "-trace", trace, "-size", opt.size,
				"-repo", opt.repo, "-radserve", opt.radserve, "-out", collect)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
			cmd.WaitDelay = 10 * time.Second
			if err := cmd.Run(); err != nil {
				failed = append(failed, fmt.Sprintf("%s (-trace %s): %v", w.Name, trace, err))
			}
			if err := ctx.Err(); err != nil {
				return err
			}
		}
	}
	runs, err := readRunSet(collect)
	if err != nil {
		return err
	}
	if opt.out != "" {
		if err := appendRuns(opt.out, runs); err != nil {
			return err
		}
	}
	printSummary(os.Stdout, spec, runs)
	if len(failed) > 0 {
		return fmt.Errorf("failed runs: %s", strings.Join(failed, "; "))
	}
	return nil
}

// appendRuns adds runs to the run-set at path, creating it if needed.
func appendRuns(path string, runs []runRecord) error {
	old, err := readRunSet(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	b, err := json.MarshalIndent(runSet{Runs: append(old, runs...)}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printRecord prints every metric of one run by name, with its unit,
// sample count, range and — for end-to-end metrics — its bound.
func printRecord(w io.Writer, spec *benchSpec, rec *runRecord) {
	kind, defs := "end-to-end (untraced)", spec.EndToEnd
	if rec.Trace {
		kind, defs = "per-layer (traced)", spec.PerLayer
	}
	fmt.Fprintf(w, "\n== %s  seed %d  %gs  size %s  %s ==\n", rec.Workload, rec.Seed, rec.Seconds, rec.Size, kind)
	keys := make([]string, 0, len(rec.Fixture))
	for k := range rec.Fixture {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprint(w, "fixture:")
	for _, k := range keys {
		fmt.Fprintf(w, " %s=%v", k, rec.Fixture[k])
	}
	p := rec.Provenance
	fmt.Fprintf(w, "\n%s %s/%s nproc=%d GOMAXPROCS=%d commit=%s\n", p.GoVersion, p.GOOS, p.GOARCH, p.NumCPU, p.GOMAXPROCS, p.Commit)
	fmt.Fprintf(w, "%-32s %14s %-8s %8s %14s %14s %s\n", "metric", "value", "unit", "samples", "min", "max", "bound")
	for _, d := range defs {
		m := rec.Metrics[d.Name]
		if m.NA != "" {
			fmt.Fprintf(w, "%-32s %14s %-8s %8s %14s %14s n/a: %s\n", d.Name, "n/a", d.Unit, "-", "-", "-", m.NA)
			continue
		}
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("%s is better; regression beyond %.0f%%", d.Better, d.Bound*100)
		}
		fmt.Fprintf(w, "%-32s %14.6g %-8s %8d %14.6g %14.6g %s\n", d.Name, m.Value, d.Unit, m.Samples, m.Min, m.Max, bound)
	}
	fmt.Fprintf(w, "operations: %d attempted, %d failed, fail_ratio %.6f (must be 0)\n",
		rec.Attempted, rec.Failed, float64(rec.Failed)/float64(rec.Attempted))
}

// printResultLine prints the one-line JSON result the driver reads.
func printResultLine(w io.Writer, rec *runRecord) {
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]vu, len(rec.Metrics))
	for name, m := range rec.Metrics {
		ms[name] = vu{m.Value, m.Unit}
	}
	b, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]vu `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, ms})
	fmt.Fprintln(w, string(b))
}

// printSummary is the closing table of -workload all: every end-to-end
// metric by workload.
func printSummary(w io.Writer, spec *benchSpec, runs []runRecord) {
	fmt.Fprintf(w, "\n== summary: end-to-end metrics by workload ==\n%-14s", "metric")
	for _, wl := range spec.Workloads {
		fmt.Fprintf(w, " %14s", wl.Name)
	}
	fmt.Fprintln(w, "  unit   bound")
	for _, d := range spec.EndToEnd {
		fmt.Fprintf(w, "%-14s", d.Name)
		for _, wl := range spec.Workloads {
			cell := "-"
			for _, r := range runs {
				if r.Workload == wl.Name && !r.Trace {
					cell = fmt.Sprintf("%.5g", r.Metrics[d.Name].Value)
				}
			}
			fmt.Fprintf(w, " %14s", cell)
		}
		fmt.Fprintf(w, "  %-6s %.0f%%\n", d.Unit, d.Bound*100)
	}
	var attempted, failed int64
	for _, r := range runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	fmt.Fprintf(w, "operations: %d attempted, %d failed\n", attempted, failed)
}
