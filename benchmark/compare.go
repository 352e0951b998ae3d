package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdicts of one (end-to-end metric × workload) comparison.
const (
	verdictOK         = "ok"
	verdictImproved   = "improved"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
	verdictMissing    = "missing"
	verdictSame       = "= lat_p50_ms"
)

// comparison is one row of -compare.
type comparison struct {
	workload, metric string
	a, b             float64 // medians over the runs of each set
	worse            float64 // share of a by which b is worse (negative: better)
	spread           float64 // widest quartile spread of the two sets
	bound            float64
	verdict          string
}

// judge compares the untraced runs of two run-sets, one row per
// end-to-end metric and workload. b is worse than a by more than the
// bound: a regression. The run-to-run spread of either side is wider
// than the bound: unresolved, whichever way the medians point — a
// difference that small cannot be told from noise, so it is not
// reported as unchanged. Where a workload's passes are too few for any
// percentile above the median (tailOf 0.5), lat_tail_ms is lat_p50_ms
// again; the row says so and is not judged a second time.
func judge(spec *benchSpec, a, b []runRecord) []comparison {
	values := func(runs []runRecord, workload, name string) []float64 {
		var xs []float64
		for _, r := range runs {
			if m, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Trace && m.NA == "" {
				xs = append(xs, m.Value)
			}
		}
		return xs
	}
	var out []comparison
	for _, w := range spec.Workloads {
		for _, d := range spec.EndToEnd {
			xa, xb := values(a, w.Name, d.Name), values(b, w.Name, d.Name)
			c := comparison{workload: w.Name, metric: d.Name, bound: d.Bound}
			if len(xa) == 0 || len(xb) == 0 {
				c.verdict = verdictMissing
				out = append(out, c)
				continue
			}
			c.a, c.b = median(xa), median(xb)
			c.spread = max(quartileSpread(xa), quartileSpread(xb))
			c.worse = worseBy(d.Better, c.a, c.b)
			switch {
			case d.Name == "lat_tail_ms" && tailOf[w.Name] == 0.5:
				c.verdict = verdictSame
			case c.worse > d.Bound:
				c.verdict = verdictRegression
			case c.spread > d.Bound:
				c.verdict = verdictUnresolved
			case c.worse < -d.Bound:
				c.verdict = verdictImproved
			default:
				c.verdict = verdictOK
			}
			out = append(out, c)
		}
	}
	return out
}

// worseBy is the share of a by which b is worse, given the metric's
// better direction.
func worseBy(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

func readRunSet(path string) ([]runRecord, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set runSet
	if err := json.Unmarshal(b, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set.Runs, nil
}

// compareFiles prints the comparison of two run-set files; the error
// says when any metric is out of bound or missing, or any run of either
// set failed an operation.
func compareFiles(w io.Writer, spec *benchSpec, pathA, pathB string) error {
	a, err := readRunSet(pathA)
	if err != nil {
		return err
	}
	b, err := readRunSet(pathB)
	if err != nil {
		return err
	}
	if bad := printComparison(w, spec, a, b); bad > 0 {
		return fmt.Errorf("%d findings: metrics out of bound or missing, or runs with failed operations", bad)
	}
	return nil
}

// printComparison prints one row per end-to-end metric and workload
// and returns the number of findings that make the comparison fail.
func printComparison(w io.Writer, spec *benchSpec, a, b []runRecord) int {
	bad := 0
	fmt.Fprintf(w, "%-11s %-12s %12s %12s %9s %8s %7s  %s\n", "workload", "metric", "a (median)", "b (median)", "b worse", "spread", "bound", "verdict")
	for _, c := range judge(spec, a, b) {
		fmt.Fprintf(w, "%-11s %-12s %12.5g %12.5g %+8.1f%% %7.1f%% %6.0f%%  %s\n",
			c.workload, c.metric, c.a, c.b, c.worse*100, c.spread*100, c.bound*100, c.verdict)
		if c.verdict == verdictRegression || c.verdict == verdictMissing {
			bad++
		}
	}
	for _, set := range [][]runRecord{a, b} {
		for _, r := range set {
			if r.Failed > 0 {
				fmt.Fprintf(w, "%s seed %d: %d of %d operations failed\n", r.Workload, r.Seed, r.Failed, r.Attempted)
				bad++
			}
		}
	}
	return bad
}
