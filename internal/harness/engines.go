package harness

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"rads/internal/cluster"
	"rads/internal/engine"
	_ "rads/internal/engine/all" // register RADS and the baselines
	"rads/internal/partition"
	"rads/internal/pattern"
)

// EngineNames lists the engines in the paper's chart order. "Pads" is
// what the paper's figures call RADS in their legends; we use RADS.
var EngineNames = []string{"SEED", "TwinTwig", "Crystal", "RADS", "PSgL"}

// CliqueEngineNames is the Figure 15 engine subset.
//
// RunEngine itself dispatches to anything in the engine registry —
// engine.Names() is the authoritative list, including BigJoin (which
// the paper's main charts omit) and engines registered elsewhere.
var CliqueEngineNames = []string{"SEED", "Crystal", "RADS"}

// Uniform is an engine-agnostic result record, one bar of a figure.
type Uniform struct {
	Engine  string
	Dataset string
	Query   string
	Total   int64
	Seconds float64
	CommMB  float64
	PeakMB  float64
	OOM     bool // the engine died of ErrOutOfMemory (paper: empty bar)
	Err     error
}

// RunSpec describes one engine execution.
type RunSpec struct {
	Engine string
	// Dataset labels the Uniform result; harness.Verify keys on
	// (dataset, query), so comparison runners must set it to keep
	// counts from different datasets apart.
	Dataset     string
	Part        *partition.Partition
	Query       *pattern.Pattern
	BudgetBytes int64 // per-machine; 0 = unlimited
	// Artifacts, if non-nil, supplies prepared per-(partition, pattern)
	// artifacts (RADS plans, Crystal clique indexes) through a shared
	// cache, keeping preparation cost out of the timed run. Nil makes
	// each engine prepare internally, inside the clock — the batch
	// one-shot behaviour.
	Artifacts *engine.ArtifactCache
}

// RunEngine executes one engine through the registry and normalizes
// its result. An out-of-memory failure is reported as OOM=true rather
// than an error — the paper plots those as missing bars.
func RunEngine(spec RunSpec) Uniform {
	u := Uniform{Engine: spec.Engine, Dataset: spec.Dataset, Query: spec.Query.Name}
	e, ok := engine.Lookup(spec.Engine)
	if !ok {
		u.Err = fmt.Errorf("harness: unknown engine %q (registered: %s)", spec.Engine, strings.Join(engine.Names(), " "))
		return u
	}
	var budget *cluster.MemBudget
	if spec.BudgetBytes > 0 {
		budget = cluster.NewMemBudget(spec.Part.M, spec.BudgetBytes)
	}
	metrics := cluster.NewMetrics(spec.Part.M)
	res, err := engine.Execute(context.Background(), e, spec.Artifacts, engine.Request{
		Part:    spec.Part,
		Pattern: spec.Query,
		Metrics: metrics,
		Budget:  budget,
	})
	u.Total = res.Total
	u.Seconds = res.Seconds
	u.OOM = res.OOM
	u.CommMB = float64(metrics.TotalBytes()) / (1 << 20)
	u.PeakMB = float64(res.PeakMemBytes) / (1 << 20)
	if err != nil {
		if errors.Is(err, cluster.ErrOutOfMemory) {
			u.OOM = true
		} else {
			u.Err = err
		}
	}
	return u
}

// Verify cross-checks a set of uniform results: for every
// (dataset, query) pair, all engines that completed must report the
// same count.
func Verify(results []Uniform) error {
	want := make(map[[2]string]int64)
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("%s/%s: %w", r.Engine, r.Query, r.Err)
		}
		if r.OOM {
			continue
		}
		key := [2]string{r.Dataset, r.Query}
		if w, ok := want[key]; !ok {
			want[key] = r.Total
		} else if r.Total != w {
			return fmt.Errorf("%s/%s: count %d disagrees with %d", r.Engine, r.Query, r.Total, w)
		}
	}
	return nil
}
