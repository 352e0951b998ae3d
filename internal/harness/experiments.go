package harness

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"rads/internal/baselines/crystal"
	"rads/internal/cluster"
	"rads/internal/engine"
	"rads/internal/partition"
	"rads/internal/pattern"
	"rads/internal/plan"
	"rads/internal/rads"
)

const partitionSeed = 7

// Table1DatasetProfiles reproduces Table 1: the profile of each
// dataset analog.
func Table1DatasetProfiles(scale float64) *Table {
	t := &Table{
		Title:  "Table 1 (analog): profiles of datasets",
		Header: []string{"Dataset", "|V|", "|E|", "Avg. degree", "Diameter(approx)"},
	}
	for _, d := range Datasets() {
		g := d.Build(scale)
		p := ProfileOf(d.Name, g)
		t.AddRow(p.Name, fmt.Sprint(p.Vertices), fmt.Sprint(p.Edges), F(p.AvgDegree), fmt.Sprint(p.Diameter))
	}
	return t
}

// Table2CrystalIndex reproduces Table 2: the clique-index size of each
// dataset versus the graph itself.
func Table2CrystalIndex(scale float64) *Table {
	t := &Table{
		Title:  "Table 2 (analog): Crystal clique-index size",
		Header: []string{"Dataset", "Graph bytes", "Index bytes", "Ratio"},
	}
	for _, d := range Datasets() {
		g := d.Build(scale)
		idx := crystal.BuildIndex(g, 4)
		gb := g.NumEdges() * 8
		t.AddRow(d.Name, fmt.Sprint(gb), fmt.Sprint(idx.Bytes()), F(float64(idx.Bytes())/float64(gb)))
	}
	return t
}

// PerfSpec configures a Figure 8/9/10/11 style comparison.
type PerfSpec struct {
	Dataset     string
	Machines    int
	Scale       float64
	BudgetBytes int64 // per-machine; baselines that exceed it report OOM
	Queries     []string
	Engines     []string
}

// PerfComparison runs every engine on every query of one dataset and
// returns the time chart, the communication chart, and the raw
// results. This regenerates Figures 8, 9, 10 and 11.
func PerfComparison(spec PerfSpec) (timeT, commT *Table, raw []Uniform, err error) {
	d, err := DatasetByName(spec.Dataset)
	if err != nil {
		return nil, nil, nil, err
	}
	if spec.Scale == 0 {
		spec.Scale = d.DefScale
	}
	g := d.Build(spec.Scale)
	part := partition.KWay(g, spec.Machines, partitionSeed)
	if len(spec.Queries) == 0 {
		for _, q := range pattern.QuerySet() {
			spec.Queries = append(spec.Queries, q.Name)
		}
	}
	if len(spec.Engines) == 0 {
		spec.Engines = EngineNames
	}
	// Prepared artifacts (Crystal's clique index, RADS's plan) are
	// built once per (engine, pattern) through the cache, so the timed
	// runs charge only query time — the paper's engines precompute too.
	arts := engine.NewArtifactCache(0)

	timeT = &Table{
		Title:  fmt.Sprintf("Figure (time): %s, %d machines — elapsed seconds", spec.Dataset, spec.Machines),
		Header: append([]string{"Query"}, spec.Engines...),
	}
	commT = &Table{
		Title:  fmt.Sprintf("Figure (comm): %s, %d machines — communication MB", spec.Dataset, spec.Machines),
		Header: append([]string{"Query"}, spec.Engines...),
	}
	for _, qn := range spec.Queries {
		q := pattern.ByName(qn)
		if q == nil {
			return nil, nil, nil, fmt.Errorf("harness: unknown query %q", qn)
		}
		var timeRow, commRow []string
		var group []Uniform
		for _, en := range spec.Engines {
			u := RunEngine(RunSpec{Engine: en, Dataset: spec.Dataset, Part: part, Query: q, BudgetBytes: spec.BudgetBytes, Artifacts: arts})
			group = append(group, u)
			timeRow = append(timeRow, Cell(u, u.Seconds))
			commRow = append(commRow, Cell(u, u.CommMB))
		}
		if err := Verify(group); err != nil {
			return nil, nil, nil, err
		}
		raw = append(raw, group...)
		timeT.AddRow(append([]string{qn}, timeRow...)...)
		commT.AddRow(append([]string{qn}, commRow...)...)
	}
	return timeT, commT, raw, nil
}

// ScalabilitySpec configures the Figure 12 test.
type ScalabilitySpec struct {
	Dataset  string
	Scale    float64
	Machines []int // paper: 5, 10, 15
	Queries  []string
	Engines  []string
}

// Scalability reproduces Figure 12: the ratio between the total
// processing time of all queries on the smallest cluster and on larger
// clusters (higher = better speed-up; linear would equal the machine
// ratio).
func Scalability(spec ScalabilitySpec) (*Table, error) {
	d, err := DatasetByName(spec.Dataset)
	if err != nil {
		return nil, err
	}
	if spec.Scale == 0 {
		spec.Scale = d.DefScale
	}
	if len(spec.Machines) == 0 {
		spec.Machines = []int{5, 10, 15}
	}
	if len(spec.Queries) == 0 {
		spec.Queries = []string{"q1", "q2", "q4"}
	}
	if len(spec.Engines) == 0 {
		spec.Engines = []string{"Crystal", "RADS"}
	}
	g := d.Build(spec.Scale)

	totals := make(map[string]map[int]float64) // engine -> m -> total secs
	for _, en := range spec.Engines {
		totals[en] = make(map[int]float64)
	}
	for _, m := range spec.Machines {
		part := partition.KWay(g, m, partitionSeed)
		// Artifacts are bound to one partition; each machine count gets
		// a fresh cache.
		arts := engine.NewArtifactCache(0)
		for _, qn := range spec.Queries {
			q := pattern.ByName(qn)
			for _, en := range spec.Engines {
				if en == "RADS" {
					// All machines share one core in this simulation, so
					// wall clock cannot show speed-up; the makespan (the
					// busiest machine's time) is the faithful proxy for
					// what a real cluster would take.
					res, err := rads.Run(part, q, rads.Config{})
					if err != nil {
						return nil, fmt.Errorf("RADS/%s m=%d: %w", qn, m, err)
					}
					max := 0.0
					for _, ms := range res.Machines {
						if ms.Seconds > max {
							max = ms.Seconds
						}
					}
					totals[en][m] += max
					continue
				}
				u := RunEngine(RunSpec{Engine: en, Dataset: spec.Dataset, Part: part, Query: q, Artifacts: arts})
				if u.Err != nil {
					return nil, fmt.Errorf("%s/%s m=%d: %w", en, qn, m, u.Err)
				}
				totals[en][m] += u.Seconds
			}
		}
	}
	t := &Table{
		Title:  fmt.Sprintf("Figure 12 (analog): scalability ratio on %s (baseline %d machines)", spec.Dataset, spec.Machines[0]),
		Header: append([]string{"Machines"}, spec.Engines...),
	}
	base := spec.Machines[0]
	for _, m := range spec.Machines {
		row := []string{fmt.Sprint(m)}
		for _, en := range spec.Engines {
			ratio := totals[en][base] / totals[en][m]
			row = append(row, F(ratio))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// PlanSpec configures the Figure 13 ablation.
type PlanSpec struct {
	Dataset  string
	Machines int
	Scale    float64
	Queries  []string // paper: q4..q8 (earlier queries share plans)
	Trials   int      // paper runs each random plan 5 times
}

// PlanEffectiveness reproduces Figure 13: RADS with its optimized plan
// versus RanS (random star decompositions) and RanM (random
// minimum-round plans).
func PlanEffectiveness(spec PlanSpec) (*Table, error) {
	d, err := DatasetByName(spec.Dataset)
	if err != nil {
		return nil, err
	}
	if spec.Scale == 0 {
		spec.Scale = d.DefScale
	}
	if len(spec.Queries) == 0 {
		spec.Queries = []string{"q4", "q5", "q6", "q7", "q8"}
	}
	if spec.Trials == 0 {
		spec.Trials = 3
	}
	g := d.Build(spec.Scale)
	part := partition.KWay(g, spec.Machines, partitionSeed)

	t := &Table{
		Title:  fmt.Sprintf("Figure 13 (analog): execution-plan effectiveness on %s — seconds", spec.Dataset),
		Header: []string{"Query", "RanS", "RanM", "RADS"},
	}
	for _, qn := range spec.Queries {
		q := pattern.ByName(qn)
		rng := rand.New(rand.NewSource(41))
		ranS, err := avgPlanTime(part, q, spec.Trials, func() (*plan.Plan, error) { return plan.RandomStar(q, rng) })
		if err != nil {
			return nil, fmt.Errorf("RanS %s: %w", qn, err)
		}
		ranM, err := avgPlanTime(part, q, spec.Trials, func() (*plan.Plan, error) { return plan.RandomMinRound(q, rng) })
		if err != nil {
			return nil, fmt.Errorf("RanM %s: %w", qn, err)
		}
		opt, err := avgPlanTime(part, q, 1, func() (*plan.Plan, error) { return plan.Compute(q) })
		if err != nil {
			return nil, fmt.Errorf("RADS %s: %w", qn, err)
		}
		t.AddRow(qn, F(ranS), F(ranM), F(opt))
	}
	return t, nil
}

func avgPlanTime(part *partition.Partition, q *pattern.Pattern, trials int, mk func() (*plan.Plan, error)) (float64, error) {
	var total float64
	var want int64 = -1
	for i := 0; i < trials; i++ {
		pl, err := mk()
		if err != nil {
			return 0, err
		}
		start := time.Now()
		res, err := rads.Run(part, q, rads.Config{Plan: pl})
		if err != nil {
			return 0, err
		}
		total += time.Since(start).Seconds()
		if want < 0 {
			want = res.Total
		} else if res.Total != want {
			return 0, fmt.Errorf("plan changed the answer: %d vs %d", res.Total, want)
		}
	}
	return total / float64(trials), nil
}

// CompressionSpec configures Tables 3 and 4.
type CompressionSpec struct {
	Dataset  string
	Machines int
	Scale    float64
	Queries  []string
}

// Compression reproduces Tables 3 and 4: the cumulative space of
// intermediate results as plain embedding lists (EL) versus the
// embedding trie (ET).
func Compression(spec CompressionSpec) (*Table, error) {
	d, err := DatasetByName(spec.Dataset)
	if err != nil {
		return nil, err
	}
	if spec.Scale == 0 {
		spec.Scale = d.DefScale
	}
	if len(spec.Queries) == 0 {
		for _, q := range pattern.QuerySet() {
			spec.Queries = append(spec.Queries, q.Name)
		}
	}
	g := d.Build(spec.Scale)
	part := partition.KWay(g, spec.Machines, partitionSeed)
	t := &Table{
		Title:  fmt.Sprintf("Table 3/4 (analog): compression on %s — KB of intermediate results", spec.Dataset),
		Header: []string{"Query", "EL(KB)", "ET(KB)", "Ratio"},
	}
	for _, qn := range spec.Queries {
		q := pattern.ByName(qn)
		// DisableSME so the distributed path materializes the full
		// intermediate volume, like the paper's measurement.
		res, err := rads.Run(part, q, rads.Config{DisableSME: true})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", qn, err)
		}
		el := float64(res.ELBytesCum) / 1024
		et := float64(res.ETBytesCum) / 1024
		ratio := 0.0
		if et > 0 {
			ratio = el / et
		}
		t.AddRow(qn, F(el), F(et), F(ratio))
	}
	return t, nil
}

// CliqueQueries reproduces Figure 15: the clique-query workload on
// SEED, Crystal, and RADS.
func CliqueQueries(dataset string, machines int, scale float64) (*Table, []Uniform, error) {
	var queries []string
	for _, q := range pattern.CliqueQuerySet() {
		queries = append(queries, q.Name)
	}
	timeT, _, raw, err := PerfComparison(PerfSpec{
		Dataset:  dataset,
		Machines: machines,
		Scale:    scale,
		Queries:  queries,
		Engines:  CliqueEngineNames,
	})
	if err != nil {
		return nil, nil, err
	}
	timeT.Title = fmt.Sprintf("Figure 15 (analog): clique queries on %s — seconds", dataset)
	return timeT, raw, nil
}

// Robustness reproduces the Section 7.1 memory-bound test: under a
// tight per-machine budget, Crystal (no memory control) dies while
// RADS splits region groups and finishes.
func Robustness(dataset string, machines int, scale float64, budgetBytes int64, query string) (*Table, error) {
	d, err := DatasetByName(dataset)
	if err != nil {
		return nil, err
	}
	if scale == 0 {
		scale = d.DefScale
	}
	g := d.Build(scale)
	part := partition.KWay(g, machines, partitionSeed)
	q := pattern.ByName(query)
	arts := engine.NewArtifactCache(0)

	t := &Table{
		Title:  fmt.Sprintf("Robustness (Section 7.1): %s %s with %d KB/machine budget", dataset, query, budgetBytes>>10),
		Header: []string{"Engine", "Outcome", "Embeddings", "Peak MB"},
	}
	for _, en := range []string{"Crystal", "PSgL", "RADS"} {
		u := RunEngine(RunSpec{Engine: en, Dataset: dataset, Part: part, Query: q, BudgetBytes: budgetBytes, Artifacts: arts})
		outcome := "completed"
		if u.OOM {
			outcome = "OUT OF MEMORY"
		} else if u.Err != nil {
			return nil, u.Err
		}
		t.AddRow(en, outcome, fmt.Sprint(u.Total), F(u.PeakMB))
	}
	return t, nil
}

// Ablations runs the reproduction's own ablation suite:
// SM-E on/off, foreign-vertex cache on/off, proximity versus random
// grouping — quantifying each design choice the paper argues for.
func Ablations(dataset string, machines int, scale float64, query string) (*Table, error) {
	d, err := DatasetByName(dataset)
	if err != nil {
		return nil, err
	}
	if scale == 0 {
		scale = d.DefScale
	}
	g := d.Build(scale)
	part := partition.KWay(g, machines, partitionSeed)
	q := pattern.ByName(query)

	const groupingBudget = 512 << 10
	t := &Table{
		Title: fmt.Sprintf("Ablations: RADS variants on %s %s (grouping rows under a %d KB/machine budget)",
			dataset, query, groupingBudget>>10),
		Header: []string{"Variant", "Seconds", "Comm MB", "ET cum KB", "Embeddings"},
	}
	variants := []struct {
		name string
		cfg  rads.Config
	}{
		{"full", rads.Config{}},
		{"no SM-E", rads.Config{DisableSME: true}},
		{"no cache", rads.Config{DisableCache: true}},
		{"no cache, no SM-E", rads.Config{DisableSME: true, DisableCache: true}},
		// The two grouping rows run under a budget, so groups hold a
		// budget's segment of candidates, not the unbudgeted 4096; the
		// budget's valves (no optional pulls past ¾, halved rounds)
		// act on both rows alike. A row that runs out of it says so.
		{"random grouping", rads.Config{RandomGrouping: true, Budget: cluster.NewMemBudget(machines, groupingBudget)}},
		{"proximity grouping", rads.Config{Budget: cluster.NewMemBudget(machines, groupingBudget)}},
		{"no end-vertex counting", rads.Config{DisableEndVertexCounting: true}},
	}
	var want int64 = -1
	for _, v := range variants {
		mt := cluster.NewMetrics(machines)
		v.cfg.Metrics = mt
		start := time.Now()
		res, err := rads.Run(part, q, v.cfg)
		secs := time.Since(start).Seconds()
		if errors.Is(err, cluster.ErrOutOfMemory) {
			t.AddRow(v.name, F(secs), F(float64(mt.TotalBytes())/(1<<20)), F(float64(res.ETBytesCum)/1024), "OUT OF MEMORY")
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.name, err)
		}
		if want < 0 {
			want = res.Total
		} else if res.Total != want {
			return nil, fmt.Errorf("%s: answer changed: %d vs %d", v.name, res.Total, want)
		}
		t.AddRow(v.name, F(secs), F(float64(mt.TotalBytes())/(1<<20)), F(float64(res.ETBytesCum)/1024), fmt.Sprint(res.Total))
	}
	return t, nil
}
