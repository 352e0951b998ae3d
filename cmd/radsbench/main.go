// Command radsbench regenerates any table or figure of the paper's
// evaluation from the synthetic dataset analogs.
//
// Usage:
//
//	radsbench -exp table1                 # dataset profiles
//	radsbench -exp fig9 -machines 10      # DBLP time+comm comparison
//	radsbench -exp fig12 -dataset RoadNet # scalability ratios
//	radsbench -exp all                    # everything, in paper order
//
// Experiments: table1, table2, fig8, fig9, fig10, fig11, fig12, fig13,
// table3, table4, fig15, robust, ablations, all.
//
// With -registry DIR, -dataset also resolves real ingested graphs by
// their registry name (see cmd/radsprep), and -exp count runs every
// registered engine on one pattern over that dataset and fails unless
// all counts match the single-machine oracle — the CI dataset smoke:
//
//	radsbench -exp count -registry datasets -dataset karate -pattern triangle
package main

import (
	"flag"
	"fmt"
	"os"

	"rads/internal/harness"
	"rads/internal/pattern"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id (table1 table2 fig8 fig9 fig10 fig11 fig12 fig13 table3 table4 fig15 robust ablations count all)")
		machines = flag.Int("machines", 10, "number of simulated machines")
		scale    = flag.Float64("scale", 1.0, "dataset scale factor")
		dataset  = flag.String("dataset", "", "dataset override for fig12/robust/ablations (built-in analogs) and the dataset for -exp count (analog or -registry name)")
		registry = flag.String("registry", "", "dataset registry directory for -exp count: resolves -dataset to an ingested .radsgraph by name")
		patName  = flag.String("pattern", "triangle", "query pattern for -exp count (built-in name or name:n:u-v,...)")
		budgetMB = flag.Int64("budget-mb", 48, "per-machine memory budget in MiB for the comparison figures (0 = unlimited)")
	)
	flag.Parse()
	if *exp == "count" {
		if err := runCount(*dataset, *registry, *patName, *machines, *scale); err != nil {
			fmt.Fprintln(os.Stderr, "radsbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*exp, *machines, *scale, *dataset, *budgetMB<<20); err != nil {
		fmt.Fprintln(os.Stderr, "radsbench:", err)
		os.Exit(1)
	}
}

// runCount is the dataset smoke check: every registered engine must
// produce the oracle's count for one pattern on one dataset (built-in
// analog or registry-resolved .radsgraph). A mismatch is a nonzero
// exit — CI ingests a committed edge list with radsprep and runs this
// against the result.
func runCount(ds, registry, patName string, machines int, scale float64) error {
	if ds == "" {
		return fmt.Errorf("-exp count needs -dataset")
	}
	store, _, err := harness.LoadStore("", ds, registry, scale)
	if err != nil {
		return err
	}
	p := pattern.ByName(patName)
	if p == nil {
		var perr error
		p, perr = pattern.Parse(patName)
		if perr != nil {
			return fmt.Errorf("pattern %q is neither a built-in name nor name:n:edges: %w", patName, perr)
		}
	}
	t, err := harness.CountParity(store, ds, p, machines)
	if t != nil {
		t.Fprint(os.Stdout)
	}
	return err
}

func run(exp string, machines int, scale float64, dataset string, budget int64) error {
	out := os.Stdout
	perf := func(ds string) error {
		timeT, commT, _, err := harness.PerfComparison(harness.PerfSpec{
			Dataset: ds, Machines: machines, Scale: scale, BudgetBytes: budget,
		})
		if err != nil {
			return err
		}
		timeT.Fprint(out)
		commT.Fprint(out)
		return nil
	}
	figDataset := map[string]string{
		"fig8": "RoadNet", "fig9": "DBLP", "fig10": "LiveJournal", "fig11": "UK2002",
	}
	switch exp {
	case "table1":
		harness.Table1DatasetProfiles(scale).Fprint(out)
	case "table2":
		harness.Table2CrystalIndex(scale).Fprint(out)
	case "fig8", "fig9", "fig10", "fig11":
		return perf(figDataset[exp])
	case "fig12":
		ds := dataset
		if ds == "" {
			ds = "RoadNet"
		}
		t, err := harness.Scalability(harness.ScalabilitySpec{Dataset: ds, Scale: scale})
		if err != nil {
			return err
		}
		t.Fprint(out)
	case "fig13":
		ds := dataset
		if ds == "" {
			ds = "DBLP"
		}
		t, err := harness.PlanEffectiveness(harness.PlanSpec{Dataset: ds, Machines: machines, Scale: scale})
		if err != nil {
			return err
		}
		t.Fprint(out)
	case "table3":
		t, err := harness.Compression(harness.CompressionSpec{Dataset: "RoadNet", Machines: machines, Scale: scale})
		if err != nil {
			return err
		}
		t.Fprint(out)
	case "table4":
		t, err := harness.Compression(harness.CompressionSpec{Dataset: "DBLP", Machines: machines, Scale: scale})
		if err != nil {
			return err
		}
		t.Fprint(out)
	case "fig15":
		ds := dataset
		if ds == "" {
			ds = "DBLP"
		}
		t, _, err := harness.CliqueQueries(ds, machines, scale)
		if err != nil {
			return err
		}
		t.Fprint(out)
	case "robust":
		ds := dataset
		if ds == "" {
			ds = "UK2002"
		}
		t, err := harness.Robustness(ds, machines, scale, budget/8, "q4")
		if err != nil {
			return err
		}
		t.Fprint(out)
	case "ablations":
		ds := dataset
		if ds == "" {
			ds = "DBLP"
		}
		t, err := harness.Ablations(ds, machines, scale, "q4")
		if err != nil {
			return err
		}
		t.Fprint(out)
	case "all":
		for _, id := range []string{"table1", "table2", "fig8", "fig9", "fig10", "fig11",
			"fig12", "fig13", "table3", "table4", "fig15", "robust", "ablations"} {
			if err := run(id, machines, scale, dataset, budget); err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
		}
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}
