package psgl

import (
	"errors"
	"slices"
	"testing"

	"rads/internal/baselines/common"
	"rads/internal/cluster"
	"rads/internal/gen"
	"rads/internal/graph"
	"rads/internal/partition"
	"rads/internal/pattern"
)

func TestRunMatchesOracle(t *testing.T) {
	g := gen.Community(4, 12, 0.3, 9)
	part := partition.KWay(g, 3, 1)
	for _, p := range []*pattern.Pattern{
		pattern.Triangle(), pattern.Path(4), pattern.Cycle(4),
		pattern.Star(3), pattern.ByName("q4"),
	} {
		want := common.Oracle(g, p)
		res, err := Run(part, p, common.Config{})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if res.Total != want {
			t.Errorf("%s: PSgL = %d, oracle = %d", p.Name, res.Total, want)
		}
	}
}

func TestRunAcrossPartitionCounts(t *testing.T) {
	g := gen.PowerLaw(300, 8, 2.5, 50, 4)
	p := pattern.Triangle()
	want := common.Oracle(g, p)
	for _, m := range []int{1, 2, 4, 7} {
		part := partition.KWay(g, m, 11)
		res, err := Run(part, p, common.Config{})
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if res.Total != want {
			t.Errorf("m=%d: PSgL = %d, oracle = %d", m, res.Total, want)
		}
	}
}

// TestShufflesIntermediates pins down the paper's complaint about
// PSgL: partial matches are shuffled between machines every expansion
// step, so communication grows with the intermediate-result count.
func TestShufflesIntermediates(t *testing.T) {
	g := gen.Community(4, 12, 0.35, 21)
	part := partition.KWay(g, 4, 3)
	metrics := cluster.NewMetrics(part.M)
	res, err := Run(part, pattern.ByName("q4"), common.Config{Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total == 0 {
		t.Skip("no embeddings; shuffle volume unconstrained")
	}
	byKind := metrics.ByKind()
	if byKind["shuffle"] == 0 {
		t.Error("PSgL produced zero shuffle traffic — it must exchange partial matches")
	}
}

func TestBudgetAbortsAsOOM(t *testing.T) {
	g := gen.PowerLaw(400, 12, 2.3, 200, 8)
	part := partition.KWay(g, 3, 5)
	budget := cluster.NewMemBudget(part.M, 2<<10) // 2 KiB: tiny
	_, err := Run(part, pattern.ByName("q4"), common.Config{Budget: budget})
	if err == nil {
		t.Fatal("tiny budget did not abort")
	}
	if !errors.Is(err, cluster.ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
}

// TestContains pins the row-membership rule PSgL's expansion relies on:
// a vertex already in a row is never proposed for it again. On K4 every
// anchor's adjacency holds the row's other vertices, so a path's
// rows are its embeddings only if those are skipped.
func TestContains(t *testing.T) {
	g := gen.Clique(4)
	for _, p := range []*pattern.Pattern{pattern.Path(4), pattern.Path(5)} {
		rt := common.NewRuntime(1, common.Config{})
		lv := common.NewLevels(p)
		var rows []common.Row
		for v := range g.NumVertices() {
			rows = append(rows, common.Row{graph.VertexID(v)})
		}
		for k := 1; k < p.N(); k++ {
			next, err := lv.Expand(g, rows, k, rt.NewCharger(0, k+1))
			if err != nil {
				t.Fatalf("%s level %d: %v", p.Name, k, err)
			}
			rows = next
		}
		rt.Close()
		for _, row := range rows {
			for i, v := range row {
				if slices.Contains(row[:i], v) {
					t.Errorf("%s: row %v repeats vertex %d", p.Name, row, v)
				}
			}
		}
		if want := common.Oracle(g, p); int64(len(rows)) != want {
			t.Errorf("%s: %d rows, oracle = %d", p.Name, len(rows), want)
		}
	}
}
