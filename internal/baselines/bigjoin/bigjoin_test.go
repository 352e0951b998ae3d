package bigjoin

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
		pattern.Triangle(), pattern.Path(4), pattern.Cycle(5),
		pattern.CompleteGraph(4), pattern.ByName("q5"),
	} {
		want := common.Oracle(g, p)
		res, err := Run(part, p, common.Config{})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if res.Total != want {
			t.Errorf("%s: BigJoin = %d, oracle = %d", p.Name, res.Total, want)
		}
	}
}

func TestRunAcrossPartitionCounts(t *testing.T) {
	g := gen.RoadNet(18, 18, 2)
	p := pattern.Path(4)
	want := common.Oracle(g, p)
	for _, m := range []int{1, 3, 5} {
		part := partition.KWay(g, m, 7)
		res, err := Run(part, p, common.Config{})
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if res.Total != want {
			t.Errorf("m=%d: BigJoin = %d, oracle = %d", m, res.Total, want)
		}
	}
}

// TestShufflesBindings: BigJoin extends bindings one query vertex at a
// time and shuffles them to the owner of the next candidate source —
// like PSgL it cannot avoid exchanging intermediate results.
func TestShufflesBindings(t *testing.T) {
	g := gen.Community(4, 12, 0.35, 21)
	part := partition.KWay(g, 4, 3)
	metrics := cluster.NewMetrics(part.M)
	res, err := Run(part, pattern.ByName("q4"), common.Config{Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total == 0 {
		t.Skip("no embeddings")
	}
	if metrics.ByKind()["shuffle"] == 0 {
		t.Error("BigJoin produced zero shuffle traffic")
	}
}

func TestBudgetAbortsAsOOM(t *testing.T) {
	g := gen.PowerLaw(400, 12, 2.3, 200, 8)
	part := partition.KWay(g, 3, 5)
	budget := cluster.NewMemBudget(part.M, 2<<10)
	_, err := Run(part, pattern.ByName("q4"), common.Config{Budget: budget})
	if err == nil {
		t.Fatal("tiny budget did not abort")
	}
	if !errors.Is(err, cluster.ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
}

// TestRowContains pins the row-membership rule BigJoin's expansion
// relies on: a vertex already bound in a row is never bound again. On
// K4 every anchor's adjacency holds the row's other vertices, so a
// path's rows are its embeddings only if those are skipped.
func TestRowContains(t *testing.T) {
	g := gen.Clique(4)
	p := pattern.Path(4)
	rt := common.NewRuntime(1, common.Config{})
	defer rt.Close()
	lv := common.NewLevels(p)
	var rows []common.Row
	for v := range g.NumVertices() {
		rows = append(rows, common.Row{graph.VertexID(v)})
	}
	for k := 1; k < p.N(); k++ {
		next, err := lv.Expand(g, rows, k, rt.NewCharger(0, k+1))
		if err != nil {
			t.Fatalf("level %d: %v", k, err)
		}
		rows = next
	}
	for _, row := range rows {
		for i, v := range row {
			if slices.Contains(row[:i], v) {
				t.Errorf("row %v repeats vertex %d", row, v)
			}
		}
	}
	if want := common.Oracle(g, p); int64(len(rows)) != want {
		t.Errorf("%d rows, oracle = %d", len(rows), want)
	}
}
