package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rads/internal/graph"
	"rads/internal/partition"
	"rads/internal/pattern"
)

// Tests use tiny scales so CI stays fast; radsbench -exp runs the
// paper-sized analogs.
const tinyScale = 0.25

func TestTable1Profiles(t *testing.T) {
	tab := Table1DatasetProfiles(tinyScale)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tab.Rows))
	}
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	for _, name := range []string{"RoadNet", "DBLP", "LiveJournal", "UK2002"} {
		if !strings.Contains(out, name) {
			t.Errorf("missing dataset %s in:\n%s", name, out)
		}
	}
}

func TestTable2IndexSizes(t *testing.T) {
	tab := Table2CrystalIndex(tinyScale)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestPerfComparisonSmall(t *testing.T) {
	timeT, commT, raw, err := PerfComparison(PerfSpec{
		Dataset:  "DBLP",
		Machines: 3,
		Scale:    tinyScale,
		Queries:  []string{"q1", "q2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(timeT.Rows) != 2 || len(commT.Rows) != 2 {
		t.Fatalf("unexpected table shape")
	}
	if len(raw) != 2*len(EngineNames) {
		t.Fatalf("raw = %d results", len(raw))
	}
	// Verify() already ran inside; spot-check counts agree.
	base := raw[0].Total
	for _, u := range raw[:len(EngineNames)] {
		if u.Total != base {
			t.Errorf("%s disagrees: %d vs %d", u.Engine, u.Total, base)
		}
	}
}

// TestLoadStoreEdgeList pins the -graph path radserve and radsstat
// share: an edge-list file overrides the dataset name and the registry
// (neither is consulted), and comes back without a manifest.
func TestLoadStoreEdgeList(t *testing.T) {
	path := filepath.Join(t.TempDir(), "edges.txt")
	if err := os.WriteFile(path, []byte("# square plus a chord\n0 1\n1 2\n2 3\n3 0\n0 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, man, err := LoadStore(path, "nope", filepath.Join(t.TempDir(), "no-registry"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if man != nil {
		t.Errorf("manifest = %+v, want nil for an edge list", man)
	}
	if g.NumVertices() != 4 || g.NumEdges() != 5 || g.CountTriangles() != 2 {
		t.Errorf("got %d vertices, %d edges, %d triangles; want 4, 5, 2",
			g.NumVertices(), g.NumEdges(), g.CountTriangles())
	}

	if _, _, err := LoadStore(filepath.Join(t.TempDir(), "missing.txt"), "DBLP", "", 1); err == nil {
		t.Error("missing edge-list file: want error, not the DBLP analog")
	}
	if err := os.WriteFile(path, []byte("0 x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadStore(path, "DBLP", "", 1); err == nil {
		t.Error("malformed edge list: want error")
	}
	if _, _, err := LoadStore("", "nope", "", 1); err == nil {
		t.Error("unknown dataset without a graph file: want error")
	}
}

func TestPerfComparisonUnknowns(t *testing.T) {
	if _, _, _, err := PerfComparison(PerfSpec{Dataset: "nope", Machines: 2}); err == nil {
		t.Error("want error for unknown dataset")
	}
	if _, _, _, err := PerfComparison(PerfSpec{Dataset: "DBLP", Machines: 2, Scale: tinyScale, Queries: []string{"zz"}}); err == nil {
		t.Error("want error for unknown query")
	}
}

func TestScalabilitySmall(t *testing.T) {
	tab, err := Scalability(ScalabilitySpec{
		Dataset:  "RoadNet",
		Scale:    tinyScale,
		Machines: []int{2, 4},
		Queries:  []string{"q1"},
		Engines:  []string{"RADS"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Ratio row for the baseline machine count is 1.0 by definition.
	if tab.Rows[0][1] != "1.000" {
		t.Errorf("baseline ratio = %q, want 1.000", tab.Rows[0][1])
	}
}

func TestPlanEffectivenessSmall(t *testing.T) {
	tab, err := PlanEffectiveness(PlanSpec{
		Dataset:  "DBLP",
		Machines: 2,
		Scale:    tinyScale,
		Queries:  []string{"q4"},
		Trials:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 1 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestCompressionSmall(t *testing.T) {
	tab, err := Compression(CompressionSpec{
		Dataset:  "DBLP",
		Machines: 2,
		Scale:    tinyScale,
		Queries:  []string{"q2", "q4"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if row[1] == "0" {
			t.Errorf("query %s: EL should be non-zero", row[0])
		}
	}
}

func TestCliqueQueriesSmall(t *testing.T) {
	tab, raw, err := CliqueQueries("DBLP", 2, tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 clique queries", len(tab.Rows))
	}
	if err := Verify(raw); err != nil {
		t.Fatal(err)
	}
}

func TestRobustnessSmall(t *testing.T) {
	tab, err := Robustness("DBLP", 2, tinyScale, 16<<10, "q4")
	if err != nil {
		t.Fatal(err)
	}
	var radsRow, psglRow []string
	for _, row := range tab.Rows {
		switch row[0] {
		case "RADS":
			radsRow = row
		case "PSgL":
			psglRow = row
		}
	}
	if radsRow == nil || radsRow[1] != "completed" {
		t.Errorf("RADS should survive the budget: %v", radsRow)
	}
	if psglRow == nil || psglRow[1] != "OUT OF MEMORY" {
		t.Errorf("PSgL should OOM under 16 KB: %v", psglRow)
	}
}

func TestAblationsSmall(t *testing.T) {
	tab, err := Ablations("DBLP", 2, tinyScale, "q4")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 7 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestRunEngineUnknown(t *testing.T) {
	d, _ := DatasetByName("DBLP")
	g := d.Build(tinyScale)
	// partition with 2 machines
	u := RunEngine(RunSpec{Engine: "nope", Part: mustPart(g, 2), Query: quickQuery()})
	if u.Err == nil {
		t.Error("want error for unknown engine")
	}
}

func mustPart(g *graph.Graph, m int) *partition.Partition {
	return partition.KWay(g, m, partitionSeed)
}

func quickQuery() *pattern.Pattern { return pattern.ByName("q1") }
