package twintwig

import (
	"testing"

	"rads/internal/baselines/common"
	"rads/internal/gen"
	"rads/internal/partition"
	"rads/internal/pattern"
)

// checkCover verifies the decomposition invariants of [13]: every
// pattern edge covered by exactly one twig, twigs have 1..2 leaves,
// and each twig after the first is centered at a covered vertex.
func checkCover(t *testing.T, p *pattern.Pattern, units []Unit) {
	t.Helper()
	covered := make(map[[2]pattern.VertexID]int)
	coveredV := make(map[pattern.VertexID]bool)
	for i, u := range units {
		if len(u.Leaves) < 1 || len(u.Leaves) > 2 {
			t.Fatalf("%s unit %d has %d leaves, want 1..2", p.Name, i, len(u.Leaves))
		}
		if i > 0 && !coveredV[u.Center] {
			t.Fatalf("%s unit %d center u%d not previously covered", p.Name, i, u.Center)
		}
		for _, lf := range u.Leaves {
			if !p.HasEdge(u.Center, lf) {
				t.Fatalf("%s unit %d: (u%d,u%d) is not a pattern edge", p.Name, i, u.Center, lf)
			}
			a, b := u.Center, lf
			if a > b {
				a, b = b, a
			}
			covered[[2]pattern.VertexID{a, b}]++
			coveredV[lf] = true
		}
		coveredV[u.Center] = true
	}
	if len(covered) != p.NumEdges() {
		t.Fatalf("%s: %d edges covered, pattern has %d", p.Name, len(covered), p.NumEdges())
	}
	for e, cnt := range covered {
		if cnt != 1 {
			t.Fatalf("%s: edge %v covered %d times", p.Name, e, cnt)
		}
	}
}

func TestDecomposeCoversAllQueries(t *testing.T) {
	pats := append(pattern.QuerySet(), pattern.CliqueQuerySet()...)
	pats = append(pats, pattern.Triangle(), pattern.RunningExample(),
		pattern.Path(5), pattern.Cycle(6), pattern.Star(4), pattern.CompleteGraph(4))
	for _, p := range pats {
		units, err := Decompose(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		checkCover(t, p, units)
	}
}

func TestDecomposeTriangleUsesTwoUnits(t *testing.T) {
	// A triangle has three edges: one twin twig (2 edges) + one single
	// twig. The first twig is centred at a max-degree vertex.
	units, err := Decompose(pattern.Triangle())
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 2 {
		t.Fatalf("triangle decomposed into %d twigs, want 2", len(units))
	}
	if len(units[0].Leaves) != 2 || len(units[1].Leaves) != 1 {
		t.Errorf("twig sizes %d,%d; want 2,1", len(units[0].Leaves), len(units[1].Leaves))
	}
}

func TestDecomposeStarMinimizesUnits(t *testing.T) {
	// star with 4 leaves = 4 edges -> ceil(4/2) = 2 twigs.
	units, err := Decompose(pattern.Star(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 2 {
		t.Errorf("star4 decomposed into %d twigs, want 2", len(units))
	}
}

func TestUnitsToJoinShape(t *testing.T) {
	units := []Unit{{Center: 0, Leaves: []pattern.VertexID{1, 2}}}
	ju := unitsToJoin(units)
	if len(ju) != 1 {
		t.Fatal("wrong join unit count")
	}
	if len(ju[0].Verts) != 3 || ju[0].Verts[0] != 0 {
		t.Errorf("join unit verts %v, want anchor first", ju[0].Verts)
	}
	if len(ju[0].Edges) != 2 {
		t.Errorf("join unit edges %v, want 2 star edges", ju[0].Edges)
	}
	for _, e := range ju[0].Edges {
		if e[0] != 0 {
			t.Errorf("star edge %v not incident to anchor", e)
		}
	}
}

func TestUnionSorted(t *testing.T) {
	got := unionSorted(
		[]pattern.VertexID{0, 2, 4},
		[]pattern.VertexID{1, 2, 5},
	)
	want := []pattern.VertexID{0, 1, 2, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("union = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("union = %v, want %v", got, want)
		}
	}
	if out := unionSorted(nil, nil); len(out) != 0 {
		t.Errorf("union of empties = %v", out)
	}
}

func TestJoinKeyViaSharedKernel(t *testing.T) {
	// The join key follows the sorted previous layout whatever order the
	// unit lists its vertices in (unit layouts are anchor-first).
	got := joinKey(
		[]pattern.VertexID{0, 2, 4, 6},
		[]pattern.VertexID{6, 3, 2},
	)
	if len(got) != 2 || got[0] != 2 || got[1] != 6 {
		t.Fatalf("intersect = %v, want [2 6]", got)
	}
}

func TestRunMatchesOracle(t *testing.T) {
	g := gen.Community(4, 12, 0.3, 9)
	part := partition.KWay(g, 3, 1)
	for _, p := range []*pattern.Pattern{
		pattern.Triangle(), pattern.Path(4), pattern.Cycle(4), pattern.Star(3),
	} {
		want := common.Oracle(g, p)
		res, err := Run(part, p, common.Config{})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if res.Total != want {
			t.Errorf("%s: TwinTwig = %d, oracle = %d", p.Name, res.Total, want)
		}
	}
}
