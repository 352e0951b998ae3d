package localenum

import (
	"testing"

	"rads/internal/gen"
	"rads/internal/graph"
	"rads/internal/pattern"
)

func noSB() []pattern.OrderConstraint { return []pattern.OrderConstraint{} }

func TestTriangleInK4(t *testing.T) {
	g := gen.Clique(4)
	p := pattern.Triangle()
	// K4 has C(4,3) = 4 triangles (with symmetry breaking).
	if got := Count(g, p, Options{}); got != 4 {
		t.Errorf("triangles in K4 = %d, want 4", got)
	}
	// Without symmetry breaking: 4 * |Aut| = 24 ordered embeddings.
	if got := Count(g, p, Options{Constraints: noSB()}); got != 24 {
		t.Errorf("ordered triangles in K4 = %d, want 24", got)
	}
}

func TestSquareInGrid(t *testing.T) {
	// A rows x cols grid has (rows-1)*(cols-1) unit squares and no other
	// 4-cycles.
	g := gen.Grid(4, 5)
	q1 := pattern.ByName("q1")
	if got := Count(g, q1, Options{}); got != int64(3*4) {
		t.Errorf("squares in 4x5 grid = %d, want 12", got)
	}
}

func TestEdgeCount(t *testing.T) {
	g := gen.ErdosRenyi(40, 0.2, 1)
	p := pattern.New("edge", 2, 0, 1)
	if got := Count(g, p, Options{}); got != g.NumEdges() {
		t.Errorf("edge embeddings = %d, want %d", got, g.NumEdges())
	}
}

func TestPathsInTriangleGraph(t *testing.T) {
	// Paths of length 2 (u0-u1-u2, |Aut|=2) in a triangle: 3.
	g := gen.Clique(3)
	p := pattern.New("path3", 3, 0, 1, 1, 2)
	if got := Count(g, p, Options{}); got != 3 {
		t.Errorf("paths = %d, want 3", got)
	}
}

func TestMatchesBruteForceOnRandomGraphs(t *testing.T) {
	queries := append(pattern.QuerySet(), pattern.CliqueQuerySet()...)
	for seed := int64(0); seed < 3; seed++ {
		g := gen.ErdosRenyi(18, 0.3, seed)
		for _, q := range queries {
			want := BruteForce(g, q, nil)
			got := Count(g, q, Options{})
			if got != want {
				t.Errorf("seed %d %s: Count = %d, brute force = %d", seed, q.Name, got, want)
			}
		}
	}
}

func TestSymmetryBreakingIdentity(t *testing.T) {
	// Count without constraints = count with constraints * |Aut(P)|.
	g := gen.ErdosRenyi(16, 0.35, 7)
	for _, q := range pattern.QuerySet() {
		withSB := Count(g, q, Options{})
		without := Count(g, q, Options{Constraints: noSB()})
		aut := int64(q.AutomorphismCount())
		if withSB*aut != without {
			t.Errorf("%s: %d * |Aut|=%d != %d", q.Name, withSB, aut, without)
		}
	}
}

func TestPlanOrderAgreesWithGreedyOrder(t *testing.T) {
	// Any valid connectivity-aware order gives the same counts.
	g := gen.Community(4, 10, 0.4, 3)
	q := pattern.ByName("q4")
	greedy := Count(g, q, Options{})
	// Reverse-engineer another valid order: natural BFS from u0.
	order := []pattern.VertexID{0, 1, 2, 3, 4}
	alt := Count(g, q, Options{Order: order})
	if greedy != alt {
		t.Errorf("order dependence: %d vs %d", greedy, alt)
	}
}

func TestAllowedRestriction(t *testing.T) {
	// Two disjoint triangles; restrict to the first one.
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	b.AddEdge(3, 5)
	g := b.Build()
	p := pattern.Triangle()
	got := Count(g, p, Options{Allowed: func(v graph.VertexID) bool { return v < 3 }})
	if got != 1 {
		t.Errorf("allowed-restricted count = %d, want 1", got)
	}
}

func TestStartCandidatesRestriction(t *testing.T) {
	g := gen.Clique(4) // triangles: each contains its maximum vertex as start
	p := pattern.Triangle()
	// With symmetry breaking u2 < u1 < u0, the start (u0) is the maximum
	// vertex; starting only from vertex 3 finds triangles containing 3.
	got := Count(g, p, Options{StartCandidates: []graph.VertexID{3}})
	if got != 3 {
		t.Errorf("start-restricted = %d, want 3 (triangles containing v3)", got)
	}
}

func TestEarlyStop(t *testing.T) {
	g := gen.Clique(6)
	p := pattern.Triangle()
	n := 0
	Enumerate(g, p, Options{}, func(f []graph.VertexID) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Errorf("early stop after %d, want 2", n)
	}
}

func TestEmbeddingSliceContents(t *testing.T) {
	// Verify f is indexed by query vertex and forms a real embedding.
	g := gen.ErdosRenyi(20, 0.3, 9)
	q := pattern.ByName("q2")
	Enumerate(g, q, Options{}, func(f []graph.VertexID) bool {
		for _, e := range q.Edges() {
			if !g.HasEdge(f[e[0]], f[e[1]]) {
				t.Fatalf("reported non-embedding %v: edge %v missing", f, e)
			}
		}
		seen := make(map[graph.VertexID]bool)
		for _, v := range f {
			if seen[v] {
				t.Fatalf("non-injective embedding %v", f)
			}
			seen[v] = true
		}
		return true
	})
}

func TestStatsTreeNodes(t *testing.T) {
	// On a single triangle with symmetry breaking there is exactly one
	// embedding. TreeNodes counts every successful partial match — the
	// paper's Section 6 estimator ("record the number of candidate
	// vertices matched at each recursive step"), which includes partial
	// matches that die deeper. On K3: starts v0,v1,v2 (3 nodes) +
	// u1 matches {1,2} from v0 and {2} from v1 (3 nodes) + the full
	// embedding (1 node) = 7.
	g := gen.Clique(3)
	st := Enumerate(g, pattern.Triangle(), Options{}, func([]graph.VertexID) bool { return true })
	if st.Embeddings != 1 {
		t.Fatalf("embeddings = %d", st.Embeddings)
	}
	if st.TreeNodes != 7 {
		t.Errorf("tree nodes = %d, want 7", st.TreeNodes)
	}
}

func TestGreedyOrderConnected(t *testing.T) {
	for _, q := range append(pattern.QuerySet(), pattern.CliqueQuerySet()...) {
		order := GreedyOrder(q)
		if len(order) != q.N() {
			t.Fatalf("%s: order %v wrong length", q.Name, order)
		}
		placed := map[pattern.VertexID]bool{order[0]: true}
		for _, u := range order[1:] {
			ok := false
			for _, w := range q.Adj(u) {
				if placed[w] {
					ok = true
					break
				}
			}
			if !ok {
				t.Errorf("%s: order %v not connectivity-aware at u%d", q.Name, order, u)
			}
			placed[u] = true
		}
	}
}

func TestBruteForceRespectsConstraints(t *testing.T) {
	g := gen.Clique(4)
	p := pattern.Triangle()
	if got := BruteForce(g, p, noSB()); got != 24 {
		t.Errorf("brute force without SB = %d, want 24", got)
	}
	if got := BruteForce(g, p, nil); got != 4 {
		t.Errorf("brute force with SB = %d, want 4", got)
	}
}
