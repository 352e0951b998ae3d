package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomGraph builds a G(n,p)-style graph from an rng, for property
// tests that should hold on arbitrary inputs.
func randomGraph(rng *rand.Rand, maxN int) *Graph {
	n := 1 + rng.Intn(maxN)
	b := NewBuilder(n)
	p := rng.Float64()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				b.AddEdge(VertexID(i), VertexID(j))
			}
		}
	}
	return b.Build()
}

// bruteTriangles counts triangles in O(n^3) for cross-checking.
func bruteTriangles(g *Graph) int64 {
	n := g.NumVertices()
	var total int64
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if !g.HasEdge(VertexID(a), VertexID(b)) {
				continue
			}
			for c := b + 1; c < n; c++ {
				if g.HasEdge(VertexID(a), VertexID(c)) && g.HasEdge(VertexID(b), VertexID(c)) {
					total++
				}
			}
		}
	}
	return total
}

func TestCountTrianglesSmall(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		pairs []Edge
		want  int64
	}{
		{"empty", 5, nil, 0},
		{"path", 4, []Edge{{0, 1}, {1, 2}, {2, 3}}, 0},
		{"triangle", 3, []Edge{{0, 1}, {1, 2}, {0, 2}}, 1},
		{"k4", 4, []Edge{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}, 4},
		{"two-tri-shared-edge", 4, []Edge{{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}}, 2},
	}
	for _, tc := range cases {
		g := FromEdges(tc.n, tc.pairs)
		if got := g.CountTriangles(); got != tc.want {
			t.Errorf("%s: CountTriangles = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestCountTrianglesMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		g := randomGraph(rng, 30)
		want := bruteTriangles(g)
		if got := g.CountTriangles(); got != want {
			t.Fatalf("graph %d (n=%d m=%d): CountTriangles = %d, brute = %d",
				i, g.NumVertices(), g.NumEdges(), got, want)
		}
	}
}

func TestGlobalClusteringCoefficient(t *testing.T) {
	if c := FromEdges(3, []Edge{{0, 1}, {1, 2}, {0, 2}}).GlobalClusteringCoefficient(); c != 1 {
		t.Errorf("triangle transitivity = %v, want 1", c)
	}
	if c := FromEdges(3, []Edge{{0, 1}, {1, 2}}).GlobalClusteringCoefficient(); c != 0 {
		t.Errorf("path transitivity = %v, want 0", c)
	}
	// Star has wedges but no triangles.
	if c := FromEdges(4, []Edge{{0, 1}, {0, 2}, {0, 3}}).GlobalClusteringCoefficient(); c != 0 {
		t.Errorf("star transitivity = %v, want 0", c)
	}
}

func TestDegeneracyKnownGraphs(t *testing.T) {
	// Trees have degeneracy 1, cycles 2, K_n has n-1.
	tree := FromEdges(5, []Edge{{0, 1}, {0, 2}, {1, 3}, {1, 4}})
	if d := tree.Degeneracy(); d != 1 {
		t.Errorf("tree degeneracy = %d, want 1", d)
	}
	cycle := FromEdges(5, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}})
	if d := cycle.Degeneracy(); d != 2 {
		t.Errorf("cycle degeneracy = %d, want 2", d)
	}
	k5 := FromEdges(5, []Edge{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}})
	if d := k5.Degeneracy(); d != 4 {
		t.Errorf("K5 degeneracy = %d, want 4", d)
	}
}

func TestDegeneracyOrderIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 30; i++ {
		g := randomGraph(rng, 50)
		order, _ := g.coreDecompose()
		if len(order) != g.NumVertices() {
			t.Fatalf("order has %d entries, want %d", len(order), g.NumVertices())
		}
		seen := make([]bool, g.NumVertices())
		for _, v := range order {
			if seen[v] {
				t.Fatalf("vertex %d appears twice in degeneracy order", v)
			}
			seen[v] = true
		}
	}
}

// TestDegeneracyOrderProperty verifies the defining property: when
// vertices are removed in order, each vertex has at most `degeneracy`
// neighbours among the not-yet-removed.
func TestDegeneracyOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 30; i++ {
		g := randomGraph(rng, 50)
		order, _ := g.coreDecompose()
		d := g.Degeneracy()
		removed := make([]bool, g.NumVertices())
		for _, v := range order {
			later := 0
			for _, w := range g.Adj(v) {
				if !removed[w] {
					later++
				}
			}
			if later > d {
				t.Fatalf("vertex %d has %d unremoved neighbours, degeneracy claims %d", v, later, d)
			}
			removed[v] = true
		}
	}
}

func TestCoreNumbers(t *testing.T) {
	// A K4 with a pendant path: core numbers 3,3,3,3,1,1.
	g := FromEdges(6, []Edge{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, // K4
		{3, 4}, {4, 5}, // path hanging off
	})
	want := []int{3, 3, 3, 3, 1, 1}
	_, got := g.coreDecompose()
	for v := range want {
		if got[v] != want[v] {
			t.Errorf("core[%d] = %d, want %d", v, got[v], want[v])
		}
	}
}

// TestCoreNumbersDefinition checks against the definition: the k-core
// (maximal subgraph with min degree >= k) contains exactly the
// vertices with core number >= k.
func TestCoreNumbersDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 20; i++ {
		g := randomGraph(rng, 30)
		_, core := g.coreDecompose()
		maxCore := 0
		for _, c := range core {
			if c > maxCore {
				maxCore = c
			}
		}
		for k := 0; k <= maxCore; k++ {
			want := bruteKCore(g, k)
			for v := range core {
				if (core[v] >= k) != want[v] {
					t.Fatalf("graph %d: vertex %d core=%d, k=%d: in k-core=%v, want %v",
						i, v, core[v], k, core[v] >= k, want[v])
				}
			}
		}
	}
}

// bruteKCore computes k-core membership by repeated peeling.
func bruteKCore(g *Graph, k int) []bool {
	n := g.NumVertices()
	in := make([]bool, n)
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		in[v] = true
		deg[v] = g.Degree(VertexID(v))
	}
	for changed := true; changed; {
		changed = false
		for v := 0; v < n; v++ {
			if in[v] && deg[v] < k {
				in[v] = false
				changed = true
				for _, w := range g.Adj(VertexID(v)) {
					if in[w] {
						deg[w]--
					}
				}
			}
		}
	}
	return in
}

func TestRelabelPreservesStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 20; i++ {
		g := randomGraph(rng, 25)
		n := g.NumVertices()
		perm := make([]VertexID, n)
		for j := range perm {
			perm[j] = VertexID(j)
		}
		rng.Shuffle(n, func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		h := g.Relabel(perm)
		if h.NumEdges() != g.NumEdges() {
			t.Fatalf("relabel changed edge count %d -> %d", g.NumEdges(), h.NumEdges())
		}
		g.Edges(func(u, v VertexID) bool {
			if !h.HasEdge(perm[u], perm[v]) {
				t.Fatalf("edge (%d,%d) lost under relabel", u, v)
			}
			return true
		})
		if g.CountTriangles() != h.CountTriangles() {
			t.Fatalf("relabel changed triangle count")
		}
		if g.Degeneracy() != h.Degeneracy() {
			t.Fatalf("relabel changed degeneracy")
		}
	}
}

func TestRelabelPanicsOnBadPermutation(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1}})
	for _, perm := range [][]VertexID{
		{0, 1},     // wrong length
		{0, 0, 1},  // repeated
		{0, 1, 5},  // out of range
		{-1, 0, 1}, // negative
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Relabel(%v) did not panic", perm)
				}
			}()
			g.Relabel(perm)
		}()
	}
}

// TestQuickTriangleInvariance: adding an edge never decreases the
// triangle count, for arbitrary small graphs and edges.
func TestQuickTriangleInvariance(t *testing.T) {
	f := func(seed int64, uRaw, vRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 20)
		n := g.NumVertices()
		u := VertexID(int(uRaw) % n)
		v := VertexID(int(vRaw) % n)
		if u == v {
			return true
		}
		before := g.CountTriangles()
		b := NewBuilder(n)
		g.Edges(func(x, y VertexID) bool { b.AddEdge(x, y); return true })
		b.AddEdge(u, v)
		after := b.Build().CountTriangles()
		return after >= before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickDegeneracyBounds: degeneracy is at most max degree and at
// least avg degree / 2, and the largest clique is at most degeneracy+1.
func TestQuickDegeneracyBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 25)
		d := g.Degeneracy()
		if d > g.MaxDegree() {
			return false
		}
		if float64(d) < g.AvgDegree()/2-1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
