package graph

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func triangle() *Graph {
	return FromEdges(3, []Edge{{0, 1}, {1, 2}, {0, 2}})
}

func path(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(VertexID(i), VertexID(i+1))
	}
	return b.Build()
}

func TestBuilderDeduplicatesAndSorts(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(2, 1)
	b.AddEdge(1, 2) // duplicate, reversed
	b.AddEdge(0, 3)
	b.AddEdge(3, 0) // duplicate
	b.AddEdge(1, 1) // self loop dropped
	g := b.Build()
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if got := g.Adj(1); !reflect.DeepEqual(got, []VertexID{2}) {
		t.Errorf("Adj(1) = %v, want [2]", got)
	}
	if got := g.Adj(3); !reflect.DeepEqual(got, []VertexID{0}) {
		t.Errorf("Adj(3) = %v, want [0]", got)
	}
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range edge")
		}
	}()
	NewBuilder(2).AddEdge(0, 5)
}

func TestHasEdge(t *testing.T) {
	g := triangle()
	cases := []struct {
		u, v VertexID
		want bool
	}{
		{0, 1, true}, {1, 0, true}, {0, 2, true}, {1, 2, true},
		{0, 0, false}, {2, 2, false},
		{-1, 0, false}, {0, 99, false},
	}
	for _, c := range cases {
		if got := g.HasEdge(c.u, c.v); got != c.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
}

func TestDegreeAndAverages(t *testing.T) {
	g := path(4) // 0-1-2-3
	if g.Degree(0) != 1 || g.Degree(1) != 2 {
		t.Errorf("degrees = %d,%d, want 1,2", g.Degree(0), g.Degree(1))
	}
	if got := g.AvgDegree(); got != 1.5 {
		t.Errorf("AvgDegree = %v, want 1.5", got)
	}
	if got := g.MaxDegree(); got != 2 {
		t.Errorf("MaxDegree = %v, want 2", got)
	}
}

func TestEdgesIteratesEachEdgeOnce(t *testing.T) {
	g := triangle()
	var seen []Edge
	g.Edges(func(u, v VertexID) bool {
		seen = append(seen, Edge{u, v})
		return true
	})
	want := []Edge{{0, 1}, {0, 2}, {1, 2}}
	if !reflect.DeepEqual(seen, want) {
		t.Errorf("Edges = %v, want %v", seen, want)
	}
}

func TestEdgesEarlyStop(t *testing.T) {
	g := triangle()
	n := 0
	g.Edges(func(u, v VertexID) bool {
		n++
		return false
	})
	if n != 1 {
		t.Errorf("early stop visited %d edges, want 1", n)
	}
}

func TestEdgeNormalize(t *testing.T) {
	if e := (Edge{5, 2}).Normalize(); e != (Edge{2, 5}) {
		t.Errorf("Normalize = %v", e)
	}
	if e := (Edge{2, 5}).Normalize(); e != (Edge{2, 5}) {
		t.Errorf("Normalize = %v", e)
	}
}

func TestIntersectSorted(t *testing.T) {
	cases := []struct {
		a, b, want []VertexID
	}{
		{[]VertexID{1, 3, 5}, []VertexID{2, 3, 5, 7}, []VertexID{3, 5}},
		{[]VertexID{}, []VertexID{1}, []VertexID{}},
		{[]VertexID{1, 2}, []VertexID{3, 4}, []VertexID{}},
		{[]VertexID{1, 2, 3}, []VertexID{1, 2, 3}, []VertexID{1, 2, 3}},
	}
	for _, c := range cases {
		got := IntersectSorted(nil, c.a, c.b)
		if len(got) == 0 && len(c.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("IntersectSorted(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestIntersectSortedProperty(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a := uniqueSorted(xs)
		b := uniqueSorted(ys)
		got := IntersectSorted(nil, a, b)
		inB := make(map[VertexID]bool)
		for _, v := range b {
			inB[v] = true
		}
		var want []VertexID
		for _, v := range a {
			if inB[v] {
				want = append(want, v)
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func uniqueSorted(xs []uint8) []VertexID {
	m := make(map[VertexID]bool)
	for _, x := range xs {
		m[VertexID(x)] = true
	}
	out := make([]VertexID, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestContainsSorted(t *testing.T) {
	a := []VertexID{1, 4, 9}
	for _, v := range a {
		if !ContainsSorted(a, v) {
			t.Errorf("ContainsSorted missing %d", v)
		}
	}
	for _, v := range []VertexID{0, 2, 10} {
		if ContainsSorted(a, v) {
			t.Errorf("ContainsSorted false positive %d", v)
		}
	}
}

func TestBFSFrom(t *testing.T) {
	g := path(5)
	dist := BFS(g, 0)
	want := []int32{0, 1, 2, 3, 4}
	if !reflect.DeepEqual(dist, want) {
		t.Errorf("BFS from 0 = %v, want %v", dist, want)
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1}}) // 2, 3 isolated
	dist := BFS(g, 0)
	if dist[2] != -1 || dist[3] != -1 {
		t.Errorf("unreachable distances = %v, want -1", dist[2:])
	}
}

func TestEccentricityAndDiameter(t *testing.T) {
	g := path(6)
	// A vertex's eccentricity is its largest BFS distance.
	for v, want := range map[VertexID]int32{0: 5, 3: 3} {
		if got := slices.Max(BFS(g, v)); got != want {
			t.Errorf("eccentricity(%d) = %d, want %d", v, got, want)
		}
	}
	if got := g.ApproxDiameter(4); got != 5 {
		t.Errorf("ApproxDiameter = %d, want 5", got)
	}
}

func TestConnectedComponents(t *testing.T) {
	g := FromEdges(6, []Edge{{0, 1}, {1, 2}, {3, 4}})
	comp, n := g.ConnectedComponents()
	if n != 3 {
		t.Fatalf("components = %d, want 3", n)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Errorf("0,1,2 should share a component: %v", comp)
	}
	if comp[3] != comp[4] || comp[3] == comp[0] || comp[5] == comp[0] || comp[5] == comp[3] {
		t.Errorf("bad components: %v", comp)
	}
}

// TestAdjacencyRoundTrip: a built graph's CSR arrays round-trip through
// the checked constructor unchanged, maximum degree included.
func TestAdjacencyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := NewBuilder(50)
	for i := 0; i < 120; i++ {
		b.AddEdge(VertexID(rng.Intn(50)), VertexID(rng.Intn(50)))
	}
	g := b.Build()
	g2, err := NewCSR(g.CSR())
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, g2)
	if g2.MaxDegree() != g.MaxDegree() {
		t.Errorf("MaxDegree = %d, want %d", g2.MaxDegree(), g.MaxDegree())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	if _, err := ReadEdgeList(bytes.NewBufferString("1\n")); err == nil {
		t.Error("want error for short line")
	}
	if _, err := ReadEdgeList(bytes.NewBufferString("a b\n")); err == nil {
		t.Error("want error for non-numeric")
	}
	g, err := ReadEdgeList(bytes.NewBufferString("# comment\n\n0 1\n"))
	if err != nil || g.NumEdges() != 1 {
		t.Errorf("comment handling failed: %v %v", g, err)
	}
}

func assertSameGraph(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() {
		t.Fatalf("vertices = %d, want %d", b.NumVertices(), a.NumVertices())
	}
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("edges = %d, want %d", b.NumEdges(), a.NumEdges())
	}
	for v := 0; v < a.NumVertices(); v++ {
		if !reflect.DeepEqual(a.Adj(VertexID(v)), b.Adj(VertexID(v))) {
			t.Fatalf("Adj(%d) differs: %v vs %v", v, a.Adj(VertexID(v)), b.Adj(VertexID(v)))
		}
	}
}
