package partition

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"rads/internal/gen"
	"rads/internal/graph"
)

func TestNewValidates(t *testing.T) {
	g := gen.Grid(3, 3)
	if _, err := New(g, 2, make([]int32, 4)); err == nil {
		t.Error("want error for wrong owner length")
	}
	bad := make([]int32, 9)
	bad[0] = 5
	if _, err := New(g, 2, bad); err == nil {
		t.Error("want error for out-of-range owner")
	}
}

func TestHashPartitionInvariants(t *testing.T) {
	g := gen.ErdosRenyi(100, 0.05, 1)
	p := Hash(g, 4)
	checkInvariants(t, p)
	if p.Balance() > 1.01 {
		t.Errorf("hash balance = %v, want ~1", p.Balance())
	}
}

func TestKWayInvariants(t *testing.T) {
	for _, m := range []int{1, 2, 3, 5, 10} {
		g := gen.RoadNet(20, 20, 3)
		p := KWay(g, m, 7)
		checkInvariants(t, p)
		if b := p.Balance(); b > 1.5 {
			t.Errorf("m=%d: balance = %v, want <= 1.5", m, b)
		}
	}
}

func TestKWayBeatsHashOnLocality(t *testing.T) {
	g := gen.RoadNet(30, 30, 5)
	kw := KWay(g, 4, 11)
	h := Hash(g, 4)
	if kw.EdgeCut() >= h.EdgeCut() {
		t.Errorf("KWay cut %d not better than Hash cut %d on a grid", kw.EdgeCut(), h.EdgeCut())
	}
	// Locality also means strictly fewer border vertices.
	kb, hb := Measure(kw).BorderVertices, Measure(h).BorderVertices
	if kb >= hb {
		t.Errorf("KWay border %d not fewer than Hash border %d", kb, hb)
	}
}

func TestKWayDeterministic(t *testing.T) {
	g := gen.Community(10, 20, 0.3, 2)
	a := KWay(g, 3, 42)
	b := KWay(g, 3, 42)
	for v := range a.Owner {
		if a.Owner[v] != b.Owner[v] {
			t.Fatalf("vertex %d owner differs: %d vs %d", v, a.Owner[v], b.Owner[v])
		}
	}
}

func TestBorderVertices(t *testing.T) {
	// Path 0-1-2-3 split in the middle: 1 and 2 are border vertices.
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	p, err := New(g, 2, []int32{0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int32{1, 0, 0, 1}; !slices.Equal(p.BD, want) {
		t.Errorf("BD = %v, want %v", p.BD, want)
	}
}

func TestBorderDistancesOnPath(t *testing.T) {
	// Path of 6, machines {0,1,2} and {3,4,5}. Border: 2 and 3.
	b := graph.NewBuilder(6)
	for i := 0; i < 5; i++ {
		b.AddEdge(graph.VertexID(i), graph.VertexID(i+1))
	}
	g := b.Build()
	p, err := New(g, 2, []int32{0, 0, 0, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int32{2, 1, 0, 0, 1, 2}; !slices.Equal(p.BD, want) {
		t.Errorf("BD = %v, want %v", p.BD, want)
	}
}

func TestBorderDistancesNoBorder(t *testing.T) {
	// Two disjoint triangles each wholly owned: no border vertices.
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	b.AddEdge(3, 5)
	g := b.Build()
	p, err := New(g, 2, []int32{0, 0, 0, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	for v, bd := range p.BD {
		if bd != NoBorder {
			t.Errorf("BD(%d) = %d, want NoBorder", v, bd)
		}
	}
}

// referenceBorderDistances is the per-machine search New replaced: a
// breadth-first search over machine t's vertices alone, seeded with its
// border vertices. Other machines' vertices read -1.
func referenceBorderDistances(p *Partition, t int) []int32 {
	dist := make([]int32, p.G.NumVertices())
	for v := range dist {
		dist[v] = -1
	}
	var queue []graph.VertexID
	for _, v := range p.Vertices(t) {
		dist[v] = NoBorder
		if isBorder(p, v) {
			dist[v] = 0
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, w := range p.G.Adj(u) {
			if p.Owner[w] == int32(t) && dist[w] == NoBorder {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// isBorder reports whether v has a neighbour owned by another machine.
func isBorder(p *Partition, v graph.VertexID) bool {
	for _, u := range p.G.Adj(v) {
		if p.Owner[u] != p.Owner[v] {
			return true
		}
	}
	return false
}

// TestBorderDistancesMatchPerMachineSearch compares the one search of
// New with one search per machine over random graphs, both
// partitioners and 1..5 machines. The graphs are two disjoint random
// graphs plus isolated vertices, so some machines own whole components
// that reach no border vertex.
func TestBorderDistancesMatchPerMachineSearch(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := gen.ErdosRenyi(30+rng.Intn(40), 0.06, seed)
		c := gen.Community(2, 6+rng.Intn(6), 0.5, seed)
		n := a.NumVertices() + c.NumVertices() + 3
		b := graph.NewBuilder(n)
		a.Edges(func(u, v graph.VertexID) bool { b.AddEdge(u, v); return true })
		off := graph.VertexID(a.NumVertices())
		c.Edges(func(u, v graph.VertexID) bool { b.AddEdge(off+u, off+v); return true })
		g := b.Build()
		for m := 1; m <= 5; m++ {
			for name, p := range map[string]*Partition{"Hash": Hash(g, m), "KWay": KWay(g, m, seed)} {
				if len(p.BD) != n {
					t.Fatalf("seed %d %s m=%d: %d distances for %d vertices", seed, name, m, len(p.BD), n)
				}
				for tm := 0; tm < m; tm++ {
					for v, want := range referenceBorderDistances(p, tm) {
						if want >= 0 && p.BD[v] != want {
							t.Fatalf("seed %d %s m=%d: BD(%d) = %d, the machine-%d search gives %d",
								seed, name, m, v, p.BD[v], tm, want)
						}
					}
				}
			}
		}
	}
}

// Property: for every partitioner and graph, ownership invariants hold.
func TestPartitionProperty(t *testing.T) {
	f := func(seed int64, mRaw uint8) bool {
		m := int(mRaw%6) + 1
		g := gen.ErdosRenyi(60, 0.08, seed)
		p := KWay(g, m, seed)
		total := 0
		for t := 0; t < m; t++ {
			total += len(p.Vertices(t))
			for _, v := range p.Vertices(t) {
				if p.Owner[v] != int32(t) {
					return false
				}
			}
		}
		return total == g.NumVertices()
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: border distance 0 iff border vertex, and a neighbour of
// the same owner is at most one hop further from the border.
func TestBorderDistanceProperty(t *testing.T) {
	g := gen.Community(8, 15, 0.25, 6)
	p := KWay(g, 3, 6)
	for v, d := range p.BD {
		if isB := isBorder(p, graph.VertexID(v)); isB != (d == 0) {
			t.Errorf("vertex %d: border=%v but BD=%d", v, isB, d)
		}
		for _, u := range g.Adj(graph.VertexID(v)) {
			if p.Owner[u] == p.Owner[v] && p.BD[u] > d+1 {
				t.Errorf("edge %d-%d inside machine %d: BD %d and %d", v, u, p.Owner[v], d, p.BD[u])
			}
		}
	}
}

func checkInvariants(t *testing.T, p *Partition) {
	t.Helper()
	total := 0
	for tm := 0; tm < p.M; tm++ {
		total += len(p.Vertices(tm))
		for _, v := range p.Vertices(tm) {
			if p.Owner[v] != int32(tm) {
				t.Fatalf("vertex %d listed under machine %d but owned by %d", v, tm, p.Owner[v])
			}
		}
	}
	if total != p.G.NumVertices() {
		t.Fatalf("parts cover %d vertices, want %d", total, p.G.NumVertices())
	}
}

func TestEdgeCutCountsOnlyCross(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}, {U: 1, V: 2}})
	p, err := New(g, 2, []int32{0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.EdgeCut(); got != 1 {
		t.Errorf("EdgeCut = %d, want 1", got)
	}
}
