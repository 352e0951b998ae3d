package gen

import (
	"testing"

	"rads/internal/graph"
)

func TestBarabasiAlbertShape(t *testing.T) {
	g := BarabasiAlbert(500, 3, 1)
	if g.NumVertices() != 500 {
		t.Fatalf("n = %d, want 500", g.NumVertices())
	}
	// Seed clique K4 has 6 edges; each of the remaining 496 vertices
	// adds exactly 3 distinct edges (duplicates impossible: targets are
	// distinct and the new vertex is fresh).
	want := int64(6 + 496*3)
	if g.NumEdges() != want {
		t.Errorf("m = %d, want %d", g.NumEdges(), want)
	}
	if _, comps := g.ConnectedComponents(); comps != 1 {
		t.Errorf("BA graph has %d components, want 1", comps)
	}
	// Preferential attachment produces hubs: max degree far above avg.
	if float64(g.MaxDegree()) < 3*g.AvgDegree() {
		t.Errorf("max degree %d suspiciously close to avg %.1f: no hubs?",
			g.MaxDegree(), g.AvgDegree())
	}
}

func TestBarabasiAlbertDeterministic(t *testing.T) {
	a := BarabasiAlbert(200, 2, 7)
	b := BarabasiAlbert(200, 2, 7)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed produced different graphs")
	}
	same := true
	a.Edges(func(u, v graph.VertexID) bool {
		if !b.HasEdge(u, v) {
			same = false
			return false
		}
		return true
	})
	if !same {
		t.Error("same seed produced different edge sets")
	}
}

func TestBarabasiAlbertPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"k0":    func() { BarabasiAlbert(10, 0, 1) },
		"small": func() { BarabasiAlbert(3, 3, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestWattsStrogatzLattice(t *testing.T) {
	// beta=0: exact ring lattice, n*k edges, all degrees 2k.
	g := WattsStrogatz(50, 2, 0, 1)
	if g.NumEdges() != 100 {
		t.Fatalf("lattice m = %d, want 100", g.NumEdges())
	}
	for v := 0; v < 50; v++ {
		if g.Degree(graph.VertexID(v)) != 4 {
			t.Fatalf("lattice degree(%d) = %d, want 4", v, g.Degree(graph.VertexID(v)))
		}
	}
	// Ring lattice with k=2 has triangles (v, v+1, v+2).
	if g.CountTriangles() == 0 {
		t.Error("ring lattice with k=2 should contain triangles")
	}
}

func TestWattsStrogatzRewiringShrinksDiameter(t *testing.T) {
	lattice := WattsStrogatz(400, 2, 0, 3)
	rewired := WattsStrogatz(400, 2, 0.3, 3)
	dl := lattice.ApproxDiameter(6)
	dr := rewired.ApproxDiameter(6)
	if dr >= dl {
		t.Errorf("rewiring did not shrink diameter: lattice %d, rewired %d", dl, dr)
	}
}

func TestWattsStrogatzPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"k-too-big": func() { WattsStrogatz(10, 5, 0.1, 1) },
		"beta-neg":  func() { WattsStrogatz(10, 2, -0.1, 1) },
		"beta-big":  func() { WattsStrogatz(10, 2, 1.5, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestRMATShape(t *testing.T) {
	g := RMAT(9, 8, 5)
	if g.NumVertices() != 512 {
		t.Fatalf("n = %d, want 512", g.NumVertices())
	}
	if g.NumEdges() == 0 {
		t.Fatal("R-MAT generated no edges")
	}
	// Sampled 4096 pairs; after dedup and self-loop removal the edge
	// count must not exceed the sample count.
	if g.NumEdges() > 4096 {
		t.Errorf("m = %d exceeds sampled pair count", g.NumEdges())
	}
	if _, comps := g.ConnectedComponents(); comps != 1 {
		t.Errorf("connectified R-MAT has %d components", comps)
	}
	// The RMAT degree distribution is skewed: low-ID vertices (those in
	// the favoured quadrant) accumulate much higher degree.
	if float64(g.MaxDegree()) < 4*g.AvgDegree() {
		t.Errorf("R-MAT max degree %d vs avg %.1f: skew missing",
			g.MaxDegree(), g.AvgDegree())
	}
}

func TestRMATPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("RMAT(0, ...) did not panic")
		}
	}()
	RMAT(0, 8, 1)
}

func TestProfile(t *testing.T) {
	g := Clique(5)
	s := Profile("k5", g)
	if s.Vertices != 5 || s.Edges != 10 {
		t.Fatalf("profile size wrong: %+v", s)
	}
	if s.Triangles != 10 {
		t.Errorf("K5 triangles = %d, want C(5,3) = 10", s.Triangles)
	}
	if s.Clustering != 1 {
		t.Errorf("K5 clustering = %v, want 1", s.Clustering)
	}
	if s.Degeneracy != 4 {
		t.Errorf("K5 degeneracy = %d, want 4", s.Degeneracy)
	}
	if s.Diameter != 1 {
		t.Errorf("K5 diameter = %d, want 1", s.Diameter)
	}
	if s.Components != 1 {
		t.Errorf("K5 components = %d, want 1", s.Components)
	}
	if str := s.String(); str == "" {
		t.Error("Stats.String empty")
	}
}

// TestDatasetAnalogRegimes checks that the four dataset analogs land
// in the structural regimes the paper's narrative needs.
func TestDatasetAnalogRegimes(t *testing.T) {
	road := Profile("roadnet", RoadNet(40, 40, 1))
	dblp := Profile("dblp", Community(12, 30, 0.25, 1))
	lj := Profile("livejournal", PowerLaw(1500, 14, 2.5, 0, 1))
	uk := Profile("uk2002", PowerLaw(1500, 24, 2.3, 800, 1))

	// RoadNet analog: sparse and high diameter relative to the others.
	if road.AvgDegree > 4 {
		t.Errorf("roadnet avg degree %.2f too dense", road.AvgDegree)
	}
	if road.Diameter < 3*dblp.Diameter {
		t.Errorf("roadnet diameter %d not >> dblp %d", road.Diameter, dblp.Diameter)
	}
	// DBLP analog: clustered.
	if dblp.Clustering < 0.05 {
		t.Errorf("dblp clustering %.3f too low", dblp.Clustering)
	}
	// LJ/UK analogs: skewed hubs and many triangles for UK.
	if float64(lj.MaxDegree) < 4*lj.AvgDegree {
		t.Errorf("livejournal hubs missing: max %d avg %.1f", lj.MaxDegree, lj.AvgDegree)
	}
	if uk.Triangles <= lj.Triangles {
		t.Errorf("uk triangles %d not above lj %d", uk.Triangles, lj.Triangles)
	}
	// All connected.
	for _, s := range []Stats{road, dblp, lj, uk} {
		if s.Components != 1 {
			t.Errorf("%s: %d components, want 1", s.Name, s.Components)
		}
	}
}
