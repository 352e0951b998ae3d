package main

import (
	"bytes"
	"math/rand"
	"testing"

	"rads/internal/graph"
)

func TestEdgeListRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	b := graph.NewBuilder(40)
	for i := 0; i < 100; i++ {
		b.AddEdge(graph.VertexID(rng.Intn(40)), graph.VertexID(rng.Intn(40)))
	}
	g := b.Build()

	var buf bytes.Buffer
	if err := writeEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := graph.ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The round-tripped graph may have fewer trailing isolated vertices;
	// compare edges only.
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("edges = %d, want %d", g2.NumEdges(), g.NumEdges())
	}
	g.Edges(func(u, v graph.VertexID) bool {
		if !g2.HasEdge(u, v) {
			t.Errorf("missing edge (%d,%d)", u, v)
			return false
		}
		return true
	})
}
