// Package graph provides the in-memory data-graph representation used by
// every component of the RADS reproduction: an undirected graph stored
// in compressed-sparse-row form, one flat neighbour array plus an
// offsets array — the adjacency-list store Section 2 of the paper
// assumes ("we assume each partition is stored as an adjacency-list"),
// laid out as the one array the I/O model of subgraph enumeration in
// massive graphs presumes and the .radsgraph file stores verbatim.
//
// Vertex identifiers are dense integers in [0, NumVertices). Each
// vertex's neighbour slice is kept sorted ascending so that
// neighbourhood intersection — the hot operation of every enumeration
// algorithm in this repository — can run as a linear merge.
package graph

import (
	"fmt"
	"slices"
)

// VertexID identifies a data vertex. IDs are dense: a graph with n
// vertices uses IDs 0..n-1.
type VertexID int32

// Edge is an undirected data edge. Callers should normalise so that
// U <= V when using edges as map keys; Normalize does this.
type Edge struct {
	U, V VertexID
}

// Normalize returns the edge with endpoints ordered so that U <= V.
func (e Edge) Normalize() Edge {
	if e.U > e.V {
		return Edge{e.V, e.U}
	}
	return e
}

func (e Edge) String() string { return fmt.Sprintf("(%d,%d)", e.U, e.V) }

// Graph is an undirected graph in compressed-sparse-row form. The zero
// value is an empty graph; use NewBuilder or FromEdges to build one from
// edges, NewCSR to adopt finished arrays.
type Graph struct {
	off    []int64    // len n+1; off[v]..off[v+1] is v's slice of nbr
	nbr    []VertexID // len 2m, each undirected edge stored both ways
	maxDeg int
}

// newGraph wraps arrays known to be valid (sorted, duplicate-free,
// loop-free, symmetric rows), computing the maximum degree.
func newGraph(off []int64, nbr []VertexID) *Graph {
	g := &Graph{off: off, nbr: nbr}
	for v := 0; v+1 < len(off); v++ {
		g.maxDeg = max(g.maxDeg, int(off[v+1]-off[v]))
	}
	return g
}

// NewCSR adopts an offsets + neighbours pair as a Graph after
// validating the structural invariants: monotone offsets covering nbr
// exactly, sorted duplicate-free in-range rows, no self-loops, and
// symmetry (v in Adj(u) iff u in Adj(v)). It is the checked entry for
// arrays from outside the program — the .radsgraph decoder and the
// ingester both funnel through it, so a corrupt file or a buggy ingest
// pass fails loudly here instead of corrupting enumeration counts.
func NewCSR(off []int64, nbr []VertexID) (*Graph, error) {
	if len(off) == 0 {
		return nil, fmt.Errorf("graph: offsets array is empty")
	}
	n := len(off) - 1
	if off[0] != 0 || off[n] != int64(len(nbr)) {
		return nil, fmt.Errorf("graph: offsets span [%d,%d), want [0,%d)", off[0], off[n], len(nbr))
	}
	if len(nbr)%2 != 0 {
		return nil, fmt.Errorf("graph: odd neighbour count %d cannot be a symmetric undirected graph", len(nbr))
	}
	// All offsets first: a row is sliced only once every offset is known
	// to lie inside nbr.
	for v := 0; v < n; v++ {
		if off[v] > off[v+1] {
			return nil, fmt.Errorf("graph: offsets not monotone at vertex %d", v)
		}
	}
	g := newGraph(off, nbr)
	for v := 0; v < n; v++ {
		row := g.Adj(VertexID(v))
		for i, u := range row {
			if u < 0 || int(u) >= n {
				return nil, fmt.Errorf("graph: vertex %d has neighbour %d outside [0,%d)", v, u, n)
			}
			if int(u) == v {
				return nil, fmt.Errorf("graph: vertex %d has a self-loop", v)
			}
			if i > 0 && row[i-1] >= u {
				return nil, fmt.Errorf("graph: adjacency of vertex %d not strictly ascending at position %d", v, i)
			}
		}
	}
	// Symmetry: every stored arc needs its reverse. Binary search per
	// arc keeps this O(m log d); it runs once per load.
	for v := 0; v < n; v++ {
		vv := VertexID(v)
		for _, u := range g.Adj(vv) {
			if !ContainsSorted(g.Adj(u), vv) {
				return nil, fmt.Errorf("graph: edge (%d,%d) stored without its reverse", v, u)
			}
		}
	}
	return g, nil
}

// CSR returns the graph's offsets and neighbour arrays, for the
// .radsgraph codec. Both are owned by the graph and must not be
// modified.
func (g *Graph) CSR() (off []int64, nbr []VertexID) { return g.off, g.nbr }

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return max(len(g.off)-1, 0) }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int64 { return int64(len(g.nbr)) / 2 }

// Degree returns the degree of v.
func (g *Graph) Degree(v VertexID) int { return int(g.off[v+1] - g.off[v]) }

// Adj returns the sorted adjacency list of v, a view of the flat
// neighbour array: callers must not modify it.
func (g *Graph) Adj(v VertexID) []VertexID { return g.nbr[g.off[v]:g.off[v+1]] }

// HasEdge reports whether the undirected edge (u,v) exists. It binary
// searches the shorter adjacency list.
func (g *Graph) HasEdge(u, v VertexID) bool {
	n := g.NumVertices()
	if u < 0 || v < 0 || int(u) >= n || int(v) >= n {
		return false
	}
	if g.Degree(v) < g.Degree(u) {
		u, v = v, u
	}
	return ContainsSorted(g.Adj(u), v)
}

// AvgDegree returns the average vertex degree (2m/n).
func (g *Graph) AvgDegree() float64 {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	return float64(len(g.nbr)) / float64(n)
}

// MaxDegree returns the maximum vertex degree.
func (g *Graph) MaxDegree() int { return g.maxDeg }

// SizeBytes is the graph's resident footprint (the two arrays).
func (g *Graph) SizeBytes() int64 {
	return int64(len(g.off))*8 + int64(len(g.nbr))*4
}

// Edges calls fn once for every undirected edge with u < v. It stops
// early if fn returns false.
func (g *Graph) Edges(fn func(u, v VertexID) bool) {
	for u := 0; u < g.NumVertices(); u++ {
		uu := VertexID(u)
		for _, v := range g.Adj(uu) {
			if uu < v {
				if !fn(uu, v) {
					return
				}
			}
		}
	}
}

// Builder accumulates edges and produces a Graph. Duplicate edges and
// self-loops are silently dropped, matching the paper's simple
// unlabeled-undirected-graph model.
type Builder struct {
	n     int
	edges []Edge
}

// NewBuilder creates a builder for a graph with n vertices.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// AddEdge records the undirected edge (u,v). Self-loops are ignored.
// Panics if either endpoint is out of range, since that is always a
// programming error in this repository (generators produce dense IDs).
func (b *Builder) AddEdge(u, v VertexID) {
	if u == v {
		return
	}
	if u < 0 || v < 0 || int(u) >= b.n || int(v) >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	b.edges = append(b.edges, Edge{u, v})
}

// Build counting-sorts the recorded edges into CSR rows, then sorts and
// deduplicates every row, and returns the finished graph. The builder
// must not be reused afterwards.
func (b *Builder) Build() *Graph {
	start := make([]int64, b.n+1)
	for _, e := range b.edges {
		start[e.U+1]++
		start[e.V+1]++
	}
	for v := 0; v < b.n; v++ {
		start[v+1] += start[v]
	}
	flat := make([]VertexID, start[b.n])
	cursor := make([]int64, b.n)
	copy(cursor, start)
	for _, e := range b.edges {
		flat[cursor[e.U]] = e.V
		cursor[e.U]++
		flat[cursor[e.V]] = e.U
		cursor[e.V]++
	}
	b.edges = nil
	off, nbr, _ := CompactRows(start, cursor, flat)
	return newGraph(off, nbr)
}

// CompactRows is the last step of building CSR arrays from unsorted
// rows: row v is flat[start[v]:end[v]], rows lie in vertex order and do
// not overlap. Each row is sorted ascending and stripped of repeats,
// and the rows are compacted to the front of flat in place. It returns
// the offsets of the compacted rows (len(end)+1 entries), the
// compacted prefix of flat, and the number of arcs dropped as repeats.
// Builder.Build and the dataset ingester share it.
func CompactRows(start, end []int64, flat []VertexID) (off []int64, nbr []VertexID, dropped int64) {
	n := len(end)
	off = make([]int64, n+1)
	// Rows only shrink, so the left-to-right write pointer never
	// overtakes the read region.
	var w int64
	for v := 0; v < n; v++ {
		row := flat[start[v]:end[v]]
		slices.Sort(row)
		for i, u := range row {
			if i == 0 || row[i-1] != u {
				flat[w] = u
				w++
			} else {
				dropped++
			}
		}
		off[v+1] = w
	}
	return off, flat[:w], dropped
}

// FromEdges builds a graph with n vertices from an edge list.
func FromEdges(n int, edges []Edge) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e.U, e.V)
	}
	return b.Build()
}
