// Package dataset is the real-graph backend of the repository: it takes
// raw edge-list files (the SNAP format the paper's LiveJournal, Orkut
// and UK-2002 datasets ship in) end-to-end into the serving stack.
//
// Three pieces:
//
//   - a streaming ingester (ingest.go) that relabels sparse 64-bit IDs
//     to dense uint32 ones and counting-sorts edges into CSR in two
//     passes over the file, never materializing an edge map;
//   - a compact binary on-disk format, .radsgraph (format.go): a
//     versioned little-endian header, the offsets array and the
//     neighbour array, loadable in one read with loud version and
//     truncation rejection;
//   - a Registry (registry.go) of per-dataset manifests (name, path,
//     checksum, stats) so radserve, radsworker and radsbench resolve
//     graphs by name instead of ad-hoc file flags.
//
// The CSR type below implements graph.Store, so every engine, the
// partitioner and the local enumerator run on it unchanged.
package dataset

import (
	"fmt"

	"rads/internal/graph"
)

// CSR is a compressed-sparse-row undirected graph: one flat neighbour
// array plus an offsets array, with each vertex's neighbour slice
// sorted ascending (the invariant every intersection kernel relies
// on). Compared to the pointer-per-vertex adjacency-list Graph it is
// one allocation instead of n, cache-linear when scanning a
// neighbourhood, and maps 1:1 onto the .radsgraph file.
type CSR struct {
	off    []int64          // len n+1; off[v]..off[v+1] is v's slice of nbr
	nbr    []graph.VertexID // len 2m, each undirected edge stored both ways
	maxDeg int
}

var _ graph.Store = (*CSR)(nil)

// NewCSR wraps an offsets + neighbours pair as a CSR after validating
// the structural invariants: monotone offsets covering nbr exactly,
// sorted duplicate-free in-range adjacency, no self-loops, and
// symmetry (v in Adj(u) iff u in Adj(v)). The codec and the ingester
// both funnel through this, so a corrupt file or a buggy ingest pass
// fails loudly here instead of corrupting enumeration counts.
func NewCSR(off []int64, nbr []graph.VertexID) (*CSR, error) {
	if len(off) == 0 {
		return nil, fmt.Errorf("dataset: offsets array is empty")
	}
	n := len(off) - 1
	if off[0] != 0 || off[n] != int64(len(nbr)) {
		return nil, fmt.Errorf("dataset: offsets span [%d,%d), want [0,%d)", off[0], off[n], len(nbr))
	}
	if len(nbr)%2 != 0 {
		return nil, fmt.Errorf("dataset: odd neighbour count %d cannot be a symmetric undirected graph", len(nbr))
	}
	maxDeg := 0
	for v := 0; v < n; v++ {
		if off[v] > off[v+1] {
			return nil, fmt.Errorf("dataset: offsets not monotone at vertex %d", v)
		}
		row := nbr[off[v]:off[v+1]]
		if len(row) > maxDeg {
			maxDeg = len(row)
		}
		for i, u := range row {
			if u < 0 || int(u) >= n {
				return nil, fmt.Errorf("dataset: vertex %d has neighbour %d outside [0,%d)", v, u, n)
			}
			if int(u) == v {
				return nil, fmt.Errorf("dataset: vertex %d has a self-loop", v)
			}
			if i > 0 && row[i-1] >= u {
				return nil, fmt.Errorf("dataset: adjacency of vertex %d not strictly ascending at position %d", v, i)
			}
		}
	}
	c := &CSR{off: off, nbr: nbr, maxDeg: maxDeg}
	// Symmetry: every stored arc needs its reverse. Binary search per
	// arc keeps this O(m log d); it runs once per load.
	for v := 0; v < n; v++ {
		vv := graph.VertexID(v)
		for _, u := range c.Adj(vv) {
			if !graph.ContainsSorted(c.Adj(u), vv) {
				return nil, fmt.Errorf("dataset: edge (%d,%d) stored without its reverse", v, u)
			}
		}
	}
	return c, nil
}

// NumVertices returns the number of vertices.
func (c *CSR) NumVertices() int { return len(c.off) - 1 }

// NumEdges returns the number of undirected edges.
func (c *CSR) NumEdges() int64 { return int64(len(c.nbr)) / 2 }

// Degree returns the degree of v.
func (c *CSR) Degree(v graph.VertexID) int { return int(c.off[v+1] - c.off[v]) }

// Adj returns v's sorted neighbour slice, aliasing the store's flat
// array; callers must not modify it.
func (c *CSR) Adj(v graph.VertexID) []graph.VertexID { return c.nbr[c.off[v]:c.off[v+1]] }

// HasEdge reports whether the undirected edge (u,v) exists, binary
// searching the shorter adjacency slice.
func (c *CSR) HasEdge(u, v graph.VertexID) bool {
	n := c.NumVertices()
	if u < 0 || v < 0 || int(u) >= n || int(v) >= n {
		return false
	}
	if c.Degree(v) < c.Degree(u) {
		u, v = v, u
	}
	return graph.ContainsSorted(c.Adj(u), v)
}

// AvgDegree returns 2m/n.
func (c *CSR) AvgDegree() float64 {
	n := c.NumVertices()
	if n == 0 {
		return 0
	}
	return float64(len(c.nbr)) / float64(n)
}

// MaxDegree returns the maximum vertex degree.
func (c *CSR) MaxDegree() int { return c.maxDeg }

// Edges calls fn once per undirected edge with u < v, stopping early
// if fn returns false.
func (c *CSR) Edges(fn func(u, v graph.VertexID) bool) {
	for u := 0; u < c.NumVertices(); u++ {
		uu := graph.VertexID(u)
		for _, v := range c.Adj(uu) {
			if uu < v {
				if !fn(uu, v) {
					return
				}
			}
		}
	}
}

// SizeBytes is the store's resident footprint (the two arrays).
func (c *CSR) SizeBytes() int64 {
	return int64(len(c.off))*8 + int64(len(c.nbr))*4
}

// FromStore copies any graph.Store into CSR layout — the bridge for
// synthetic generators and tests that want the compact store without
// going through a file.
func FromStore(g graph.Store) *CSR {
	n := g.NumVertices()
	off := make([]int64, n+1)
	maxDeg := 0
	for v := 0; v < n; v++ {
		d := g.Degree(graph.VertexID(v))
		off[v+1] = off[v] + int64(d)
		if d > maxDeg {
			maxDeg = d
		}
	}
	nbr := make([]graph.VertexID, off[n])
	for v := 0; v < n; v++ {
		copy(nbr[off[v]:off[v+1]], g.Adj(graph.VertexID(v)))
	}
	return &CSR{off: off, nbr: nbr, maxDeg: maxDeg}
}
