package graph

import "slices"

// HubFirst renumbers g so that IDs descend by degree: vertex 0 has the
// highest degree, and vertices of equal degree keep their relative
// order, so the result is deterministic. It returns the renumbered
// graph and, for each new ID, the ID the vertex has in g. The cost is
// one sort of the vertices and one pass over the arcs.
//
// This is the one hub-first numbering of the repository: the ingester
// applies it under dataset.Options.DegreeOrder, and harness.LoadStore
// to every edge list and analog. Power-law graphs put most
// intersection work on the hubs, and clustering them at the front of
// the neighbour array keeps the hot lists within a few cache-resident
// pages (the locality lever HUGE builds its store around). It also
// decides where matches start: pattern.SymmetryBreaking gives each
// orbit's pick vertex the largest ID, which on this numbering is the
// lowest degree.
func HubFirst(g *Graph) (*Graph, []VertexID) {
	n := g.NumVertices()
	old := make([]VertexID, n)
	for i := range old {
		old[i] = VertexID(i)
	}
	slices.SortFunc(old, func(x, y VertexID) int {
		if dx, dy := g.Degree(x), g.Degree(y); dx != dy {
			return dy - dx
		}
		return int(x - y)
	})
	perm := make([]VertexID, n) // perm[old ID] = new ID
	off := make([]int64, n+1)
	for v, o := range old {
		perm[o] = VertexID(v)
		off[v+1] = off[v] + int64(g.Degree(o))
	}
	nbr := make([]VertexID, len(g.nbr))
	for v, o := range old {
		row := nbr[off[v]:off[v+1]]
		for i, u := range g.Adj(o) {
			row[i] = perm[u]
		}
		slices.Sort(row)
	}
	return &Graph{off: off, nbr: nbr, maxDeg: g.maxDeg}, old
}

// IsHubFirst reports whether g's degrees are non-increasing in ID
// order, the invariant HubFirst establishes.
func (g *Graph) IsHubFirst() bool {
	for v := 1; v < g.NumVertices(); v++ {
		if g.Degree(VertexID(v)) > g.Degree(VertexID(v-1)) {
			return false
		}
	}
	return true
}
