package graph

// CountTriangles returns the number of triangles in the graph with the
// standard forward algorithm: each triangle is counted once, at its
// lowest-ranked corner under a degree-then-ID order, in O(m^1.5).
//
// Triangle counts drive three parts of the reproduction: dataset
// profiling (the paper's RoadNet has almost no triangles, which is why
// Crystal's clique index is useless there), the Crystal baseline's
// index-size accounting (Table 2), and the oracle the dataset smoke
// check compares engine counts against.
func (g *Graph) CountTriangles() int64 {
	n := g.NumVertices()
	// Rank vertices by (degree, id): forward edges point from lower to
	// higher rank, so each triangle is counted exactly once.
	rank := func(v VertexID) uint64 {
		return uint64(g.Degree(v))<<32 | uint64(uint32(v))
	}
	fwd := make([][]VertexID, n)
	for u := 0; u < n; u++ {
		uu := VertexID(u)
		ru := rank(uu)
		for _, v := range g.Adj(uu) {
			if rank(v) > ru {
				fwd[u] = append(fwd[u], v)
			}
		}
	}
	var total int64
	var buf []VertexID
	for u := range fwd {
		for _, v := range fwd[u] {
			buf = IntersectSortedU32(buf, fwd[u], fwd[v])
			total += int64(len(buf))
		}
	}
	return total
}

// GlobalClusteringCoefficient returns 3*triangles / wedges (the
// transitivity of the graph), or 0 for graphs without wedges.
func (g *Graph) GlobalClusteringCoefficient() float64 {
	wedges := int64(0)
	for v := 0; v < g.NumVertices(); v++ {
		d := int64(g.Degree(VertexID(v)))
		wedges += d * (d - 1) / 2
	}
	if wedges == 0 {
		return 0
	}
	return 3 * float64(g.CountTriangles()) / float64(wedges)
}

// Degeneracy returns the graph degeneracy: the maximum, over the
// smallest-last removal, of the degree at removal time. A graph of
// degeneracy d has no (d+2)-clique, which bounds the clique sizes the
// Crystal index can contain.
func (g *Graph) Degeneracy() int {
	_, core := g.coreDecompose()
	degeneracy := 0
	for _, c := range core {
		degeneracy = max(degeneracy, c)
	}
	return degeneracy
}

// coreDecompose is the Batagelj-Zaversnik core decomposition: a
// counting sort of vertices by degree, then repeated removal of the
// minimum, maintaining sorted order with swap updates, in O(n + m). It
// returns the removal (smallest-last) order and every vertex's k-core
// number: the largest k such that the vertex survives in the subgraph
// where every remaining vertex has degree >= k.
func (g *Graph) coreDecompose() ([]VertexID, []int) {
	n := g.NumVertices()
	deg := make([]int, n)
	for v := range deg {
		deg[v] = g.Degree(VertexID(v))
	}
	maxDeg := g.MaxDegree()
	// bin[d] = index in vert of the first vertex with degree d.
	bin := make([]int, maxDeg+2)
	for _, d := range deg {
		bin[d]++
	}
	start := 0
	for d := 0; d <= maxDeg; d++ {
		cnt := bin[d]
		bin[d] = start
		start += cnt
	}
	vert := make([]VertexID, n) // vertices sorted by current degree
	pos := make([]int, n)       // position of v in vert
	for v := range deg {
		pos[v] = bin[deg[v]]
		vert[pos[v]] = VertexID(v)
		bin[deg[v]]++
	}
	for d := maxDeg; d > 0; d-- {
		bin[d] = bin[d-1]
	}
	bin[0] = 0

	core := make([]int, n)
	k := 0
	for i := 0; i < n; i++ {
		v := vert[i]
		if deg[v] > k {
			k = deg[v]
		}
		core[v] = k
		for _, w := range g.Adj(v) {
			if deg[w] > deg[v] {
				// Swap w with the first vertex of its degree bucket, then
				// shrink the bucket by one: w's degree drops.
				dw := deg[w]
				pw, pfirst := pos[w], bin[dw]
				first := vert[pfirst]
				if w != first {
					vert[pw], vert[pfirst] = first, w
					pos[w], pos[first] = pfirst, pw
				}
				bin[dw]++
				deg[w]--
			}
		}
	}
	return vert, core
}

// Relabel returns a copy of g with vertex v renamed to perm[v].
// perm must be a permutation of 0..n-1; Relabel panics otherwise
// (callers construct permutations programmatically). Property tests
// use this to check that enumeration counts are isomorphism-invariant.
func (g *Graph) Relabel(perm []VertexID) *Graph {
	n := g.NumVertices()
	if len(perm) != n {
		panic("graph: Relabel permutation has wrong length")
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || int(p) >= n || seen[p] {
			panic("graph: Relabel argument is not a permutation")
		}
		seen[p] = true
	}
	b := NewBuilder(n)
	g.Edges(func(u, v VertexID) bool {
		b.AddEdge(perm[u], perm[v])
		return true
	})
	return b.Build()
}
