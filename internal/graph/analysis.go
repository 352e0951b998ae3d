package graph

// CountTriangles returns the number of triangles in the graph using
// the degree-ordered merge algorithm: each triangle {a,b,c} is counted
// exactly once at its lowest-ranked vertex. Runs in O(m^1.5) like the
// standard forward algorithm.
//
// Triangle counts drive two parts of the reproduction: dataset
// profiling (the paper's RoadNet has almost no triangles, which is why
// Crystal's clique index is useless there) and the Crystal baseline's
// index-size accounting (Table 2).
func (g *Graph) CountTriangles() int64 { return CountTrianglesOf(g) }

// TrianglesPerVertex returns, for every vertex, the number of
// triangles it participates in.
func (g *Graph) TrianglesPerVertex() []int64 {
	counts := make([]int64, g.NumVertices())
	var buf []VertexID
	for u := range g.adj {
		for _, v := range g.adj[u] {
			if VertexID(u) < v {
				buf = IntersectSortedU32(buf, g.adj[u], g.adj[v])
				for _, w := range buf {
					// Count each triangle once per vertex: restrict to w > v
					// so the triangle {u,v,w} with u<v<w is seen exactly once,
					// then credit all three corners.
					if w > v {
						counts[u]++
						counts[v]++
						counts[w]++
					}
				}
			}
		}
	}
	return counts
}

// GlobalClusteringCoefficient returns 3*triangles / wedges (the
// transitivity of the graph), or 0 for graphs without wedges.
func (g *Graph) GlobalClusteringCoefficient() float64 {
	wedges := int64(0)
	for _, a := range g.adj {
		d := int64(len(a))
		wedges += d * (d - 1) / 2
	}
	if wedges == 0 {
		return 0
	}
	return 3 * float64(g.CountTriangles()) / float64(wedges)
}

// DegeneracyOrder returns the vertices in degeneracy (smallest-last)
// order: repeatedly remove a vertex of minimum remaining degree. The
// position of a vertex in the returned slice is its rank. This is the
// standard bucket-queue implementation and runs in O(n + m).
func (g *Graph) DegeneracyOrder() []VertexID {
	order, _ := g.degeneracy()
	return order
}

// Degeneracy returns the graph degeneracy: the maximum, over the
// smallest-last removal, of the degree at removal time. A graph of
// degeneracy d has no (d+2)-clique, which bounds the clique sizes the
// Crystal index can contain.
func (g *Graph) Degeneracy() int {
	_, d := g.degeneracy()
	return d
}

// degeneracy is the Batagelj-Zaversnik core decomposition: a counting
// sort of vertices by degree, then repeated removal of the minimum,
// maintaining sorted order with swap updates. O(n + m).
func (g *Graph) degeneracy() ([]VertexID, int) {
	order, core := g.coreDecompose()
	degeneracy := 0
	for _, c := range core {
		if c > degeneracy {
			degeneracy = c
		}
	}
	return order, degeneracy
}

// CoreNumbers returns the k-core number of every vertex: the largest k
// such that the vertex survives in the subgraph where every remaining
// vertex has degree >= k.
func (g *Graph) CoreNumbers() []int {
	_, core := g.coreDecompose()
	return core
}

func (g *Graph) coreDecompose() ([]VertexID, []int) {
	n := g.NumVertices()
	deg := make([]int, n)
	maxDeg := 0
	for v := range g.adj {
		deg[v] = len(g.adj[v])
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
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
	for v := range g.adj {
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
		for _, w := range g.adj[v] {
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

// DegreeHistogram returns hist where hist[d] = number of vertices of
// degree d.
func (g *Graph) DegreeHistogram() []int {
	hist := make([]int, g.MaxDegree()+1)
	for _, a := range g.adj {
		hist[len(a)]++
	}
	return hist
}

// Density returns 2m / (n*(n-1)), the fraction of possible edges
// present; 0 for graphs with fewer than two vertices.
func (g *Graph) Density() float64 {
	n := float64(g.NumVertices())
	if n < 2 {
		return 0
	}
	return 2 * float64(g.m) / (n * (n - 1))
}

// InducedSubgraph returns the subgraph induced by keep, with vertices
// renumbered densely in the order given, plus the old-ID lookup table.
// Vertices listed twice are an error in the caller; the second copy is
// ignored.
func (g *Graph) InducedSubgraph(keep []VertexID) (*Graph, []VertexID) {
	idx := make(map[VertexID]int32, len(keep))
	old := make([]VertexID, 0, len(keep))
	for _, v := range keep {
		if _, dup := idx[v]; dup {
			continue
		}
		idx[v] = int32(len(old))
		old = append(old, v)
	}
	b := NewBuilder(len(old))
	for newU, u := range old {
		for _, w := range g.adj[u] {
			if newW, ok := idx[w]; ok && int32(newU) < newW {
				b.AddEdge(VertexID(newU), VertexID(newW))
			}
		}
	}
	return b.Build(), old
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
