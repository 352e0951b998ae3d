package pattern

import "sort"

// Automorphisms returns every automorphism of the pattern as a
// permutation slice perm where perm[u] is the image of u. Patterns are
// tiny, so plain backtracking over degree-compatible assignments is
// plenty fast.
func (p *Pattern) Automorphisms() [][]VertexID {
	var out [][]VertexID
	perm := make([]VertexID, p.n)
	used := make([]bool, p.n)
	var rec func(u int)
	rec = func(u int) {
		if u == p.n {
			cp := make([]VertexID, p.n)
			copy(cp, perm)
			out = append(out, cp)
			return
		}
		for v := 0; v < p.n; v++ {
			if used[v] || p.Degree(VertexID(u)) != p.Degree(VertexID(v)) {
				continue
			}
			// Consistency with already-mapped neighbours.
			ok := true
			for _, w := range p.adj[u] {
				if int(w) < u && !p.HasEdge(VertexID(v), perm[w]) {
					ok = false
					break
				}
			}
			// Non-edges must map to non-edges (injective homomorphism on
			// a graph of equal edge count is an isomorphism, but checking
			// here prunes earlier).
			if ok {
				for w := 0; w < u; w++ {
					if !p.HasEdge(VertexID(u), VertexID(w)) && p.HasEdge(VertexID(v), perm[w]) {
						ok = false
						break
					}
				}
			}
			if !ok {
				continue
			}
			perm[u] = VertexID(v)
			used[v] = true
			rec(u + 1)
			used[v] = false
		}
	}
	rec(0)
	return out
}

// OrderConstraint requires f(Less) < f(Greater) in every reported
// embedding (the paper's "preserved order of the query vertices").
type OrderConstraint struct {
	Less, Greater VertexID
}

// SymmetryBreaking returns a constraint set that keeps exactly one
// embedding per automorphism class, using the Grochow-Kellis procedure
// the paper cites ([8]): repeatedly pick the smallest vertex with a
// non-trivial orbit, constrain it above its whole orbit, then restrict
// the group to that vertex's stabilizer.
//
// The pick takes the largest data-vertex ID of its orbit, not the
// smallest. On a store numbered hub-first (graph.HubFirst: applied by
// radsprep -degree-order, the benchmark fixture, and harness.LoadStore
// to every edge list and analog, so radserve -graph and -dataset DBLP)
// the largest ID is the lowest-degree vertex of the orbit's image. The
// plans of the query catalogue start at a pick wherever the start
// vertex has a non-trivial orbit (q1, q3, q4, q6-q8, the cliques), so
// there their embeddings are rooted where candidate lists are
// shortest, not at a hub. Other numberings (a registry dataset
// ingested first-seen, a graph built in code) get no such guarantee:
// counts are the same, but a match may be rooted at a hub. Every
// engine reads this one definition.
func (p *Pattern) SymmetryBreaking() []OrderConstraint {
	auts := p.Automorphisms()
	var cons []OrderConstraint
	for len(auts) > 1 {
		// Orbit of each vertex under the remaining group.
		orbit := make([]map[VertexID]bool, p.n)
		for i := range orbit {
			orbit[i] = map[VertexID]bool{VertexID(i): true}
		}
		for _, a := range auts {
			for u := 0; u < p.n; u++ {
				orbit[u][a[u]] = true
			}
		}
		pick := -1
		for u := 0; u < p.n; u++ {
			if len(orbit[u]) > 1 {
				pick = u
				break
			}
		}
		if pick < 0 {
			break // group acts trivially on vertices (impossible for >1 auts, but safe)
		}
		members := make([]VertexID, 0, len(orbit[pick]))
		for v := range orbit[pick] {
			members = append(members, v)
		}
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		for _, v := range members {
			if v != VertexID(pick) {
				cons = append(cons, OrderConstraint{Less: v, Greater: VertexID(pick)})
			}
		}
		// Stabilizer of pick.
		var stab [][]VertexID
		for _, a := range auts {
			if a[pick] == VertexID(pick) {
				stab = append(stab, a)
			}
		}
		auts = stab
	}
	return cons
}

// AutomorphismCount returns |Aut(P)|.
func (p *Pattern) AutomorphismCount() int { return len(p.Automorphisms()) }
