// Package twintwig reimplements TwinTwig [Lai et al., PVLDB 2015], the
// MapReduce star-join baseline of the paper's evaluation. The query is
// decomposed into "twin twigs" — stars with at most two edges — and
// evaluated with one distributed hash join per twig: every round, both
// the previous partial results and the twig's local star embeddings
// are shuffled by join key to the joining machine.
//
// The cost profile the paper criticizes is preserved: the complete
// intermediate-result relation crosses the network every round, and
// rounds are synchronous.
package twintwig

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"

	"rads/internal/baselines/common"
	"rads/internal/graph"
	"rads/internal/partition"
	"rads/internal/pattern"
)

// Unit is one twin twig: a center and 1..2 leaf endpoints; its edges
// are (Center, Leaf) for each leaf.
type Unit struct {
	Center pattern.VertexID
	Leaves []pattern.VertexID
}

// Decompose splits p into twin twigs covering every edge exactly once.
// The first twig is centered at a maximum-degree vertex; every later
// twig is centered at an already-covered vertex (so each join has a
// non-empty key).
func Decompose(p *pattern.Pattern) ([]Unit, error) {
	covered := make(map[[2]pattern.VertexID]bool) // normalized edges
	coveredV := make(map[pattern.VertexID]bool)
	norm := func(a, b pattern.VertexID) [2]pattern.VertexID {
		if a > b {
			a, b = b, a
		}
		return [2]pattern.VertexID{a, b}
	}
	uncoveredAt := func(c pattern.VertexID) []pattern.VertexID {
		var out []pattern.VertexID
		for _, w := range p.Adj(c) {
			if !covered[norm(c, w)] {
				out = append(out, w)
			}
		}
		return out
	}
	total := p.NumEdges()
	var units []Unit
	for len(covered) < total {
		best, bestCnt := pattern.VertexID(-1), -1
		for c := 0; c < p.N(); c++ {
			cv := pattern.VertexID(c)
			if len(units) > 0 && !coveredV[cv] {
				continue
			}
			if cnt := len(uncoveredAt(cv)); cnt > bestCnt {
				best, bestCnt = cv, cnt
			}
		}
		if best < 0 || bestCnt == 0 {
			return nil, fmt.Errorf("twintwig: decomposition stuck on %s", p.Name)
		}
		leaves := uncoveredAt(best)
		if len(leaves) > 2 {
			leaves = leaves[:2] // twin twigs have at most two edges
		}
		for _, lf := range leaves {
			covered[norm(best, lf)] = true
			coveredV[lf] = true
		}
		coveredV[best] = true
		units = append(units, Unit{Center: best, Leaves: leaves})
	}
	return units, nil
}

// Run enumerates p with the TwinTwig strategy.
func Run(part *partition.Partition, p *pattern.Pattern, cfg common.Config) (*common.Result, error) {
	units, err := Decompose(p)
	if err != nil {
		return nil, err
	}
	return RunJoin(part, p, unitsToJoin(units), cfg)
}

// JoinUnit is the unit form shared with SEED: an anchor whose data
// vertex must be local, the unit's other vertices (all adjacent to the
// anchor), and the unit edges (as indexes into Verts) checked during
// local enumeration — SEED passes triangle/clique closing edges here.
type JoinUnit struct {
	Verts []pattern.VertexID    // unit vertices, anchor first
	Edges [][2]pattern.VertexID // unit edges (indexes into Verts)
}

func unitsToJoin(units []Unit) []JoinUnit {
	var out []JoinUnit
	for _, u := range units {
		verts := append([]pattern.VertexID{u.Center}, u.Leaves...)
		var edges [][2]pattern.VertexID
		for i := range u.Leaves {
			edges = append(edges, [2]pattern.VertexID{0, pattern.VertexID(i + 1)})
		}
		out = append(out, JoinUnit{Verts: verts, Edges: edges})
	}
	return out
}

// RunJoin is the multi-round hash-join dataflow shared by TwinTwig and
// SEED (SEED passes richer units). A round is three supersteps: every
// machine embeds the unit locally and sends the previous results to
// their join machine; the join machines receive them while every
// machine sends its unit rows; the join machines receive those and
// join.
func RunJoin(part *partition.Partition, p *pattern.Pattern, units []JoinUnit, cfg common.Config) (*common.Result, error) {
	rt := common.NewRuntime(part.M, cfg)
	defer rt.Close()
	g := part.G
	check := common.NewConstraintChecker(p)

	// Layouts: matched query vertices of P_{i} in sorted order.
	var prevVerts []pattern.VertexID
	// cur[id] = R(P_{i-1}) rows held at machine id, laid out by prevVerts.
	cur := make([][]common.Row, part.M)

	for round, unit := range units {
		unitVerts := unit.Verts
		// New layout = union, sorted; join key = intersection.
		newVerts := unionSorted(prevVerts, unitVerts)
		keyVerts := joinKey(prevVerts, unitVerts)

		// Positions for key extraction and row building.
		prevPos := positions(prevVerts)
		unitPos := positions(unitVerts)
		newPos := positions(newVerts)
		byKey := func(pos map[pattern.VertexID]int) func(common.Row) int {
			return func(row common.Row) int { return keyTarget(row, pos, keyVerts, part.M) }
		}

		// Local star/clique embeddings of this unit. In round 0 they,
		// in the sorted layout, are R(P_0); later the previous results
		// leave for their join machine.
		starRows := make([][]common.Row, part.M)
		err := rt.Superstep(func(id int) error {
			charger := rt.NewCharger(id, len(unitVerts))
			for _, va := range part.Vertices(id) {
				rows := enumUnit(g, p, unit, va)
				if err := charger.Add(len(rows)); err != nil {
					charger.ReleaseAll()
					return err
				}
				starRows[id] = append(starRows[id], rows...)
			}
			charger.ReleaseAll()
			if round == 0 {
				perm := layoutPerm(unitVerts, newVerts)
				for _, row := range starRows[id] {
					cur[id] = append(cur[id], permute(row, perm))
				}
				return rt.ChargeRows(id, len(cur[id]), len(unitVerts))
			}
			rt.ReleaseRows(id, len(cur[id]), len(prevVerts))
			return rt.Send(id, cur[id], byKey(prevPos))
		})
		if err != nil {
			return nil, err
		}
		if round == 0 {
			prevVerts = newVerts
			continue
		}
		prevIn := make([][]common.Row, part.M)
		err = rt.Superstep(func(id int) (err error) {
			if prevIn[id], err = rt.Receive(id, len(prevVerts)); err != nil {
				return err
			}
			return rt.Send(id, starRows[id], byKey(unitPos))
		})
		if err != nil {
			return nil, err
		}

		// Hash join: bucket the unit rows by key, probe with the
		// previous results.
		err = rt.Superstep(func(id int) error {
			starIn, err := rt.Receive(id, len(unitVerts))
			if err != nil {
				return err
			}
			defer rt.ReleaseRows(id, len(prevIn[id]), len(prevVerts))
			defer rt.ReleaseRows(id, len(starIn), len(unitVerts))
			buckets := make(map[string][]common.Row)
			var kb []byte
			for _, srow := range starIn {
				kb = appendKey(kb[:0], srow, unitPos, keyVerts)
				buckets[string(kb)] = append(buckets[string(kb)], srow)
			}
			f := make([]graph.VertexID, p.N())
			charger := rt.NewCharger(id, len(newVerts))
			var out []common.Row
			for _, prow := range prevIn[id] {
				kb = appendKey(kb[:0], prow, prevPos, keyVerts)
				for _, srow := range buckets[string(kb)] {
					if merged, ok := merge(prow, srow, prevVerts, unitVerts, newVerts, newPos, f, check); ok {
						if err := charger.Add(1); err != nil {
							charger.ReleaseAll()
							return err
						}
						out = append(out, merged)
					}
				}
			}
			if err := charger.Flush(); err != nil {
				charger.ReleaseAll()
				return err
			}
			cur[id] = out
			return nil
		})
		if err != nil {
			return nil, err
		}
		prevVerts = newVerts
	}

	// Final constraint sweep: single-unit plans (e.g. one clique unit
	// covering the whole pattern) never pass through a join's merge, so
	// symmetry breaking must be enforced here. For multi-unit plans the
	// rows already satisfy every constraint and pass unchanged.
	err := rt.Superstep(func(id int) error {
		f := make([]graph.VertexID, p.N())
		kept := cur[id][:0]
		for _, row := range cur[id] {
			for i := range f {
				f[i] = -1
			}
			for i, u := range prevVerts {
				f[u] = row[i]
			}
			if check.Check(f) {
				kept = append(kept, row)
			}
		}
		rt.ReleaseRows(id, len(cur[id])-len(kept), len(prevVerts))
		cur[id] = kept
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rt.Finish(cur, len(prevVerts), len(units)), nil
}

// enumUnit enumerates the unit's embeddings anchored at local vertex
// va: every other unit vertex is matched within adj(va) (stars) or
// checked via the unit's edge list (cliques, for SEED). Rows follow
// the unit.Verts layout.
func enumUnit(g *graph.Graph, p *pattern.Pattern, unit JoinUnit, va graph.VertexID) []common.Row {
	if g.Degree(va) < p.Degree(unit.Verts[0]) {
		return nil
	}
	k := len(unit.Verts)
	row := make(common.Row, k)
	row[0] = va
	var out []common.Row
	var rec func(i int)
	rec = func(i int) {
		if i == k {
			cp := make(common.Row, k)
			copy(cp, row)
			out = append(out, cp)
			return
		}
		u := unit.Verts[i]
		for _, v := range g.Adj(va) {
			if g.Degree(v) < p.Degree(u) {
				continue
			}
			dup := false
			for j := 0; j < i; j++ {
				if row[j] == v {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			row[i] = v
			// Unit edges among matched unit vertices (beyond the
			// anchor edges, e.g. SEED's triangle closing edge).
			ok := true
			for _, e := range unit.Edges {
				a, b := int(e[0]), int(e[1])
				if a <= i && b <= i && (a == i || b == i) {
					if !g.HasEdge(row[a], row[b]) {
						ok = false
						break
					}
				}
			}
			if ok {
				rec(i + 1)
			}
		}
		row[i] = -1
	}
	rec(1)
	return out
}

func unionSorted(a, b []pattern.VertexID) []pattern.VertexID {
	seen := make(map[pattern.VertexID]bool)
	var out []pattern.VertexID
	for _, v := range a {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	for _, v := range b {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// joinKey returns the query vertices of sorted layout prev that unit
// also matches, ascending. Layouts hold a handful of pattern vertices,
// so a scan per vertex is all it takes.
func joinKey(prev, unit []pattern.VertexID) []pattern.VertexID {
	var key []pattern.VertexID
	for _, v := range prev {
		if slices.Contains(unit, v) {
			key = append(key, v)
		}
	}
	return key
}

func positions(verts []pattern.VertexID) map[pattern.VertexID]int {
	m := make(map[pattern.VertexID]int, len(verts))
	for i, v := range verts {
		m[v] = i
	}
	return m
}

func appendKey(dst []byte, row common.Row, pos map[pattern.VertexID]int, key []pattern.VertexID) []byte {
	for _, kv := range key {
		v := row[pos[kv]]
		dst = append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return dst
}

func keyTarget(row common.Row, pos map[pattern.VertexID]int, key []pattern.VertexID, m int) int {
	h := fnv.New32a()
	var buf [4]byte
	for _, kv := range key {
		v := row[pos[kv]]
		buf[0], buf[1], buf[2], buf[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		h.Write(buf[:])
	}
	return int(h.Sum32() % uint32(m))
}

// merge combines a previous row and a unit row into the new layout,
// enforcing injectivity and symmetry constraints. Key consistency is
// guaranteed by the hash join.
func merge(prow, srow common.Row, prevVerts, unitVerts, newVerts []pattern.VertexID, newPos map[pattern.VertexID]int, f []graph.VertexID, check *common.ConstraintChecker) (common.Row, bool) {
	for i := range f {
		f[i] = -1
	}
	for i, u := range prevVerts {
		f[u] = prow[i]
	}
	for i, u := range unitVerts {
		if f[u] >= 0 && f[u] != srow[i] {
			return nil, false // key consistency (defensive)
		}
		f[u] = srow[i]
	}
	// Injectivity across the union.
	seen := make(map[graph.VertexID]bool, len(newVerts))
	for _, u := range newVerts {
		if seen[f[u]] {
			return nil, false
		}
		seen[f[u]] = true
	}
	if !check.Check(f) {
		return nil, false
	}
	out := make(common.Row, len(newVerts))
	for i, u := range newVerts {
		out[i] = f[u]
	}
	return out, true
}

func layoutPerm(from, to []pattern.VertexID) []int {
	pos := positions(from)
	perm := make([]int, len(to))
	for i, v := range to {
		perm[i] = pos[v]
	}
	return perm
}

func permute(row common.Row, perm []int) common.Row {
	out := make(common.Row, len(perm))
	for i, j := range perm {
		out[i] = row[j]
	}
	return out
}
