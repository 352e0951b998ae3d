package common

import (
	"slices"

	"rads/internal/graph"
	"rads/internal/localenum"
	"rads/internal/partition"
	"rads/internal/pattern"
)

// Levels is the vertex-at-a-time plan PSgL and BigJoin share. The query
// vertices are matched in localenum.GreedyOrder, one per level, and a
// row of width k binds Order[:k]. Level k ≥ 1 proposes candidates for
// Order[k] from the adjacency list of its anchor, the earliest-matched
// pattern neighbour; the other matched neighbours must be adjacent to
// the candidate, which each engine checks its own way.
type Levels struct {
	Order  []pattern.VertexID
	Anchor []int   // Anchor[k]: order position of level k's anchor
	Checks [][]int // Checks[k]: order positions of its other matched neighbours
	p      *pattern.Pattern
	check  *ConstraintChecker
}

// NewLevels plans p.
func NewLevels(p *pattern.Pattern) *Levels {
	n := p.N()
	lv := &Levels{
		Order:  localenum.GreedyOrder(p),
		Anchor: make([]int, n),
		Checks: make([][]int, n),
		p:      p,
		check:  NewConstraintChecker(p),
	}
	pos := make([]int, n)
	for i, u := range lv.Order {
		pos[u] = i
	}
	for k := 1; k < n; k++ {
		for _, w := range p.Adj(lv.Order[k]) {
			if pos[w] < k {
				lv.Checks[k] = append(lv.Checks[k], pos[w])
			}
		}
		a := slices.Min(lv.Checks[k])
		lv.Anchor[k] = a
		lv.Checks[k] = slices.DeleteFunc(lv.Checks[k], func(x int) bool { return x == a })
	}
	return lv
}

// Seed matches level 0 in one superstep: every machine takes the
// vertices it owns whose degree admits Order[0], charged as rows of
// width 1.
func (lv *Levels) Seed(rt *Runtime, part *partition.Partition) ([][]Row, error) {
	cur := make([][]Row, part.M)
	err := rt.Superstep(func(id int) error {
		for _, v := range part.Vertices(id) {
			if part.G.Degree(v) >= lv.p.Degree(lv.Order[0]) {
				cur[id] = append(cur[id], Row{v})
			}
		}
		return rt.ChargeRows(id, len(cur[id]), 1)
	})
	return cur, err
}

// Expand extends rows of width k by level k: every neighbour of a row's
// anchor vertex that is not already in the row and keeps the
// symmetry-breaking constraints on the vertices matched so far. Each
// new row is charged to c as it is produced, so a level that explodes
// aborts mid-expansion rather than after.
func (lv *Levels) Expand(g *graph.Graph, rows []Row, k int, c *Charger) ([]Row, error) {
	f := make([]graph.VertexID, len(lv.Order))
	u := lv.Order[k]
	var out []Row
	for _, row := range rows {
		for i := range f {
			f[i] = -1
		}
		for i, v := range row {
			f[lv.Order[i]] = v
		}
		for _, v := range g.Adj(row[lv.Anchor[k]]) {
			if slices.Contains(row, v) {
				continue
			}
			f[u] = v
			if !lv.check.Check(f) {
				continue
			}
			if err := c.Add(1); err != nil {
				return nil, err
			}
			next := make(Row, k+1)
			copy(next, row)
			next[k] = v
			out = append(out, next)
		}
	}
	return out, nil
}
