package common

import (
	"slices"
	"testing"

	"rads/internal/cluster"
	"rads/internal/gen"
	"rads/internal/graph"
	"rads/internal/pattern"
)

func TestLevelsAnchorIsEarliestMatchedNeighbour(t *testing.T) {
	for _, p := range append(pattern.QuerySet(), pattern.CliqueQuerySet()...) {
		lv := NewLevels(p)
		pos := make([]int, p.N())
		for i, u := range lv.Order {
			pos[u] = i
		}
		for k := 1; k < p.N(); k++ {
			var matched []int
			for _, w := range p.Adj(lv.Order[k]) {
				if pos[w] < k {
					matched = append(matched, pos[w])
				}
			}
			got := append([]int{lv.Anchor[k]}, lv.Checks[k]...)
			slices.Sort(got)
			slices.Sort(matched)
			if lv.Anchor[k] != matched[0] || !slices.Equal(got, matched) {
				t.Errorf("%s level %d: anchor %d checks %v, matched neighbours %v",
					p.Name, k, lv.Anchor[k], lv.Checks[k], matched)
			}
		}
	}
}

func TestLevelsExpandIsInjectiveAndCharged(t *testing.T) {
	// Level 1 of a triangle on K4: every ordered pair allowed by the
	// constraints, never a repeated vertex, each row charged.
	g := gen.Clique(4)
	p := pattern.Triangle()
	budget := cluster.NewMemBudget(1, 0)
	rt := NewRuntime(1, Config{Budget: budget})
	defer rt.Close()
	lv := NewLevels(p)
	var rows []Row
	for v := graph.VertexID(0); v < 4; v++ {
		rows = append(rows, Row{v})
	}
	c := rt.NewCharger(0, 2)
	next, err := lv.Expand(g, rows, 1, c)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(next) != 6 { // C(4,2): the constraint orders every pair
		t.Errorf("rows = %v, want the 6 ordered pairs", next)
	}
	for _, row := range next {
		if len(row) != 2 || row[0] == row[1] {
			t.Errorf("row %v is not injective", row)
		}
	}
	if used := budget.Used(0); used != int64(len(next))*RowBytes(2) {
		t.Errorf("charged %d bytes for %d rows", used, len(next))
	}
}
