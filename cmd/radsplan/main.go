// Command radsplan explains the Section 4 query planner: for a query
// pattern it prints the structural facts the heuristics key on (spans,
// degrees, symmetry-breaking constraints, clique content), the
// optimized execution plan with its per-round edge classes and matching
// order, and — with -compare — how the RanS / RanM baseline plans of
// the Figure 13 ablation differ.
//
// Usage:
//
//	radsplan -query q4
//	radsplan -query "house:5:0-1,1-2,2-3,3-4,4-0,0-2" -compare
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"rads/internal/pattern"
	"rads/internal/plan"
)

func main() {
	var (
		queryName = flag.String("query", "q4", "query name (q1..q8, cq1..cq4, triangle, fig2) or inline pattern name:n:edges")
		compare   = flag.Bool("compare", false, "also show RanS and RanM baseline plans")
		seed      = flag.Int64("seed", 1, "seed for the random baseline plans")
	)
	flag.Parse()
	if err := run(os.Stdout, *queryName, *compare, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "radsplan:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, queryName string, compare bool, seed int64) error {
	q := pattern.ByName(queryName)
	if q == nil && strings.Contains(queryName, ":") {
		var err error
		q, err = pattern.Parse(queryName)
		if err != nil {
			return err
		}
	}
	if q == nil {
		return fmt.Errorf("unknown query %q", queryName)
	}

	fmt.Fprintf(w, "pattern %s: %d vertices, %d edges, diameter %d, max clique %d, |Aut| = %d\n",
		q.Name, q.N(), q.NumEdges(), q.Diameter(), q.MaxCliqueSize(), q.AutomorphismCount())
	fmt.Fprintln(w, "vertex  degree  span")
	for u := 0; u < q.N(); u++ {
		uv := pattern.VertexID(u)
		fmt.Fprintf(w, "  u%-5d %-7d %d\n", u, q.Degree(uv), q.Span(uv))
	}
	if cons := q.SymmetryBreaking(); len(cons) > 0 {
		var parts []string
		for _, c := range cons {
			parts = append(parts, fmt.Sprintf("f(u%d) < f(u%d)", c.Less, c.Greater))
		}
		fmt.Fprintf(w, "symmetry breaking: %s\n", strings.Join(parts, ", "))
	} else {
		fmt.Fprintln(w, "symmetry breaking: none (pattern is rigid)")
	}

	pl, err := plan.Compute(q)
	if err != nil {
		return err
	}
	minRounds, err := plan.MinimumRounds(q)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\noptimized plan (c_P = %d rounds):\n", minRounds)
	describe(w, pl)

	if !compare {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	rans, err := plan.RandomStar(q, rng)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nRanS baseline (%d rounds, random stars):\n", rans.NumRounds())
	describe(w, rans)
	ranm, err := plan.RandomMinRound(q, rng)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nRanM baseline (%d rounds, unoptimized minimum):\n", ranm.NumRounds())
	describe(w, ranm)
	return nil
}

func describe(w io.Writer, pl *plan.Plan) {
	for i, dp := range pl.Units {
		fmt.Fprintf(w, "  round %d: pivot u%d, leaves %s — %d expansion, %d sibling, %d cross-unit edges\n",
			i, dp.Piv, verts(dp.LF), len(pl.Star[i]), len(pl.Sib[i]), len(pl.Cross[i]))
	}
	fmt.Fprintf(w, "  matching order: %s\n", verts(pl.Order))
	fmt.Fprintf(w, "  verification score (formula 3, rho=1): %.3f; full score (formula 4): %.3f\n",
		pl.ScoreVerification(), pl.Score())
	fmt.Fprintf(w, "  starting vertex u%d has span %d\n", pl.Order[0], pl.P.Span(pl.Order[0]))
}

func verts(vs []pattern.VertexID) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("u%d", v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
