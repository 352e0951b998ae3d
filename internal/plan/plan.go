// Package plan computes query execution plans (Section 4 of the paper):
// a decomposition of the pattern into units (a pivot plus leaf vertices,
// Definition 6/7) such that
//
//  1. the number of units (rounds) is minimum — equal to the connected
//     domination number c_P, achieved by rooting a maximum-leaf
//     spanning tree (Theorem 1);
//  2. among minimum-round plans, dp0.piv has the smallest span
//     (Section 4.2, maximizing SM-E work);
//  3. ties are broken by the score function (4) with rho = 1
//     (Section 4.3, front-loading verification edges and high-degree
//     pivots).
//
// It also derives the matching order of Definition 10, which fixes the
// level layout of the embedding trie, and provides the RanS / RanM
// baseline planners used in the Figure 13 ablation.
package plan

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"rads/internal/pattern"
)

// Unit is one decomposition unit dp_i: a pivot vertex and its leaves.
type Unit struct {
	Piv pattern.VertexID
	LF  []pattern.VertexID
}

// Plan is an execution plan: a unit sequence plus everything the
// enumeration engines need precomputed: per-unit edge classes, the
// matching order, and per-leaf verification structure.
type Plan struct {
	P     *pattern.Pattern
	Units []Unit

	// Order is the matching order (Definition 10); Order[0] = dp0.piv.
	// The vertices of P_i always form a prefix of Order.
	Order []pattern.VertexID
	// Pos[u] = position of query vertex u in Order.
	Pos []int

	// Per-unit derived edge sets (indices parallel Units).
	Star  [][][2]pattern.VertexID // expansion edges (piv, leaf)
	Sib   [][][2]pattern.VertexID // sibling edges within LF
	Cross [][][2]pattern.VertexID // cross-unit edges (P_{i-1} \ {piv}, leaf)

	// PrefixLen[i] = |V_{P_i}| = number of matched vertices after round i.
	PrefixLen []int
}

// NumRounds returns the number of decomposition units.
func (pl *Plan) NumRounds() int { return len(pl.Units) }

// VerificationEdges returns |Esib_i| + |Ecro_i| for round i.
func (pl *Plan) VerificationEdges(i int) int { return len(pl.Sib[i]) + len(pl.Cross[i]) }

// ScoreVerification implements formula (3) with rho = 1: verification
// edges weighted towards earlier rounds. Example 5 of the paper:
// SC(PL1) = 2/1 + 1/2 + 2/3 ~= 3.2.
func (pl *Plan) ScoreVerification() float64 {
	s := 0.0
	for i := range pl.Units {
		s += float64(pl.VerificationEdges(i)) / float64(i+1)
	}
	return s
}

// Score implements formula (4) with the paper's rho = 1.
func (pl *Plan) Score() float64 {
	s := 0.0
	for i := range pl.Units {
		w := 1.0 / float64(i+1)
		s += w*float64(pl.VerificationEdges(i)) + w*float64(pl.P.Degree(pl.Units[i].Piv))
	}
	return s
}

func (pl *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan[%s]", pl.P.Name)
	for i, u := range pl.Units {
		fmt.Fprintf(&b, " dp%d(piv=u%d,LF=%v)", i, u.Piv, u.LF)
	}
	return b.String()
}

// Build assembles a Plan from a unit sequence, validating the
// execution-plan conditions of Definitions 6 and 7 and deriving all
// precomputed structure. It returns an error if the sequence is not a
// valid execution plan for p. It is the one gate for a unit sequence
// from outside the process (a worker builds the coordinator's plan
// with it), so it checks every vertex ID before using it as an index.
func Build(p *pattern.Pattern, units []Unit) (*Plan, error) {
	if len(units) == 0 {
		return nil, fmt.Errorf("plan: no units")
	}
	pl := &Plan{P: p, Units: units}
	inPrev := make([]bool, p.N()) // vertex in V_{P_{i-1}}
	seen := make([]bool, p.N())
	covered := 0
	inRange := func(u pattern.VertexID) bool { return u >= 0 && int(u) < p.N() }

	for i, dp := range units {
		if len(dp.LF) == 0 {
			return nil, fmt.Errorf("plan: unit %d has empty leaf set", i)
		}
		if !inRange(dp.Piv) {
			return nil, fmt.Errorf("plan: unit %d pivot u%d is not a vertex of the %d-vertex pattern", i, dp.Piv, p.N())
		}
		if i == 0 {
			seen[dp.Piv] = true
			covered++
		} else if !inPrev[dp.Piv] {
			return nil, fmt.Errorf("plan: unit %d pivot u%d not in P_%d", i, dp.Piv, i-1)
		}
		var star, sib, cross [][2]pattern.VertexID
		for j, lf := range dp.LF {
			if !inRange(lf) {
				return nil, fmt.Errorf("plan: unit %d leaf u%d is not a vertex of the %d-vertex pattern", i, lf, p.N())
			}
			if seen[lf] {
				return nil, fmt.Errorf("plan: unit %d leaf u%d already appeared", i, lf)
			}
			// Marked as it is met, so a leaf repeated within the unit is
			// refused above like one from an earlier unit.
			seen[lf] = true
			covered++
			if !p.HasEdge(dp.Piv, lf) {
				return nil, fmt.Errorf("plan: unit %d: (u%d,u%d) is not a pattern edge", i, dp.Piv, lf)
			}
			star = append(star, [2]pattern.VertexID{dp.Piv, lf})
			// Sibling edges to earlier leaves of the same unit.
			for _, lf2 := range dp.LF[:j] {
				if p.HasEdge(lf, lf2) {
					sib = append(sib, [2]pattern.VertexID{lf2, lf})
				}
			}
			// Cross-unit edges to P_{i-1} vertices other than the pivot.
			for w := 0; w < p.N(); w++ {
				wv := pattern.VertexID(w)
				if inPrev[wv] && wv != dp.Piv && p.HasEdge(lf, wv) {
					cross = append(cross, [2]pattern.VertexID{wv, lf})
				}
			}
		}
		pl.Star = append(pl.Star, star)
		pl.Sib = append(pl.Sib, sib)
		pl.Cross = append(pl.Cross, cross)
		for v := 0; v < p.N(); v++ {
			if seen[v] {
				inPrev[v] = true
			}
		}
		pl.PrefixLen = append(pl.PrefixLen, covered)
	}
	if covered != p.N() {
		return nil, fmt.Errorf("plan: units cover %d of %d vertices", covered, p.N())
	}
	pl.computeOrder()
	return pl, nil
}

// computeOrder derives the matching order of Definition 10.
func (pl *Plan) computeOrder() {
	p := pl.P
	// pivotOf[u] = index of the unit u pivots, or -1.
	pivotOf := make([]int, p.N())
	for i := range pivotOf {
		pivotOf[i] = -1
	}
	for i, dp := range pl.Units {
		pivotOf[dp.Piv] = i
	}
	order := []pattern.VertexID{pl.Units[0].Piv}
	for _, dp := range pl.Units {
		leaves := append([]pattern.VertexID(nil), dp.LF...)
		sort.Slice(leaves, func(a, b int) bool {
			ua, ub := leaves[a], leaves[b]
			pa, pb := pivotOf[ua], pivotOf[ub]
			switch {
			case pa >= 0 && pb >= 0:
				return pa < pb // condition (1): pivot-leaves by unit index
			case pa >= 0:
				return true // condition (3)(iii): pivots before non-pivots
			case pb >= 0:
				return false
			default:
				// condition (3)(ii): descending degree, then vertex ID.
				da, db := p.Degree(ua), p.Degree(ub)
				if da != db {
					return da > db
				}
				return ua < ub
			}
		})
		order = append(order, leaves...)
	}
	pl.Order = order
	pl.Pos = make([]int, p.N())
	for i, u := range order {
		pl.Pos[u] = i
	}
}

// Compute returns the paper's optimized execution plan for p, applying
// the Section 4 heuristics in sequence. Patterns must be connected with
// at least one edge.
func Compute(p *pattern.Pattern) (*Plan, error) {
	cands, err := minimumRoundPlans(p)
	if err != nil {
		return nil, err
	}
	// Rule 2 (Section 4.2): smallest span of dp0.piv.
	bestSpan := p.N() + 1
	for _, pl := range cands {
		if s := p.Span(pl.Units[0].Piv); s < bestSpan {
			bestSpan = s
		}
	}
	var spanFiltered []*Plan
	for _, pl := range cands {
		if p.Span(pl.Units[0].Piv) == bestSpan {
			spanFiltered = append(spanFiltered, pl)
		}
	}
	// Rule 3 (Section 4.3): maximum score, deterministic tie-break.
	sort.Slice(spanFiltered, func(i, j int) bool {
		si, sj := spanFiltered[i].Score(), spanFiltered[j].Score()
		if si != sj {
			return si > sj
		}
		return spanFiltered[i].String() < spanFiltered[j].String()
	})
	return spanFiltered[0], nil
}

// minimumRoundPlans enumerates every plan obtainable by rooting a
// maximum-leaf spanning tree at a non-leaf vertex (the Theorem 1
// construction). All returned plans have exactly c_P units.
func minimumRoundPlans(p *pattern.Pattern) ([]*Plan, error) {
	if p.N() < 2 {
		return nil, fmt.Errorf("plan: pattern %s too small", p.Name)
	}
	if !p.IsConnected() {
		return nil, fmt.Errorf("plan: pattern %s is not connected", p.Name)
	}
	trees := spanningTrees(p)
	maxLeaf := 0
	for _, t := range trees {
		if l := leafCount(p.N(), t); l > maxLeaf {
			maxLeaf = l
		}
	}
	var out []*Plan
	for _, t := range trees {
		if leafCount(p.N(), t) != maxLeaf {
			continue
		}
		deg := treeDegrees(p.N(), t)
		for root := 0; root < p.N(); root++ {
			if p.N() > 2 && deg[root] < 2 {
				continue // leaves cannot root the construction
			}
			units := rootedUnits(p.N(), t, pattern.VertexID(root))
			pl, err := Build(p, units)
			if err != nil {
				return nil, fmt.Errorf("plan: theorem-1 construction failed: %w", err)
			}
			out = append(out, pl)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("plan: no minimum-round plan for %s", p.Name)
	}
	return out, nil
}

// MinimumRounds returns c_P, the connected domination number of p
// (= |V_P| - maximum leaf number, Theorem 1 / [4]).
func MinimumRounds(p *pattern.Pattern) (int, error) {
	pls, err := minimumRoundPlans(p)
	if err != nil {
		return 0, err
	}
	return pls[0].NumRounds(), nil
}

// spanningTrees enumerates all spanning trees as edge-index subsets.
// Patterns have <= ~14 edges, so brute-force subset enumeration over
// C(m, n-1) candidates is cheap and simple.
func spanningTrees(p *pattern.Pattern) [][][2]pattern.VertexID {
	edges := p.Edges()
	n := p.N()
	var out [][][2]pattern.VertexID
	pick := make([]int, 0, n-1)
	var rec func(start int)
	rec = func(start int) {
		if len(pick) == n-1 {
			t := make([][2]pattern.VertexID, 0, n-1)
			for _, i := range pick {
				t = append(t, edges[i])
			}
			if isSpanningTree(n, t) {
				out = append(out, t)
			}
			return
		}
		// Not enough edges left to finish.
		if len(edges)-start < n-1-len(pick) {
			return
		}
		for i := start; i < len(edges); i++ {
			pick = append(pick, i)
			rec(i + 1)
			pick = pick[:len(pick)-1]
		}
	}
	rec(0)
	return out
}

func isSpanningTree(n int, edges [][2]pattern.VertexID) bool {
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range edges {
		a, b := find(int(e[0])), find(int(e[1]))
		if a == b {
			return false // cycle
		}
		parent[a] = b
	}
	return true // n-1 acyclic edges on n vertices = spanning tree
}

func treeDegrees(n int, edges [][2]pattern.VertexID) []int {
	deg := make([]int, n)
	for _, e := range edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	return deg
}

func leafCount(n int, edges [][2]pattern.VertexID) int {
	cnt := 0
	for _, d := range treeDegrees(n, edges) {
		if d == 1 {
			cnt++
		}
	}
	return cnt
}

// rootedUnits applies the Theorem 1 construction: root the tree, make
// every non-leaf vertex the pivot of a unit whose LF is its children,
// in BFS order so each pivot is already matched when its unit runs.
func rootedUnits(n int, tree [][2]pattern.VertexID, root pattern.VertexID) []Unit {
	adj := make([][]pattern.VertexID, n)
	for _, e := range tree {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	for i := range adj {
		a := adj[i]
		sort.Slice(a, func(x, y int) bool { return a[x] < a[y] })
	}
	var units []Unit
	visited := make([]bool, n)
	visited[root] = true
	queue := []pattern.VertexID{root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		var children []pattern.VertexID
		for _, w := range adj[u] {
			if !visited[w] {
				visited[w] = true
				children = append(children, w)
				queue = append(queue, w)
			}
		}
		if len(children) > 0 {
			units = append(units, Unit{Piv: u, LF: children})
		}
	}
	return units
}

// RandomStar implements the Figure 13 baseline RanS: a plan built from
// random star units with no limit (or optimisation) on star size.
// Deterministic for a given rng state.
func RandomStar(p *pattern.Pattern, rng *rand.Rand) (*Plan, error) {
	n := p.N()
	visited := make([]bool, n)
	var units []Unit
	start := pattern.VertexID(rng.Intn(n))
	visited[start] = true
	cover := func(piv pattern.VertexID) []pattern.VertexID {
		var lf []pattern.VertexID
		for _, w := range p.Adj(piv) {
			if !visited[w] {
				lf = append(lf, w)
			}
		}
		return lf
	}
	lf := cover(start)
	if len(lf) == 0 {
		return nil, fmt.Errorf("plan: isolated start vertex u%d", start)
	}
	// Random star size: keep a random non-empty prefix of a shuffle.
	rng.Shuffle(len(lf), func(i, j int) { lf[i], lf[j] = lf[j], lf[i] })
	keep := 1 + rng.Intn(len(lf))
	lf = lf[:keep]
	sort.Slice(lf, func(i, j int) bool { return lf[i] < lf[j] })
	for _, w := range lf {
		visited[w] = true
	}
	units = append(units, Unit{Piv: start, LF: lf})
	for {
		// Candidate pivots: visited vertices with unvisited neighbours.
		var cands []pattern.VertexID
		for v := 0; v < n; v++ {
			if visited[v] && len(cover(pattern.VertexID(v))) > 0 {
				cands = append(cands, pattern.VertexID(v))
			}
		}
		if len(cands) == 0 {
			break
		}
		piv := cands[rng.Intn(len(cands))]
		lf := cover(piv)
		rng.Shuffle(len(lf), func(i, j int) { lf[i], lf[j] = lf[j], lf[i] })
		keep := 1 + rng.Intn(len(lf))
		lf = lf[:keep]
		sort.Slice(lf, func(i, j int) bool { return lf[i] < lf[j] })
		for _, w := range lf {
			visited[w] = true
		}
		units = append(units, Unit{Piv: piv, LF: lf})
	}
	return Build(p, units)
}

// RandomMinRound implements the Figure 13 baseline RanM: a plan with
// the minimum number of rounds chosen uniformly at random, ignoring the
// Section 4.2/4.3 heuristics.
func RandomMinRound(p *pattern.Pattern, rng *rand.Rand) (*Plan, error) {
	cands, err := minimumRoundPlans(p)
	if err != nil {
		return nil, err
	}
	return cands[rng.Intn(len(cands))], nil
}
