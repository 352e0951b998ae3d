// Package localenum is the single-machine subgraph enumerator used by
// RADS for SM-E (Section 3.1: "try to find a set of local embeddings
// using a single-machine algorithm, such as TurboIso") and used by the
// test suite as the correctness oracle for every distributed engine.
//
// The implementation is TurboIso-flavoured backtracking: a
// connectivity-aware matching order, degree filtering, and candidate
// generation by k-way intersection of the adjacency lists of all
// already-matched neighbours (internal/graph's adaptive kernels:
// linear merge, galloping on skewed lists, lower-bound skip for
// symmetry-breaking constraints). TurboIso's candidate-region and NEC
// machinery are performance refinements of the same exploration and
// are not needed for the reproduction.
//
// The core type is the reusable Enumerator: all state — the partial
// embedding, a used-vertex bitset, and per-level candidate scratch —
// is allocated at New and reused across Run calls, so the steady-state
// inner loop is allocation-free. Enumerate and Count are thin
// single-shot wrappers. A Run without a callback only counts: the last
// level is tallied in a loop over its candidates, not recursed into.
package localenum

import (
	"math"
	"slices"

	"rads/internal/graph"
	"rads/internal/pattern"
)

// Options configures an enumeration.
type Options struct {
	// Order is the matching order over query vertices. Every vertex
	// after the first must be adjacent to an earlier one. If nil,
	// GreedyOrder is used (max degree first, then most matched
	// neighbours).
	Order []pattern.VertexID
	// Constraints are symmetry-breaking order constraints. If nil,
	// pattern.SymmetryBreaking is used. Pass an empty non-nil slice to
	// enumerate without symmetry breaking.
	Constraints []pattern.OrderConstraint
	// Allowed restricts data vertices; nil allows all. SM-E passes
	// "owned by this machine".
	Allowed func(graph.VertexID) bool
	// StartCandidates restricts candidates of Order[0]; nil tries all
	// allowed data vertices. Run calls without explicit starts fall
	// back to this set.
	StartCandidates []graph.VertexID
}

// Stats reports work done by one Run/Enumerate call.
type Stats struct {
	Embeddings int64 // full embeddings reported
	TreeNodes  int64 // successful partial matches, including full ones;
	// equals the node count if results were stored in an embedding trie.
	Kernels graph.KernelTally // intersection-kernel selections made
}

// Enumerate finds embeddings of p in g, honouring opts, and calls fn
// with each full embedding f where f[u] is the data vertex matched to
// query vertex u. The slice is reused; copy it to retain. Enumeration
// stops early if fn returns false.
func Enumerate(g *graph.Graph, p *pattern.Pattern, opts Options, fn func(f []graph.VertexID) bool) Stats {
	if p.N() == 0 {
		return Stats{}
	}
	return New(g, p, opts).Run(fn)
}

// Count returns the number of embeddings of p in g under opts.
func Count(g *graph.Graph, p *pattern.Pattern, opts Options) int64 {
	st := Enumerate(g, p, opts, func([]graph.VertexID) bool { return true })
	return st.Embeddings
}

type posConstraint struct {
	other pattern.VertexID
	less  bool // true: f[u] < f[other] required; false: f[u] > f[other]
}

// noUpperBound is the sentinel for "no f[u] < f[other] constraint
// applies at this level" (data-vertex IDs are int32).
const noUpperBound = graph.VertexID(math.MaxInt32)

// Enumerator is a reusable single-machine enumerator. All scratch
// state is allocated by New (plus lazy per-level growth on the first
// runs) and reused across Run calls, so a long-lived Enumerator — one
// per RADS worker — enumerates candidate after candidate without
// allocating. An Enumerator is NOT safe for concurrent use; create one
// per goroutine.
type Enumerator struct {
	g       *graph.Graph
	p       *pattern.Pattern
	order   []pattern.VertexID
	allowed func(graph.VertexID) bool
	starts  []graph.VertexID // default start candidates (Options.StartCandidates)

	f    []graph.VertexID // partial embedding, indexed by query vertex
	used bitset           // data vertices matched so far

	prevAdj [][]pattern.VertexID // earlier-matched query neighbours per level
	cons    [][]posConstraint    // symmetry constraints applying at each level

	cand  [][]graph.VertexID // per-level candidate scratch (reused)
	lists [][]graph.VertexID // k-way intersection input scratch (reused)

	fn      func([]graph.VertexID) bool
	stats   Stats
	stopped bool
}

// New builds an Enumerator for p over g. The returned enumerator owns
// all its scratch state; Run may be called any number of times.
func New(g *graph.Graph, p *pattern.Pattern, opts Options) *Enumerator {
	n := p.N()
	order := opts.Order
	if order == nil {
		order = GreedyOrder(p)
	}
	cons := opts.Constraints
	if cons == nil {
		cons = p.SymmetryBreaking()
	}
	e := &Enumerator{
		g:       g,
		p:       p,
		order:   order,
		allowed: opts.Allowed,
		starts:  opts.StartCandidates,
		f:       make([]graph.VertexID, n),
		used:    newBitset(g.NumVertices()),
		cand:    make([][]graph.VertexID, n),
		lists:   make([][]graph.VertexID, 0, n),
	}
	for u := range e.f {
		e.f[u] = -1
	}
	// Precompute, for each order position i, the earlier-matched query
	// neighbours of order[i] and the constraints between order[i] and
	// earlier vertices.
	e.prevAdj = make([][]pattern.VertexID, n)
	e.cons = make([][]posConstraint, n)
	pos := make([]int, n)
	for i, u := range order {
		pos[u] = i
	}
	for i, u := range order {
		for _, w := range p.Adj(u) {
			if pos[w] < i {
				e.prevAdj[i] = append(e.prevAdj[i], w)
			}
		}
		for _, c := range cons {
			if c.Less == u && pos[c.Greater] < i {
				e.cons[i] = append(e.cons[i], posConstraint{other: c.Greater, less: true})
			}
			if c.Greater == u && pos[c.Less] < i {
				e.cons[i] = append(e.cons[i], posConstraint{other: c.Less, less: false})
			}
		}
	}
	return e
}

// Reset clears any sticky early-stop state and the last run's stats.
// Run does this implicitly; Reset exists for callers that want to
// observe a clean enumerator between uses.
func (e *Enumerator) Reset() {
	e.stats = Stats{}
	e.stopped = false
	e.fn = nil
}

// Run enumerates embeddings whose start (Order[0]) candidate is drawn
// from starts, calling fn for each full embedding (the slice is reused;
// copy to retain; return false to stop early). A nil fn counts only:
// Stats are exactly those of a callback that always returns true, but
// the last level is tallied without recursing into it. With no starts
// given it falls back to Options.StartCandidates, then to every allowed
// data vertex. Returns this run's stats.
func (e *Enumerator) Run(fn func(f []graph.VertexID) bool, starts ...graph.VertexID) Stats {
	e.stats = Stats{}
	e.stopped = false
	if len(e.order) == 0 {
		return e.stats // empty pattern: nothing to match
	}
	e.fn = fn
	if len(starts) == 0 {
		starts = e.starts
	}
	u0 := e.order[0]
	if starts == nil {
		for v := 0; v < e.g.NumVertices(); v++ {
			e.tryStart(u0, graph.VertexID(v))
			if e.stopped {
				break
			}
		}
	} else {
		for _, v := range starts {
			e.tryStart(u0, v)
			if e.stopped {
				break
			}
		}
	}
	e.fn = nil
	return e.stats
}

func (e *Enumerator) tryStart(u0 pattern.VertexID, v graph.VertexID) {
	if v < 0 || int(v) >= e.g.NumVertices() {
		return
	}
	if e.g.Degree(v) < e.p.Degree(u0) {
		return
	}
	if e.allowed != nil && !e.allowed(v) {
		return
	}
	e.f[u0] = v
	e.used.set(v)
	e.stats.TreeNodes++
	e.extend(1)
	e.used.clear(v)
	e.f[u0] = -1
}

// bounds derives the candidate interval at level i from the symmetry
// constraints: candidates must satisfy lb < v < ub.
func (e *Enumerator) bounds(i int) (lb, ub graph.VertexID) {
	lb, ub = -1, noUpperBound
	for _, c := range e.cons[i] {
		o := e.f[c.other]
		if c.less {
			if o < ub {
				ub = o
			}
		} else if o > lb {
			lb = o
		}
	}
	return lb, ub
}

// extend matches order[i] and recurses. Candidates are generated by
// k-way intersection of the matched neighbours' adjacency lists,
// starting above the symmetry lower bound; the remaining checks per
// candidate are the used-bitset, the degree filter, the upper bound
// (an early break, since candidates ascend) and the Allowed predicate.
func (e *Enumerator) extend(i int) {
	if i == len(e.order) {
		e.stats.Embeddings++
		if e.fn != nil && !e.fn(e.f) {
			e.stopped = true
		}
		return
	}
	u := e.order[i]
	lb, ub := e.bounds(i)
	prev := e.prevAdj[i]

	var cands []graph.VertexID
	switch len(prev) {
	case 0:
		// Disconnected order: fall back to all vertices (used only by
		// tests; plan-derived orders are connectivity-aware).
		e.extendDisconnected(i, u, lb, ub)
		return
	case 1:
		// Single matched neighbour: its adjacency list IS the candidate
		// set; skip to the lower bound without copying.
		adj := e.g.Adj(e.f[prev[0]])
		cands = adj[graph.SearchSorted(adj, lb+1):]
	default:
		lists := e.lists[:0]
		for _, w := range prev {
			lists = append(lists, e.g.Adj(e.f[w]))
		}
		e.lists = lists
		e.cand[i] = e.stats.Kernels.IntersectManyFromU32(e.cand[i], lb, lists...)
		cands = e.cand[i]
	}

	minDeg := e.p.Degree(u)
	// Count-only runs stop one level early: a match of the last query
	// vertex is a full embedding nobody asked to see.
	countOnly := e.fn == nil && i == len(e.order)-1
	for _, v := range cands {
		if v >= ub {
			break // candidates ascend; nothing further can satisfy v < ub
		}
		if e.used.has(v) || e.g.Degree(v) < minDeg {
			continue
		}
		if e.allowed != nil && !e.allowed(v) {
			continue
		}
		if countOnly {
			e.stats.TreeNodes++
			e.stats.Embeddings++
			continue
		}
		e.f[u] = v
		e.used.set(v)
		e.stats.TreeNodes++
		e.extend(i + 1)
		e.used.clear(v)
		e.f[u] = -1
		if e.stopped {
			return
		}
	}
}

// extendDisconnected handles a level with no earlier-matched
// neighbour: every allowed vertex in (lb, ub) is a candidate.
func (e *Enumerator) extendDisconnected(i int, u pattern.VertexID, lb, ub graph.VertexID) {
	minDeg := e.p.Degree(u)
	for v := lb + 1; v < graph.VertexID(e.g.NumVertices()); v++ {
		if v >= ub {
			break
		}
		if e.used.has(v) || e.g.Degree(v) < minDeg {
			continue
		}
		if e.allowed != nil && !e.allowed(v) {
			continue
		}
		e.f[u] = v
		e.used.set(v)
		e.stats.TreeNodes++
		e.extend(i + 1)
		e.used.clear(v)
		e.f[u] = -1
		if e.stopped {
			return
		}
	}
}

// bitset is a fixed-size bitmap over data-vertex IDs — the
// allocation-free replacement for the per-run map[VertexID]bool the
// seed enumerator rebuilt for every start candidate.
type bitset []uint64

func newBitset(n int) bitset            { return make(bitset, (n+63)/64) }
func (b bitset) set(v graph.VertexID)   { b[v>>6] |= 1 << (uint(v) & 63) }
func (b bitset) clear(v graph.VertexID) { b[v>>6] &^= 1 << (uint(v) & 63) }
func (b bitset) has(v graph.VertexID) bool {
	return b[v>>6]&(1<<(uint(v)&63)) != 0
}

// GreedyOrder returns a connectivity-aware matching order: the highest
// degree vertex first, then GreedyOrderFrom's rule.
func GreedyOrder(p *pattern.Pattern) []pattern.VertexID {
	return GreedyOrderFrom(p, maxDegreeVertex(p))
}

func maxDegreeVertex(p *pattern.Pattern) pattern.VertexID {
	best := pattern.VertexID(0)
	for u := 1; u < p.N(); u++ {
		if p.Degree(pattern.VertexID(u)) > p.Degree(best) {
			best = pattern.VertexID(u)
		}
	}
	return best
}

// GreedyOrderFrom returns the connectivity-aware matching order that
// starts at the given query vertex: repeatedly the vertex with the
// most already-ordered neighbours, so every level intersects as many
// adjacency lists as the pattern allows. Ties go to, in turn, a vertex
// of degree > 1 (an end vertex adds no intersection for later levels),
// a neighbour of the start vertex, the higher degree, the smaller ID.
// The start-neighbour rule expands from the start's own list: under
// pattern.SymmetryBreaking on a hub-first store the start is matched to
// the embedding's lowest-degree vertex, whose list is the shortest to
// take candidates from, while a path walked away from it runs through
// the hubs. RADS roots it at the plan's first pivot for SM-E —
// Proposition 1 fixes the start vertex, not the rest of the order.
func GreedyOrderFrom(p *pattern.Pattern, start pattern.VertexID) []pattern.VertexID {
	n := p.N()
	order := make([]pattern.VertexID, 0, n)
	placed := make([]bool, n)
	order = append(order, start)
	placed[start] = true
	// rank orders tied candidates: larger ranks first.
	rank := func(u pattern.VertexID) [3]int {
		var r [3]int
		if p.Degree(u) > 1 {
			r[0] = 1
		}
		if p.HasEdge(u, start) {
			r[1] = 1
		}
		r[2] = p.Degree(u)
		return r
	}
	for len(order) < n {
		bestU, bestScore := pattern.VertexID(-1), -1
		var bestRank [3]int
		for u := 0; u < n; u++ {
			if placed[u] {
				continue
			}
			score := 0
			for _, w := range p.Adj(pattern.VertexID(u)) {
				if placed[w] {
					score++
				}
			}
			if score == 0 {
				continue // keep order connected when possible
			}
			r := rank(pattern.VertexID(u))
			if score > bestScore || (score == bestScore && slices.Compare(r[:], bestRank[:]) > 0) {
				bestU, bestScore, bestRank = pattern.VertexID(u), score, r
			}
		}
		if bestU < 0 {
			// Disconnected pattern: place any remaining vertex.
			for u := 0; u < n; u++ {
				if !placed[u] {
					bestU = pattern.VertexID(u)
					break
				}
			}
		}
		order = append(order, bestU)
		placed[bestU] = true
	}
	return order
}

// BruteForce counts embeddings by checking every injective assignment,
// with no candidate propagation at all. It is an independent oracle for
// the test suite; only use it on tiny graphs.
func BruteForce(g *graph.Graph, p *pattern.Pattern, cons []pattern.OrderConstraint) int64 {
	if cons == nil {
		cons = p.SymmetryBreaking()
	}
	n := p.N()
	f := make([]graph.VertexID, n)
	for i := range f {
		f[i] = -1
	}
	used := make(map[graph.VertexID]bool)
	var count int64
	var rec func(u int)
	rec = func(u int) {
		if u == n {
			count++
			return
		}
		for v := 0; v < g.NumVertices(); v++ {
			vv := graph.VertexID(v)
			if used[vv] {
				continue
			}
			ok := true
			for _, w := range p.Adj(pattern.VertexID(u)) {
				if int(w) < u && !g.HasEdge(vv, f[w]) {
					ok = false
					break
				}
			}
			if ok {
				for _, c := range cons {
					if int(c.Greater) < u || int(c.Less) < u || c.Greater == pattern.VertexID(u) || c.Less == pattern.VertexID(u) {
						l, gr := f[c.Less], f[c.Greater]
						if c.Less == pattern.VertexID(u) {
							l = vv
						}
						if c.Greater == pattern.VertexID(u) {
							gr = vv
						}
						if l >= 0 && gr >= 0 && !(l < gr) {
							ok = false
							break
						}
					}
				}
			}
			if !ok {
				continue
			}
			f[u] = vv
			used[vv] = true
			rec(u + 1)
			used[vv] = false
			f[u] = -1
		}
	}
	rec(0)
	return count
}
