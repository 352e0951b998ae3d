package localenum

import (
	"math/rand"
	"testing"

	"rads/internal/gen"
	"rads/internal/graph"
	"rads/internal/pattern"
)

// refRun is the reference for the candidate generation of Run: the
// enumeration e was built for, with every level of two or more matched
// neighbours taking the k-way fold of their lists — the enumerator as
// it was before mark and probe. It reads e's order, neighbour and
// constraint tables and nothing of its scratch. Its Stats are Run's
// but for the kernel tally.
func refRun(e *Enumerator, fn func([]graph.VertexID) bool, starts ...graph.VertexID) Stats {
	var st Stats
	n := len(e.order)
	f := make([]graph.VertexID, e.p.N())
	for u := range f {
		f[u] = -1
	}
	used := make(map[graph.VertexID]bool)
	stopped := false
	var tally graph.KernelTally
	allowed := func(v graph.VertexID) bool { return e.allowed == nil || e.allowed(v) }

	var extend func(i int)
	extend = func(i int) {
		if i == n {
			st.Embeddings++
			if fn != nil && !fn(f) {
				stopped = true
			}
			return
		}
		u := e.order[i]
		lb, ub := graph.VertexID(-1), noUpperBound
		for _, c := range e.cons[i] {
			if o := f[c.other]; c.less {
				ub = min(ub, o)
			} else {
				lb = max(lb, o)
			}
		}
		var cands []graph.VertexID
		switch prev := e.prevAdj[i]; len(prev) {
		case 0:
			for v := lb + 1; v < ub && int(v) < e.g.NumVertices(); v++ {
				cands = append(cands, v)
			}
		case 1:
			adj := e.g.Adj(f[prev[0]])
			cands = adj[graph.SearchSorted(adj, lb+1):]
		default:
			var lists [][]graph.VertexID
			for _, w := range prev {
				lists = append(lists, e.g.Adj(f[w]))
			}
			cands = tally.IntersectManyFromU32(nil, lb, lists...)
		}
		countOnly := fn == nil && i == n-1
		for _, v := range cands {
			if v >= ub {
				break
			}
			if used[v] || e.g.Degree(v) < e.p.Degree(u) || !allowed(v) {
				continue
			}
			st.TreeNodes++
			if countOnly {
				st.Embeddings++
				continue
			}
			f[u], used[v] = v, true
			extend(i + 1)
			f[u], used[v] = -1, false
			if stopped {
				return
			}
		}
	}

	if len(starts) == 0 {
		starts = e.starts
	}
	if starts == nil {
		for v := 0; v < e.g.NumVertices(); v++ {
			starts = append(starts, graph.VertexID(v))
		}
	}
	u0 := e.order[0]
	for _, v := range starts {
		if v < 0 || int(v) >= e.g.NumVertices() || e.g.Degree(v) < e.p.Degree(u0) || !allowed(v) {
			continue
		}
		f[u0], used[v] = v, true
		st.TreeNodes++
		extend(1)
		f[u0], used[v] = -1, false
		if stopped {
			break
		}
	}
	return st
}

// TestRunMatchesMergeReference: Run's Stats equal the merge-only
// reference's, kernel tally aside, on random graphs × the catalogue,
// cliques and random patterns, under connected and disconnected orders,
// Allowed, StartCandidates, early stop through the callback and
// count-only runs — and every bitmap is clear again after each Run. The
// draw must reach probed levels.
func TestRunMatchesMergeReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	patterns := append(pattern.QuerySet(), pattern.CliqueQuerySet()...)
	patterns = append(patterns, pattern.Triangle(), pattern.CompleteGraph(5))
	var probes int64
	graphs := 9
	if testing.Short() {
		graphs = 3
	}
	for gi := 0; gi < graphs; gi++ {
		var g *graph.Graph
		switch gi % 3 {
		case 0:
			g = gen.ErdosRenyi(14+rng.Intn(6), 0.3+0.2*rng.Float64(), rng.Int63())
		case 1:
			g, _ = graph.HubFirst(gen.PowerLaw(50+rng.Intn(30), 5, 2.4, 30, rng.Int63()))
		default:
			g = gen.Community(3, 8, 0.55, rng.Int63())
		}
		ps := append([]*pattern.Pattern{}, patterns...)
		for range 6 {
			ps = append(ps, randomConnectedPattern(rng))
		}
		var subset []graph.VertexID
		for v := 0; v < g.NumVertices(); v++ {
			if rng.Intn(3) == 0 {
				subset = append(subset, graph.VertexID(v))
			}
		}
		for _, p := range ps {
			// A disconnected order tries every vertex at each level without
			// a matched neighbour: kept to five vertices, it stays quick.
			var shuffled []pattern.VertexID
			if p.N() <= 5 {
				for _, u := range rng.Perm(p.N()) {
					shuffled = append(shuffled, pattern.VertexID(u))
				}
			}
			for oi, opts := range []Options{
				{},
				{Order: GreedyOrderFrom(p, pattern.VertexID(rng.Intn(p.N())))},
				{Order: shuffled}, // disconnected as often as not
				{Allowed: func(v graph.VertexID) bool { return v%3 != 0 }},
				{StartCandidates: subset},
				{Order: shuffled, Allowed: func(v graph.VertexID) bool { return v%4 != 1 }, StartCandidates: subset},
			} {
				e := New(g, p, opts)
				stop := 1 + rng.Intn(20)
				for ci, fn := range []func() func([]graph.VertexID) bool{
					func() func([]graph.VertexID) bool { return nil },
					func() func([]graph.VertexID) bool {
						return func([]graph.VertexID) bool { return true }
					},
					func() func([]graph.VertexID) bool {
						seen := 0
						return func([]graph.VertexID) bool { seen++; return seen < stop }
					},
				} {
					got := e.Run(fn())
					probes += got.Kernels.Probe
					got.Kernels = graph.KernelTally{}
					if want := refRun(e, fn()); got != want {
						t.Fatalf("graph %d, %s, options %d, callback %d: Run %+v, reference %+v", gi, p, oi, ci, got, want)
					}
					assertMarksClear(t, e)
				}
			}
		}
	}
	if probes == 0 {
		t.Fatal("no level probed a mark: the draw does not reach mark and probe")
	}
}

// assertMarksClear fails unless every bitmap of e is all zero.
func assertMarksClear(t *testing.T, e *Enumerator) {
	t.Helper()
	for s, m := range append([]graph.Marks{e.used}, e.marks...) {
		for i, w := range m {
			if w != 0 {
				t.Fatalf("bitmap %d word %d is %#x after Run", s, i, w)
			}
		}
	}
}
