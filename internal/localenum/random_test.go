package localenum

import (
	"math/rand"
	"slices"
	"testing"

	"rads/internal/gen"
	"rads/internal/graph"
	"rads/internal/pattern"
)

// randomConnectedPattern mirrors the planner fuzzer: random tree plus
// random extra edges, 3..7 vertices.
func randomConnectedPattern(rng *rand.Rand) *pattern.Pattern {
	n := 3 + rng.Intn(5)
	var pairs []int
	for v := 1; v < n; v++ {
		pairs = append(pairs, v, rng.Intn(v))
	}
	for i := 0; i < rng.Intn(n); i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			pairs = append(pairs, u, v)
		}
	}
	return pattern.New("rnd", n, pairs...)
}

// TestRandomPatternsMatchBruteForce fuzzes the enumerator against the
// O(n^k) brute force over random patterns AND random graphs, with the
// symmetry-breaking constraints applied on both sides.
func TestRandomPatternsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for i := 0; i < 60; i++ {
		p := randomConnectedPattern(rng)
		g := gen.ErdosRenyi(8+rng.Intn(10), 0.2+0.4*rng.Float64(), rng.Int63())
		cons := p.SymmetryBreaking()
		want := BruteForce(g, p, cons)
		got := Count(g, p, Options{})
		if got != want {
			t.Fatalf("case %d (%s on n=%d m=%d): Count=%d brute=%d",
				i, p, g.NumVertices(), g.NumEdges(), got, want)
		}
	}
}

// TestSymmetryIdentityOnRandomPatterns: for any pattern,
// count_with_constraints * |Aut(P)| == count_without_constraints.
func TestSymmetryIdentityOnRandomPatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(4321))
	for i := 0; i < 40; i++ {
		p := randomConnectedPattern(rng)
		g := gen.ErdosRenyi(10, 0.35, rng.Int63())
		withCons := BruteForce(g, p, p.SymmetryBreaking())
		without := BruteForce(g, p, []pattern.OrderConstraint{})
		aut := int64(p.AutomorphismCount())
		if withCons*aut != without {
			t.Fatalf("case %d (%s): %d * |Aut|=%d != %d", i, p, withCons, aut, without)
		}
	}
}

// TestEnumerateIsomorphismInvariance: relabeling the data graph never
// changes the count.
func TestEnumerateIsomorphismInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for i := 0; i < 25; i++ {
		p := randomConnectedPattern(rng)
		g := gen.ErdosRenyi(12, 0.3, rng.Int63())
		n := g.NumVertices()
		perm := make([]graph.VertexID, n)
		for j := range perm {
			perm[j] = graph.VertexID(j)
		}
		rng.Shuffle(n, func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		h := g.Relabel(perm)
		if a, b := Count(g, p, Options{}), Count(h, p, Options{}); a != b {
			t.Fatalf("case %d (%s): count changed under relabel: %d vs %d", i, p, a, b)
		}
	}
}

// TestAllowedPartitionsSumToTotal: restricting the start candidate set
// to each block of a partition of V and summing reproduces the total —
// the property the SM-E / distributed split relies on.
func TestAllowedPartitionsSumToTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g := gen.Community(3, 10, 0.4, 5)
	p := pattern.ByName("q2")
	total := Count(g, p, Options{})

	// Random 3-way split of the vertices; start candidates restricted
	// per block must sum to the total (each embedding is found exactly
	// once, from its start vertex's block).
	blocks := make([][]graph.VertexID, 3)
	for v := 0; v < g.NumVertices(); v++ {
		b := rng.Intn(3)
		blocks[b] = append(blocks[b], graph.VertexID(v))
	}
	var sum int64
	for _, blk := range blocks {
		sum += Count(g, p, Options{StartCandidates: blk})
	}
	if sum != total {
		t.Fatalf("block counts sum to %d, total %d", sum, total)
	}
}

// TestCountOnlyMatchesCallbackMode: a Run without a callback must
// report exactly the Stats of a Run whose callback always continues —
// embeddings and tree nodes — on every catalogue pattern, with and
// without an Allowed filter, over all starts, a start subset, and one
// start at a time (the SM-E shape).
func TestCountOnlyMatchesCallbackMode(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	all := func([]graph.VertexID) bool { return true }
	patterns := append(pattern.QuerySet(), pattern.CliqueQuerySet()...)
	patterns = append(patterns, pattern.Triangle(), pattern.Path(2), pattern.Star(3))
	for i := 0; i < 6; i++ {
		g := gen.ErdosRenyi(14+rng.Intn(12), 0.2+0.2*rng.Float64(), rng.Int63())
		if i%2 == 1 {
			g = gen.PowerLaw(40+rng.Intn(20), 4, 2.4, 20, rng.Int63())
		}
		var subset []graph.VertexID
		for v := 0; v < g.NumVertices(); v++ {
			if rng.Intn(3) == 0 {
				subset = append(subset, graph.VertexID(v))
			}
		}
		for _, p := range patterns {
			for _, opts := range []Options{
				{},
				{Allowed: func(v graph.VertexID) bool { return v%3 != 0 }},
				{StartCandidates: subset},
				{Order: GreedyOrderFrom(p, pattern.VertexID(rng.Intn(p.N()))), Allowed: func(v graph.VertexID) bool { return v%4 != 1 }},
			} {
				e := New(g, p, opts)
				if want, got := e.Run(all), e.Run(nil); got != want {
					t.Fatalf("graph %d, %s, %+v: count-only %+v, callback %+v", i, p.Name, opts, got, want)
				}
				for v := 0; v < g.NumVertices(); v++ {
					if want, got := e.Run(all, graph.VertexID(v)), e.Run(nil, graph.VertexID(v)); got != want {
						t.Fatalf("graph %d, %s, start %d: count-only %+v, callback %+v", i, p.Name, v, got, want)
					}
				}
			}
		}
	}
}

// TestGreedyOrderFrom: the order is a permutation that starts at the
// requested vertex and keeps every later vertex adjacent to an earlier
// one, from every start of catalogue and random patterns; GreedyOrder
// is the same rule rooted at the highest-degree vertex.
func TestGreedyOrderFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	patterns := append(pattern.QuerySet(), pattern.CliqueQuerySet()...)
	for i := 0; i < 40; i++ {
		patterns = append(patterns, randomConnectedPattern(rng))
	}
	for _, p := range patterns {
		for s := 0; s < p.N(); s++ {
			order := GreedyOrderFrom(p, pattern.VertexID(s))
			if len(order) != p.N() || order[0] != pattern.VertexID(s) {
				t.Fatalf("%s from %d: order %v", p, s, order)
			}
			placed := make(map[pattern.VertexID]bool)
			for j, u := range order {
				if placed[u] {
					t.Fatalf("%s from %d: %d placed twice in %v", p, s, u, order)
				}
				connected := j == 0
				for _, w := range p.Adj(u) {
					connected = connected || placed[w]
				}
				if !connected {
					t.Fatalf("%s from %d: %d at position %d has no earlier neighbour in %v", p, s, u, j, order)
				}
				placed[u] = true
			}
		}
		def := GreedyOrder(p)
		for u := 0; u < p.N(); u++ {
			if p.Degree(pattern.VertexID(u)) > p.Degree(def[0]) {
				t.Fatalf("%s: GreedyOrder starts at %d, but %d has higher degree", p, def[0], u)
			}
		}
		if from := GreedyOrderFrom(p, def[0]); !slices.Equal(def, from) {
			t.Fatalf("%s: GreedyOrder %v != GreedyOrderFrom(%d) %v", p, def, def[0], from)
		}
	}
}
