package localenum

import (
	"testing"

	"rads/internal/gen"
	"rads/internal/graph"
	"rads/internal/pattern"
)

// TestEnumeratorReuseMatchesSingleShot pins the Enumerator contract:
// one enumerator Run per start candidate must sum to exactly what the
// single-shot wrapper reports, stats included — the RADS machines rely
// on this when they reuse one enumerator per worker across all SM-E
// candidates.
func TestEnumeratorReuseMatchesSingleShot(t *testing.T) {
	g := gen.Community(6, 15, 0.3, 21)
	for _, q := range pattern.QuerySet() {
		want := Enumerate(g, q, Options{}, func([]graph.VertexID) bool { return true })
		e := New(g, q, Options{})
		var got Stats
		for v := 0; v < g.NumVertices(); v++ {
			st := e.Run(func([]graph.VertexID) bool { return true }, graph.VertexID(v))
			got.Embeddings += st.Embeddings
			got.TreeNodes += st.TreeNodes
			got.Kernels.Add(st.Kernels)
		}
		if got != want {
			t.Errorf("%s: per-candidate reuse %+v != single shot %+v", q.Name, got, want)
		}
	}
}

// TestEnumeratorResetAfterEarlyStop checks that an early-stopped run
// leaves no sticky state behind: the next Run starts clean.
func TestEnumeratorResetAfterEarlyStop(t *testing.T) {
	g := gen.Clique(6)
	e := New(g, pattern.Triangle(), Options{})
	n := 0
	e.Run(func([]graph.VertexID) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop delivered %d embeddings, want 1", n)
	}
	e.Reset()
	full := e.Run(func([]graph.VertexID) bool { return true })
	if want := Count(g, pattern.Triangle(), Options{}); full.Embeddings != want {
		t.Errorf("post-stop run found %d, want %d", full.Embeddings, want)
	}
}

// TestEnumeratorSteadyStateZeroAlloc is the allocation regression test
// of the tentpole: after warm-up, the extend loop — candidate
// generation by k-way intersection, bitset bookkeeping, callback
// delivery — must not allocate at all. The seed implementation
// allocated a fresh enumerator (including a map) per start candidate.
func TestEnumeratorSteadyStateZeroAlloc(t *testing.T) {
	g := gen.PowerLaw(2000, 8, 2.5, 300, 5)
	for _, q := range []*pattern.Pattern{pattern.Triangle(), pattern.ByName("q4")} {
		e := New(g, q, Options{})
		sink := int64(0)
		fn := func([]graph.VertexID) bool { sink++; return true }
		// Warm up: grow every per-level scratch buffer to its high-water
		// mark across all start candidates.
		e.Run(fn)
		allocs := testing.AllocsPerRun(3, func() {
			e.Run(fn)
		})
		if allocs != 0 {
			t.Errorf("%s: steady-state Run allocates %v/op, want 0", q.Name, allocs)
		}
		// The count-only path shares the warm scratch.
		if allocs := testing.AllocsPerRun(1, func() { e.Run(nil) }); allocs != 0 {
			t.Errorf("%s: steady-state count-only Run allocates %v/op, want 0", q.Name, allocs)
		}
		if sink == 0 {
			t.Fatalf("%s: no embeddings found; graph too sparse for the test", q.Name)
		}
	}
}

// TestEnumeratorPerCandidateZeroAlloc covers the RADS SM-E shape: many
// single-start Run calls against a warm enumerator.
func TestEnumeratorPerCandidateZeroAlloc(t *testing.T) {
	g := gen.PowerLaw(1000, 10, 2.5, 200, 9)
	e := New(g, pattern.Triangle(), Options{})
	fn := func([]graph.VertexID) bool { return true }
	e.Run(fn) // warm-up over all candidates
	allocs := testing.AllocsPerRun(50, func() {
		for v := graph.VertexID(0); v < 64; v++ {
			e.Run(fn, v)
		}
	})
	if allocs != 0 {
		t.Errorf("per-candidate Run allocates %v/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(50, func() {
		for v := graph.VertexID(0); v < 64; v++ {
			e.Run(nil, v)
		}
	})
	if allocs != 0 {
		t.Errorf("per-candidate count-only Run allocates %v/op, want 0", allocs)
	}
}
