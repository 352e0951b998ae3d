package pattern

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// relabel returns a copy of p with vertices renamed by a random
// permutation — isomorphic to p by construction.
func relabel(p *Pattern, rng *rand.Rand) *Pattern {
	n := p.N()
	perm := rng.Perm(n)
	var pairs []int
	for _, e := range p.Edges() {
		pairs = append(pairs, perm[e[0]], perm[e[1]])
	}
	return New(p.Name+"-relabeled", n, pairs...)
}

func TestCanonicalKeyInvariantUnderRelabeling(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var pats []*Pattern
	pats = append(pats, QuerySet()...)
	pats = append(pats, CliqueQuerySet()...)
	pats = append(pats, Triangle(), Path(5), Cycle(6), Star(7), CompleteBipartite(2, 3))
	for _, p := range pats {
		key := p.CanonicalKey()
		for trial := 0; trial < 5; trial++ {
			q := relabel(p, rng)
			if got := q.CanonicalKey(); got != key {
				t.Errorf("%s: relabeled key %q != original %q", p.Name, got, key)
			}
		}
	}
}

func TestCanonicalKeySeparatesNonIsomorphic(t *testing.T) {
	pats := []*Pattern{
		Path(4), Cycle(4), Star(3), CompleteGraph(4),
		Path(5), Cycle(5), CompleteBipartite(2, 3),
	}
	pats = append(pats, QuerySet()...)
	for i, p := range pats {
		for j, q := range pats {
			if i == j {
				continue
			}
			same := p.CanonicalKey() == q.CanonicalKey()
			iso := p.IsIsomorphicTo(q)
			if same != iso {
				t.Errorf("%s vs %s: key-equal=%v but isomorphic=%v", p.Name, q.Name, same, iso)
			}
		}
	}
}

func TestCanonicalKeyRandomAgainstIsomorphism(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	random := func(n, m int) *Pattern {
		for {
			var pairs []int
			seen := map[[2]int]bool{}
			for len(seen) < m {
				u, v := rng.Intn(n), rng.Intn(n)
				if u == v {
					continue
				}
				if u > v {
					u, v = v, u
				}
				if seen[[2]int{u, v}] {
					continue
				}
				seen[[2]int{u, v}] = true
				pairs = append(pairs, u, v)
			}
			p := New("rand", n, pairs...)
			if p.IsConnected() {
				return p
			}
		}
	}
	var pats []*Pattern
	for i := 0; i < 12; i++ {
		pats = append(pats, random(5, 6))
	}
	for i, p := range pats {
		for j, q := range pats {
			if i >= j {
				continue
			}
			same := p.CanonicalKey() == q.CanonicalKey()
			iso := p.IsIsomorphicTo(q)
			if same != iso {
				t.Errorf("pair (%d,%d): key-equal=%v but isomorphic=%v", i, j, same, iso)
			}
		}
	}
}

// TestCanonicalKeyFourVertexClasses enumerates all 11 isomorphism
// classes of graphs on 4 vertices and checks the keys are pairwise
// distinct while random relabelings of each class collapse to its key
// — the exactness contract the motif census histogram rests on.
func TestCanonicalKeyFourVertexClasses(t *testing.T) {
	classes := []*Pattern{
		New("empty4", 4),
		New("edge+2iso", 4, 0, 1),
		New("matching", 4, 0, 1, 2, 3),
		New("wedge+iso", 4, 0, 1, 1, 2),
		New("triangle+iso", 4, 0, 1, 1, 2, 2, 0),
		New("path4", 4, 0, 1, 1, 2, 2, 3),
		New("star4", 4, 0, 1, 0, 2, 0, 3),
		New("cycle4", 4, 0, 1, 1, 2, 2, 3, 3, 0),
		New("paw", 4, 0, 1, 1, 2, 2, 0, 2, 3),
		New("diamond", 4, 0, 1, 1, 2, 2, 0, 0, 3, 2, 3),
		New("clique4", 4, 0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3),
	}
	if len(classes) != 11 {
		t.Fatalf("expected the 11 four-vertex classes, listed %d", len(classes))
	}
	keys := make(map[string]string, len(classes))
	for _, p := range classes {
		key := p.CanonicalKey()
		if prev, dup := keys[key]; dup {
			t.Errorf("%s and %s collide on key %q", prev, p.Name, key)
		}
		keys[key] = p.Name
	}
	if len(keys) != 11 {
		t.Fatalf("%d distinct keys for 11 classes", len(keys))
	}
	rng := rand.New(rand.NewSource(7))
	for _, p := range classes {
		want := p.CanonicalKey()
		for trial := 0; trial < 8; trial++ {
			if got := relabel(p, rng).CanonicalKey(); got != want {
				t.Errorf("%s: relabeling changed key %q -> %q", p.Name, want, got)
			}
		}
	}
}

func TestCanonicalKeyHeavySymmetry(t *testing.T) {
	// Twin elimination must keep stars and cliques from exploding.
	for _, p := range []*Pattern{Star(40), CompleteGraph(9), CompleteBipartite(5, 5)} {
		if p.CanonicalKey() == "" {
			t.Errorf("%s: empty key", p.Name)
		}
	}
}

// canonicalKeyRef is CanonicalKey as first written, on adjacency lists
// and HasEdge: the reference its matrix-based search must agree with.
func canonicalKeyRef(p *Pattern) string {
	n := p.n
	if n == 0 {
		return "0:"
	}
	var best []byte
	cur := make([]byte, 0, n*(n-1)/2)
	perm := make([]VertexID, 0, n)
	used := make([]bool, n)
	var rec func()
	rec = func() {
		i := len(perm)
		if i == n {
			if best == nil || bytes.Compare(cur, best) > 0 {
				best = append(best[:0], cur...)
			}
			return
		}
		tried := make([]VertexID, 0, n-i)
		for v := 0; v < n; v++ {
			if used[v] {
				continue
			}
			// Twin elimination: if an already-tried candidate u is
			// interchangeable with v (same neighbourhood modulo each
			// other), the subtree under v repeats the one under u.
			twin := false
			for _, u := range tried {
				if isTwinRef(p, u, VertexID(v)) {
					twin = true
					break
				}
			}
			if twin {
				continue
			}
			tried = append(tried, VertexID(v))
			mark := len(cur)
			for j := 0; j < i; j++ {
				if p.HasEdge(VertexID(v), perm[j]) {
					cur = append(cur, '1')
				} else {
					cur = append(cur, '0')
				}
			}
			// Prefix pruning: a branch whose partial string already
			// falls below the incumbent cannot recover (lexicographic
			// order on equal-length strings is prefix-monotone).
			if best == nil || bytes.Compare(cur, best[:len(cur)]) >= 0 {
				perm = append(perm, VertexID(v))
				used[v] = true
				rec()
				perm = perm[:len(perm)-1]
				used[v] = false
			}
			cur = cur[:mark]
		}
	}
	rec()
	return fmt.Sprintf("%d:%s", n, best)
}

func isTwinRef(p *Pattern, u, v VertexID) bool {
	if len(p.adj[u]) != len(p.adj[v]) {
		return false
	}
	for _, w := range p.adj[u] {
		if w != v && !p.HasEdge(v, w) {
			return false
		}
	}
	for _, w := range p.adj[v] {
		if w != u && !p.HasEdge(u, w) {
			return false
		}
	}
	return true
}

// TestCanonicalKeyMatchesReference: every graph on up to 6 vertices
// (each labelling), and random larger ones, get the reference's key.
func TestCanonicalKeyMatchesReference(t *testing.T) {
	for n := 1; n <= 6; n++ {
		for mask := 0; mask < 1<<(n*(n-1)/2); mask++ {
			var pairs []int
			bit := 0
			for j := 1; j < n; j++ {
				for i := 0; i < j; i++ {
					if mask&(1<<bit) != 0 {
						pairs = append(pairs, i, j)
					}
					bit++
				}
			}
			p := New("g", n, pairs...)
			if got, want := p.CanonicalKey(), canonicalKeyRef(p); got != want {
				t.Fatalf("n=%d mask %#x: key %s, reference %s", n, mask, got, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		n := 7 + rng.Intn(5)
		var pairs []int
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(3) == 0 {
					pairs = append(pairs, i, j)
				}
			}
		}
		p := New("g", n, pairs...)
		if got, want := p.CanonicalKey(), canonicalKeyRef(p); got != want {
			t.Fatalf("trial %d: key %s, reference %s", trial, got, want)
		}
	}
	for _, p := range []*Pattern{Star(12), CompleteGraph(8), CompleteBipartite(4, 4), RunningExample()} {
		if got, want := p.CanonicalKey(), canonicalKeyRef(p); got != want {
			t.Errorf("%s: key %s, reference %s", p.Name, got, want)
		}
	}
}
