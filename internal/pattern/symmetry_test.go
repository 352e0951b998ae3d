package pattern

import (
	"testing"
)

func TestAutomorphismCounts(t *testing.T) {
	cases := []struct {
		p    *Pattern
		want int
	}{
		{Triangle(), 6},                                  // S3
		{New("edge", 2, 0, 1), 2},                        // swap
		{New("path3", 3, 0, 1, 1, 2), 2},                 // reflect
		{ByName("q1"), 8},                                // C4: dihedral D4
		{ByName("cq1"), 24},                              // K4: S4
		{ByName("cq4"), 120},                             // K5: S5
		{ByName("q8"), 48},                               // cube: 48
		{ByName("q7"), 72},                               // K3,3: 3!*3!*2
		{New("star3", 4, 0, 1, 0, 2, 0, 3), 6},           // leaves permute
		{New("tailedtri", 4, 0, 1, 1, 2, 2, 3, 1, 3), 2}, // tail at 1: swap 2<->3
	}
	for _, c := range cases {
		if got := c.p.AutomorphismCount(); got != c.want {
			t.Errorf("%s: |Aut| = %d, want %d", c.p.Name, got, c.want)
		}
	}
}

func TestAutomorphismsArePermutations(t *testing.T) {
	for _, q := range append(QuerySet(), CliqueQuerySet()...) {
		for _, a := range q.Automorphisms() {
			seen := make([]bool, q.N())
			for _, v := range a {
				if seen[v] {
					t.Fatalf("%s: %v not a permutation", q.Name, a)
				}
				seen[v] = true
			}
			// Edge preservation.
			for _, e := range q.Edges() {
				if !q.HasEdge(a[e[0]], a[e[1]]) {
					t.Fatalf("%s: %v does not preserve edge %v", q.Name, a, e)
				}
			}
		}
	}
}

func TestSymmetryBreakingTriangle(t *testing.T) {
	cons := Triangle().SymmetryBreaking()
	// Triangle: |Aut| = 6, constraints must force a strict total order
	// on all three vertices: u0 < u1, u0 < u2, then u1 < u2.
	if len(cons) != 3 {
		t.Fatalf("constraints = %v, want 3 of them", cons)
	}
}

func TestSymmetryBreakingIdentityOnAsymmetric(t *testing.T) {
	// A pattern with trivial automorphism group needs no constraints.
	p := New("asym5", 5, 0, 1, 1, 2, 2, 3, 1, 3, 3, 4)
	if p.AutomorphismCount() != 1 {
		t.Skip("pattern unexpectedly symmetric")
	}
	if cons := p.SymmetryBreaking(); len(cons) != 0 {
		t.Errorf("constraints = %v, want none", cons)
	}
}

// The central correctness property (checked again end-to-end in the
// enumeration packages): counting embeddings with the constraints and
// multiplying by |Aut| equals counting with no constraints. Here we
// verify the pure group-theoretic part: the constraints kill every
// non-identity automorphism, i.e. for each non-identity automorphism a
// there exists a constraint (x < y) with a(x) > a(y) for SOME total
// order... that form is data-dependent, so instead we check the
// standard sufficient condition: applying any non-identity automorphism
// to the reference embedding violates at least one constraint. The
// reference embedding is the mirrored identity m(u) = n-1-u, since each
// orbit's pick takes the largest ID.
func TestSymmetryBreakingKillsAutomorphisms(t *testing.T) {
	for _, q := range append(append(QuerySet(), CliqueQuerySet()...), RunningExample(), Triangle()) {
		cons := q.SymmetryBreaking()
		m := mirror(q.N())
		for _, a := range q.Automorphisms() {
			if isIdentity(a) {
				continue
			}
			// The "embedding" f(u) = m(a(u)) (mapping onto the pattern
			// itself) must violate a constraint, otherwise the same
			// subgraph image would be reported twice.
			violated := false
			for _, c := range cons {
				if m[a[c.Less]] > m[a[c.Greater]] {
					violated = true
					break
				}
			}
			if !violated {
				t.Errorf("%s: automorphism %v survives constraints %v", q.Name, a, cons)
			}
		}
	}
}

// And the reference embedding must always survive.
func TestSymmetryBreakingKeepsIdentity(t *testing.T) {
	for _, q := range append(QuerySet(), CliqueQuerySet()...) {
		m := mirror(q.N())
		for _, c := range q.SymmetryBreaking() {
			if m[c.Less] >= m[c.Greater] {
				// Constraint on the mirrored identity f(u) = n-1-u: it
				// satisfies Less < Greater only if Less > Greater as
				// vertex IDs. Grochow-Kellis picks the orbit minimum and
				// puts it above its orbit, guaranteeing this.
				t.Errorf("%s: constraint %v not satisfied by the mirrored identity", q.Name, c)
			}
		}
	}
}

// mirror returns the permutation u -> n-1-u.
func mirror(n int) []VertexID {
	m := make([]VertexID, n)
	for u := range m {
		m[u] = VertexID(n - 1 - u)
	}
	return m
}

func isIdentity(a []VertexID) bool {
	for i, v := range a {
		if int(v) != i {
			return false
		}
	}
	return true
}
