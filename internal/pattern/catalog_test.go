package pattern

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestPath(t *testing.T) {
	p := Path(5)
	if p.N() != 5 || p.NumEdges() != 4 {
		t.Fatalf("path5: n=%d m=%d", p.N(), p.NumEdges())
	}
	if p.Diameter() != 4 {
		t.Errorf("path5 diameter = %d, want 4", p.Diameter())
	}
	if len(p.EndVertices()) != 2 {
		t.Errorf("path5 end vertices = %v, want 2 of them", p.EndVertices())
	}
	if !p.IsConnected() {
		t.Error("path5 not connected")
	}
}

func TestCycle(t *testing.T) {
	c := Cycle(6)
	if c.N() != 6 || c.NumEdges() != 6 {
		t.Fatalf("cycle6: n=%d m=%d", c.N(), c.NumEdges())
	}
	for i := 0; i < 6; i++ {
		if c.Degree(VertexID(i)) != 2 {
			t.Errorf("cycle6 degree(u%d) = %d, want 2", i, c.Degree(VertexID(i)))
		}
	}
	if c.Diameter() != 3 {
		t.Errorf("cycle6 diameter = %d, want 3", c.Diameter())
	}
	// C_n has automorphism group of order 2n (dihedral).
	if got := c.AutomorphismCount(); got != 12 {
		t.Errorf("cycle6 |Aut| = %d, want 12", got)
	}
}

func TestStar(t *testing.T) {
	s := Star(4)
	if s.N() != 5 || s.NumEdges() != 4 {
		t.Fatalf("star4: n=%d m=%d", s.N(), s.NumEdges())
	}
	if s.Degree(0) != 4 {
		t.Errorf("star hub degree = %d, want 4", s.Degree(0))
	}
	if s.Span(0) != 1 {
		t.Errorf("star hub span = %d, want 1", s.Span(0))
	}
	// Leaves are interchangeable: |Aut| = 4! = 24.
	if got := s.AutomorphismCount(); got != 24 {
		t.Errorf("star4 |Aut| = %d, want 24", got)
	}
}

func TestCompleteGraph(t *testing.T) {
	k := CompleteGraph(5)
	if k.N() != 5 || k.NumEdges() != 10 {
		t.Fatalf("K5: n=%d m=%d", k.N(), k.NumEdges())
	}
	if k.MaxCliqueSize() != 5 {
		t.Errorf("K5 max clique = %d, want 5", k.MaxCliqueSize())
	}
	if got := k.AutomorphismCount(); got != 120 {
		t.Errorf("K5 |Aut| = %d, want 120", got)
	}
	if k.Diameter() != 1 {
		t.Errorf("K5 diameter = %d, want 1", k.Diameter())
	}
}

func TestCompleteBipartite(t *testing.T) {
	k := CompleteBipartite(2, 3)
	if k.N() != 5 || k.NumEdges() != 6 {
		t.Fatalf("K23: n=%d m=%d", k.N(), k.NumEdges())
	}
	if k.MaxCliqueSize() != 2 {
		t.Errorf("K23 max clique = %d, want 2 (triangle-free)", k.MaxCliqueSize())
	}
	// |Aut(K_{2,3})| = 2! * 3! = 12.
	if got := k.AutomorphismCount(); got != 12 {
		t.Errorf("K23 |Aut| = %d, want 12", got)
	}
	// K_{a,a} doubles by side swap.
	if got := CompleteBipartite(2, 2).AutomorphismCount(); got != 8 {
		t.Errorf("K22 |Aut| = %d, want 8", got)
	}
}

func TestCatalogPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"path1":  func() { Path(1) },
		"cycle2": func() { Cycle(2) },
		"star0":  func() { Star(0) },
		"k1":     func() { CompleteGraph(1) },
		"k0_1":   func() { CompleteBipartite(0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// codecPatterns is the catalogue sample the text-codec tests share.
func codecPatterns() []*Pattern {
	pats := []*Pattern{
		Triangle(), Path(4), Cycle(5), Star(3), CompleteGraph(4),
		CompleteBipartite(2, 2), RunningExample(),
	}
	pats = append(pats, QuerySet()...)
	return append(pats, CliqueQuerySet()...)
}

func TestParseFormatRoundTrip(t *testing.T) {
	for _, p := range codecPatterns() {
		s := Format(p)
		q, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(Format(%s)) = %v", p.Name, err)
		}
		if q.Name != p.Name || q.N() != p.N() || q.NumEdges() != p.NumEdges() {
			t.Fatalf("%s round trip changed shape: %s vs %s", p.Name, p, q)
		}
		for _, e := range p.Edges() {
			if !q.HasEdge(e[0], e[1]) {
				t.Fatalf("%s round trip lost edge %v", p.Name, e)
			}
		}
	}
}

// badPatternTexts are inputs Parse must reject; FuzzParse seeds from
// them too.
var badPatternTexts = []string{
	"",          // no colons
	"name:3",    // missing edges field
	":3:0-1",    // empty name
	"p:x:0-1",   // bad count
	"p:0:",      // n < 1
	"p:300:0-1", // n > 127 (VertexID is int8)
	"p:3:0",     // bad edge token
	"p:3:0-1-2", // we split on first dash only: "1-2" not a number
	"p:3:0-3",   // endpoint out of range
	"p:3:1-1",   // self loop
	"p:3:a-b",   // non-numeric
}

func TestParseErrors(t *testing.T) {
	for _, s := range badPatternTexts {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

// FuzzParse drives the text codec with arbitrary client input, as
// radserve's query path does: Parse never panics, and whatever it
// accepts Format writes back in a form that re-parses to the same text.
func FuzzParse(f *testing.F) {
	for _, p := range codecPatterns() {
		f.Add(Format(p))
	}
	for _, s := range append(badPatternTexts,
		" tri : 3 : 0-1 , 1-2 , 0-2 ", "p:127:0-126,126-0", "p:1:") {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := Parse(s)
		if err != nil {
			return
		}
		text := Format(p)
		q, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q) ok, but its Format %q does not re-parse: %v", s, text, err)
		}
		if again := Format(q); again != text {
			t.Fatalf("Parse(%q): Format %q re-parses to %q", s, text, again)
		}
	})
}

func TestParseToleratesWhitespace(t *testing.T) {
	p, err := Parse(" tri : 3 : 0-1 , 1-2 , 0-2 ")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "tri" || p.NumEdges() != 3 {
		t.Fatalf("got %s", p)
	}
}

func TestParseEdgeless(t *testing.T) {
	p, err := Parse("dot:1:")
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 1 || p.NumEdges() != 0 {
		t.Fatalf("got %s", p)
	}
}

func TestIsIsomorphicToBasics(t *testing.T) {
	if !Triangle().IsIsomorphicTo(Cycle(3)) {
		t.Error("triangle should be isomorphic to C3")
	}
	if Path(4).IsIsomorphicTo(Star(3)) {
		t.Error("P4 and S3 have the same size but are not isomorphic")
	}
	if Path(3).IsIsomorphicTo(Path(4)) {
		t.Error("different orders cannot be isomorphic")
	}
	if !CompleteBipartite(2, 3).IsIsomorphicTo(CompleteBipartite(3, 2)) {
		t.Error("K_{2,3} should be isomorphic to K_{3,2}")
	}
	// Same degree sequence (all 2s), non-isomorphic: C6 vs two
	// disjoint triangles. IsIsomorphicTo does not assume connectivity.
	twoTriangles := New("2k3", 6, 0, 1, 1, 2, 0, 2, 3, 4, 4, 5, 3, 5)
	if Cycle(6).IsIsomorphicTo(twoTriangles) {
		t.Error("C6 and 2xK3 have equal degree sequences but differ")
	}
}

func TestIsIsomorphicUnderRelabel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pats := append(QuerySet(), CliqueQuerySet()...)
	for _, p := range pats {
		n := p.N()
		perm := make([]VertexID, n)
		for i := range perm {
			perm[i] = VertexID(i)
		}
		rng.Shuffle(n, func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		var pairs []int
		for _, e := range p.Edges() {
			pairs = append(pairs, int(perm[e[0]]), int(perm[e[1]]))
		}
		q := New(p.Name+"-perm", n, pairs...)
		if !p.IsIsomorphicTo(q) {
			t.Errorf("%s not isomorphic to its own relabeling", p.Name)
		}
		if !q.IsIsomorphicTo(p) {
			t.Errorf("%s relabeling not isomorphic back", p.Name)
		}
	}
}

func TestQueriesAreDistinct(t *testing.T) {
	qs := QuerySet()
	for i := range qs {
		for j := i + 1; j < len(qs); j++ {
			if qs[i].IsIsomorphicTo(qs[j]) {
				t.Errorf("query %s is isomorphic to %s", qs[i].Name, qs[j].Name)
			}
		}
	}
}

// TestQuickFormatParse round-trips random patterns through the codec.
func TestQuickFormatParse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(7)
		var pairs []int
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(2) == 0 {
					pairs = append(pairs, i, j)
				}
			}
		}
		p := New("rnd", n, pairs...)
		q, err := Parse(Format(p))
		if err != nil {
			return false
		}
		if q.N() != p.N() || q.NumEdges() != p.NumEdges() {
			return false
		}
		for _, e := range p.Edges() {
			if !q.HasEdge(e[0], e[1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDegrees(t *testing.T) {
	d := Star(3).Degrees()
	want := []int{3, 1, 1, 1}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("Degrees() = %v, want %v", d, want)
		}
	}
}

func TestFormatDeterministic(t *testing.T) {
	a := Format(RunningExample())
	b := Format(RunningExample())
	if a != b {
		t.Errorf("Format not deterministic: %q vs %q", a, b)
	}
	if !strings.HasPrefix(a, RunningExample().Name+":") {
		t.Errorf("Format missing name prefix: %q", a)
	}
}
