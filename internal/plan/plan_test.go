package plan

import (
	"math/rand"
	"testing"

	"rads/internal/pattern"
)

func TestMinimumRoundsKnownValues(t *testing.T) {
	cases := []struct {
		name string
		want int // connected domination number c_P
	}{
		{"triangle", 1},
		{"q1", 2}, // C4
		{"q2", 1}, // tailed triangle: {u0} dominates
		{"q3", 3}, // C5
		{"q4", 2}, // house: {u1,u2}
		{"q5", 3}, // house + end vertex
		{"q6", 2}, // chorded C6: {u0,u1}
		{"q7", 2}, // K3,3: one vertex per side
		{"q8", 4}, // cube
		{"cq1", 1},
		{"cq2", 1},
		{"cq3", 1}, // bowtie centre
		{"cq4", 1},
		{"fig2", 3}, // Example 4's MLST yields 3 units
	}
	for _, c := range cases {
		p := pattern.ByName(c.name)
		got, err := MinimumRounds(p)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("%s: MinimumRounds = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestComputeProducesValidPlans(t *testing.T) {
	all := append(pattern.QuerySet(), pattern.CliqueQuerySet()...)
	all = append(all, pattern.RunningExample(), pattern.Triangle())
	for _, p := range all {
		pl, err := Compute(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		checkPlanInvariants(t, pl)
		minR, _ := MinimumRounds(p)
		if pl.NumRounds() != minR {
			t.Errorf("%s: Compute used %d rounds, minimum is %d", p.Name, pl.NumRounds(), minR)
		}
	}
}

func TestComputePrefersSmallSpanPivot(t *testing.T) {
	// On a 5-path the centre has span 2, ends span 4: any MLST pivots
	// include the centre; Compute must not start from a span-4 end.
	p := pattern.New("path5", 5, 0, 1, 1, 2, 2, 3, 3, 4)
	pl, err := Compute(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Span(pl.Units[0].Piv); got > 2 {
		t.Errorf("dp0.piv = u%d with span %d, want a small-span pivot", pl.Units[0].Piv, got)
	}
}

func TestScoreVerificationMatchesExample5(t *testing.T) {
	// Reconstruct PL1 of Example 4 on the Figure 2 pattern.
	p := pattern.RunningExample()
	pl1, err := Build(p, []Unit{
		{Piv: 0, LF: []pattern.VertexID{1, 2, 7, 8, 9}},
		{Piv: 1, LF: []pattern.VertexID{3, 4}},
		{Piv: 2, LF: []pattern.VertexID{5, 6}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Paper: verification edges per round = 2, 1, 2; SC ~= 3.2.
	if got := pl1.VerificationEdges(0); got != 2 {
		t.Errorf("round 0 verification edges = %d, want 2", got)
	}
	if got := pl1.VerificationEdges(1); got != 1 {
		t.Errorf("round 1 verification edges = %d, want 1", got)
	}
	if got := pl1.VerificationEdges(2); got != 2 {
		t.Errorf("round 2 verification edges = %d, want 2", got)
	}
	want := 2.0/1 + 1.0/2 + 2.0/3
	if got := pl1.ScoreVerification(); got < want-1e-9 || got > want+1e-9 {
		t.Errorf("ScoreVerification = %v, want %v", got, want)
	}

	// PL2 of Example 4: rooted at u1. Paper: rounds have 1, 2, 2.
	pl2, err := Build(p, []Unit{
		{Piv: 1, LF: []pattern.VertexID{0, 3, 4}},
		{Piv: 0, LF: []pattern.VertexID{2, 7, 8, 9}},
		{Piv: 2, LF: []pattern.VertexID{5, 6}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := pl2.ScoreVerification(), 1.0/1+2.0/2+2.0/3; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("ScoreVerification(PL2) = %v, want %v", got, want)
	}
	if pl1.ScoreVerification() <= pl2.ScoreVerification() {
		t.Error("paper prefers PL1 over PL2")
	}
}

func TestBuildRejectsInvalidPlans(t *testing.T) {
	p := pattern.Triangle()
	cases := []struct {
		name  string
		units []Unit
	}{
		{"empty", nil},
		{"empty leaf set", []Unit{{Piv: 0, LF: nil}}},
		{"pivot not matched", []Unit{
			{Piv: 0, LF: []pattern.VertexID{1}},
			{Piv: 2, LF: []pattern.VertexID{1}},
		}},
		{"leaf repeated", []Unit{
			{Piv: 0, LF: []pattern.VertexID{1, 2}},
			{Piv: 1, LF: []pattern.VertexID{2}},
		}},
		{"incomplete cover", []Unit{{Piv: 0, LF: []pattern.VertexID{1}}}},
	}
	for _, c := range cases {
		if _, err := Build(p, c.units); err == nil {
			t.Errorf("%s: Build accepted an invalid plan", c.name)
		}
	}
	// Non-edge star edge.
	p4 := pattern.New("path3", 3, 0, 1, 1, 2)
	if _, err := Build(p4, []Unit{{Piv: 0, LF: []pattern.VertexID{2, 1}}}); err == nil {
		t.Error("Build accepted a star edge that is not a pattern edge")
	}
}

func TestMatchingOrderDefinition(t *testing.T) {
	p := pattern.RunningExample()
	pl, err := Build(p, []Unit{
		{Piv: 0, LF: []pattern.VertexID{1, 2, 7, 8, 9}},
		{Piv: 1, LF: []pattern.VertexID{3, 4}},
		{Piv: 2, LF: []pattern.VertexID{5, 6}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Definition 10 with descending-degree leaf order: u0 first; then
	// dp0's leaves with later-unit pivots (u1, u2) first, then u8, u9
	// (degree 2) before u7 (degree 1); then dp1's leaves u4 (degree 3)
	// before u3 (degree 2); then dp2's leaves.
	want := []pattern.VertexID{0, 1, 2, 8, 9, 7, 4, 3, 5, 6}
	for i, u := range want {
		if pl.Order[i] != u {
			t.Fatalf("Order = %v, want %v", pl.Order, want)
		}
	}
	// Pos must invert Order.
	for i, u := range pl.Order {
		if pl.Pos[u] != i {
			t.Errorf("Pos[%d] = %d, want %d", u, pl.Pos[u], i)
		}
	}
	// P_i vertices must form a prefix of Order.
	if pl.PrefixLen[0] != 6 || pl.PrefixLen[1] != 8 || pl.PrefixLen[2] != 10 {
		t.Errorf("PrefixLen = %v", pl.PrefixLen)
	}
}

func TestCrossAndSiblingEdgesRunningExample(t *testing.T) {
	// Example 3 continuation in the paper: for dp0, Esib = {(u1,u2)};
	// for dp2, Esib = {(u5,u6)} and Ecro = {(u4,u5)}.
	p := pattern.RunningExample()
	pl, err := Build(p, []Unit{
		{Piv: 0, LF: []pattern.VertexID{1, 2, 7}},
		{Piv: 1, LF: []pattern.VertexID{3, 4}},
		{Piv: 2, LF: []pattern.VertexID{5, 6}},
		{Piv: 0, LF: []pattern.VertexID{8, 9}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Sib[0]) != 1 || pl.Sib[0][0] != [2]pattern.VertexID{1, 2} {
		t.Errorf("Sib[0] = %v, want [(u1,u2)]", pl.Sib[0])
	}
	if len(pl.Cross[0]) != 0 {
		t.Errorf("Cross[0] = %v, want empty", pl.Cross[0])
	}
	if len(pl.Sib[2]) != 1 || pl.Sib[2][0] != [2]pattern.VertexID{5, 6} {
		t.Errorf("Sib[2] = %v, want [(u5,u6)]", pl.Sib[2])
	}
	if len(pl.Cross[2]) != 1 || pl.Cross[2][0] != [2]pattern.VertexID{4, 5} {
		t.Errorf("Cross[2] = %v, want [(u4,u5)]", pl.Cross[2])
	}
}

func TestExpansionEdgesFormSpanningTree(t *testing.T) {
	// Paper: "the expansion edges of all the units form a spanning tree
	// of P". Holds for every computed plan.
	for _, p := range append(pattern.QuerySet(), pattern.CliqueQuerySet()...) {
		pl, err := Compute(p)
		if err != nil {
			t.Fatal(err)
		}
		var tree [][2]pattern.VertexID
		for i := range pl.Units {
			tree = append(tree, pl.Star[i]...)
		}
		if len(tree) != p.N()-1 || !isSpanningTree(p.N(), tree) {
			t.Errorf("%s: expansion edges do not form a spanning tree: %v", p.Name, tree)
		}
	}
}

func TestRandomStarIsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, p := range append(pattern.QuerySet(), pattern.CliqueQuerySet()...) {
		for trial := 0; trial < 10; trial++ {
			pl, err := RandomStar(p, rng)
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			checkPlanInvariants(t, pl)
		}
	}
}

func TestRandomStarUsuallyWorseRounds(t *testing.T) {
	// RanS has no round-count optimisation: across trials on the cube it
	// must sometimes exceed the minimum.
	p := pattern.ByName("q8")
	minR, _ := MinimumRounds(p)
	rng := rand.New(rand.NewSource(3))
	exceeded := false
	for trial := 0; trial < 30; trial++ {
		pl, err := RandomStar(p, rng)
		if err != nil {
			t.Fatal(err)
		}
		if pl.NumRounds() > minR {
			exceeded = true
		}
	}
	if !exceeded {
		t.Error("RandomStar never exceeded the minimum round count in 30 trials")
	}
}

func TestRandomMinRoundHasMinimumRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, p := range pattern.QuerySet() {
		minR, _ := MinimumRounds(p)
		for trial := 0; trial < 5; trial++ {
			pl, err := RandomMinRound(p, rng)
			if err != nil {
				t.Fatal(err)
			}
			if pl.NumRounds() != minR {
				t.Errorf("%s: RanM rounds = %d, want %d", p.Name, pl.NumRounds(), minR)
			}
			checkPlanInvariants(t, pl)
		}
	}

	// On the paper's running example the optimized plan is a
	// minimum-round plan that no random draw outscores: three RanS then
	// three RanM draws from seed 1.
	p := pattern.RunningExample()
	minR, err := MinimumRounds(p)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Compute(p)
	if err != nil {
		t.Fatal(err)
	}
	if opt.NumRounds() != minR {
		t.Errorf("%s: optimized plan has %d rounds, want %d", p.Name, opt.NumRounds(), minR)
	}
	rng = rand.New(rand.NewSource(1))
	for i, draw := range []func(*pattern.Pattern, *rand.Rand) (*Plan, error){
		RandomStar, RandomStar, RandomStar, RandomMinRound, RandomMinRound, RandomMinRound,
	} {
		pl, err := draw(p, rng)
		if err != nil {
			t.Fatal(err)
		}
		if pl.Score() > opt.Score() {
			t.Errorf("%s: draw %d (%d rounds) scores %.3f, above the optimized plan's %.3f",
				p.Name, i, pl.NumRounds(), pl.Score(), opt.Score())
		}
	}
}

func TestSingleEdgePattern(t *testing.T) {
	p := pattern.New("edge", 2, 0, 1)
	pl, err := Compute(p)
	if err != nil {
		t.Fatal(err)
	}
	if pl.NumRounds() != 1 {
		t.Errorf("rounds = %d, want 1", pl.NumRounds())
	}
	checkPlanInvariants(t, pl)
}

func checkPlanInvariants(t *testing.T, pl *Plan) {
	t.Helper()
	p := pl.P
	// Cover and leaf-freshness are enforced by Build; re-check order.
	if len(pl.Order) != p.N() {
		t.Fatalf("%s: order %v misses vertices", p.Name, pl.Order)
	}
	seen := make(map[pattern.VertexID]bool)
	for _, u := range pl.Order {
		if seen[u] {
			t.Fatalf("%s: duplicate %d in order %v", p.Name, u, pl.Order)
		}
		seen[u] = true
	}
	if pl.Order[0] != pl.Units[0].Piv {
		t.Fatalf("%s: order must start with dp0.piv", p.Name)
	}
	// Every pivot appears in the order before its unit's leaves.
	for i, dp := range pl.Units {
		for _, lf := range dp.LF {
			if pl.Pos[dp.Piv] >= pl.Pos[lf] {
				t.Fatalf("%s: unit %d pivot u%d after leaf u%d", p.Name, i, dp.Piv, lf)
			}
		}
	}
	// PrefixLen is monotone and ends at N.
	last := 0
	for _, x := range pl.PrefixLen {
		if x <= last {
			t.Fatalf("%s: PrefixLen %v not increasing", p.Name, pl.PrefixLen)
		}
		last = x
	}
	if last != p.N() {
		t.Fatalf("%s: PrefixLen %v does not end at %d", p.Name, pl.PrefixLen, p.N())
	}
	// Every pattern edge is a star, sibling, or cross edge exactly once.
	count := make(map[[2]pattern.VertexID]int)
	bump := func(e [2]pattern.VertexID) {
		if e[0] > e[1] {
			e[0], e[1] = e[1], e[0]
		}
		count[e]++
	}
	for i := range pl.Units {
		for _, e := range pl.Star[i] {
			bump(e)
		}
		for _, e := range pl.Sib[i] {
			bump(e)
		}
		for _, e := range pl.Cross[i] {
			bump(e)
		}
	}
	for _, e := range p.Edges() {
		if count[e] != 1 {
			t.Fatalf("%s: edge %v classified %d times", p.Name, e, count[e])
		}
	}
}
