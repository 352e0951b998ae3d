// Package baselines_test cross-validates every baseline engine against
// the single-machine oracle and against RADS — the strongest
// correctness guarantee in the repository: five independently
// implemented distributed engines must agree exactly on every query
// and every dataset.
package baselines_test

import (
	"errors"
	"testing"

	"rads/internal/baselines/bigjoin"
	"rads/internal/baselines/common"
	"rads/internal/baselines/crystal"
	"rads/internal/baselines/psgl"
	"rads/internal/baselines/seed"
	"rads/internal/baselines/twintwig"
	"rads/internal/cluster"
	"rads/internal/gen"
	"rads/internal/graph"
	"rads/internal/localenum"
	"rads/internal/partition"
	"rads/internal/pattern"
	"rads/internal/rads"
)

type engineFn func(part *partition.Partition, p *pattern.Pattern, cfg common.Config) (*common.Result, error)

func engines() map[string]engineFn {
	return map[string]engineFn{
		"psgl":     psgl.Run,
		"twintwig": twintwig.Run,
		"seed":     seed.Run,
		"bigjoin":  bigjoin.Run,
		"crystal": func(part *partition.Partition, p *pattern.Pattern, cfg common.Config) (*common.Result, error) {
			return crystal.Run(part, p, crystal.Config{Config: cfg})
		},
	}
}

func oracle(g *graph.Graph, p *pattern.Pattern) int64 {
	return localenum.Count(g, p, localenum.Options{})
}

func TestAllEnginesMatchOracleCommunity(t *testing.T) {
	g := gen.Community(4, 10, 0.35, 21)
	part := partition.KWay(g, 3, 7)
	queries := append(pattern.QuerySet(), pattern.CliqueQuerySet()...)
	for _, q := range queries {
		want := oracle(g, q)
		for name, run := range engines() {
			res, err := run(part, q, common.Config{})
			if err != nil {
				t.Fatalf("%s %s: %v", name, q.Name, err)
			}
			if res.Total != want {
				t.Errorf("%s %s: Total = %d, want %d", name, q.Name, res.Total, want)
			}
		}
	}
}

func TestAllEnginesMatchOracleRoadNet(t *testing.T) {
	g := gen.RoadNet(10, 10, 22)
	part := partition.KWay(g, 4, 7)
	for _, qn := range []string{"q1", "q3", "q5", "q8"} {
		q := pattern.ByName(qn)
		want := oracle(g, q)
		for name, run := range engines() {
			res, err := run(part, q, common.Config{})
			if err != nil {
				t.Fatalf("%s %s: %v", name, qn, err)
			}
			if res.Total != want {
				t.Errorf("%s %s: Total = %d, want %d", name, qn, res.Total, want)
			}
		}
	}
}

func TestAllEnginesMatchOraclePowerLaw(t *testing.T) {
	g := gen.PowerLaw(250, 6, 2.6, 80, 23)
	part := partition.KWay(g, 3, 7)
	for _, qn := range []string{"q2", "q4", "cq1", "cq3", "cq4"} {
		q := pattern.ByName(qn)
		want := oracle(g, q)
		for name, run := range engines() {
			res, err := run(part, q, common.Config{})
			if err != nil {
				t.Fatalf("%s %s: %v", name, qn, err)
			}
			if res.Total != want {
				t.Errorf("%s %s: Total = %d, want %d", name, qn, res.Total, want)
			}
		}
	}
}

func TestEnginesAgreeWithRADS(t *testing.T) {
	g := gen.Community(3, 12, 0.3, 25)
	part := partition.KWay(g, 3, 7)
	q := pattern.ByName("q4")
	radsRes, err := rads.Run(part, q, rads.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range engines() {
		res, err := run(part, q, common.Config{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Total != radsRes.Total {
			t.Errorf("%s disagrees with RADS: %d vs %d", name, res.Total, radsRes.Total)
		}
	}
}

func TestBaselinesShuffleButRADSDoesNot(t *testing.T) {
	// The paper's central claim, as an executable assertion: on a
	// partitioned dense graph, join/exploration engines move partial
	// results over the network while RADS moves none.
	g := gen.Community(4, 10, 0.4, 27)
	part := partition.Hash(g, 4) // no locality: worst case for everyone
	q := pattern.ByName("q4")
	for _, name := range []string{"psgl", "twintwig", "seed", "bigjoin"} {
		res, err := engines()[name](part, q, common.Config{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.IntermediateRows == 0 {
			t.Errorf("%s: expected shuffled intermediate rows", name)
		}
	}
	mt := cluster.NewMetrics(4)
	if _, err := rads.Run(part, q, rads.Config{Metrics: mt}); err != nil {
		t.Fatal(err)
	}
	if by := mt.ByKind()["shuffle"]; by != 0 {
		t.Errorf("RADS shuffled %d bytes of intermediate results", by)
	}
}

func TestPSgLOOMUnderBudget(t *testing.T) {
	// No memory control: PSgL and TwinTwig must die under a tight
	// budget on a dense query (the paper's Figure 11 failures).
	g := gen.Community(4, 12, 0.5, 29)
	part := partition.Hash(g, 3)
	q := pattern.ByName("q4")
	for _, name := range []string{"psgl", "twintwig"} {
		budget := cluster.NewMemBudget(3, 2048)
		_, err := engines()[name](part, q, common.Config{Budget: budget})
		if !errors.Is(err, cluster.ErrOutOfMemory) {
			t.Errorf("%s: err = %v, want ErrOutOfMemory", name, err)
		}
	}
}

func TestTwinTwigDecomposition(t *testing.T) {
	for _, q := range append(pattern.QuerySet(), pattern.CliqueQuerySet()...) {
		units, err := twintwig.Decompose(q)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		// Every edge covered exactly once; twigs have <= 2 edges.
		covered := make(map[[2]pattern.VertexID]int)
		for _, u := range units {
			if len(u.Leaves) == 0 || len(u.Leaves) > 2 {
				t.Errorf("%s: twig with %d edges", q.Name, len(u.Leaves))
			}
			for _, lf := range u.Leaves {
				a, b := u.Center, lf
				if a > b {
					a, b = b, a
				}
				covered[[2]pattern.VertexID{a, b}]++
			}
		}
		for _, e := range q.Edges() {
			if covered[e] != 1 {
				t.Errorf("%s: edge %v covered %d times", q.Name, e, covered[e])
			}
		}
	}
}

func TestSEEDUsesCliqueUnits(t *testing.T) {
	// On K4 and K5 queries the decomposition must use a clique unit,
	// giving fewer rounds than TwinTwig.
	for _, qn := range []string{"cq1", "cq4"} {
		q := pattern.ByName(qn)
		su, err := seed.Decompose(q)
		if err != nil {
			t.Fatal(err)
		}
		tu, err := twintwig.Decompose(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(su) >= len(tu) {
			t.Errorf("%s: SEED %d units vs TwinTwig %d — clique units should shrink the plan", qn, len(su), len(tu))
		}
	}
}

func TestSEEDDecompositionCoversEdges(t *testing.T) {
	for _, q := range append(pattern.QuerySet(), pattern.CliqueQuerySet()...) {
		units, err := seed.Decompose(q)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		covered := make(map[[2]pattern.VertexID]bool)
		for _, u := range units {
			for _, e := range u.Edges {
				a, b := u.Verts[e[0]], u.Verts[e[1]]
				if a > b {
					a, b = b, a
				}
				covered[[2]pattern.VertexID{a, b}] = true
			}
		}
		for _, e := range q.Edges() {
			if !covered[e] {
				t.Errorf("%s: edge %v uncovered", q.Name, e)
			}
		}
	}
}

func TestCrystalIndex(t *testing.T) {
	g := gen.Clique(5)
	idx := crystal.BuildIndex(g, 4)
	// K5: C(5,2)=10 edges, C(5,3)=10 triangles, C(5,4)=5 K4s.
	if idx.Count(2) != 10 || idx.Count(3) != 10 || idx.Count(4) != 5 {
		t.Errorf("index counts = %d/%d/%d, want 10/10/5", idx.Count(2), idx.Count(3), idx.Count(4))
	}
	if idx.Bytes() != int64(10*2*4+10*3*4+5*4*4) {
		t.Errorf("Bytes = %d", idx.Bytes())
	}
}

func TestCrystalIndexHeavierThanGraph(t *testing.T) {
	// Table 2's point: the index dwarfs the graph on clustered data.
	g := gen.Community(6, 14, 0.5, 31)
	idx := crystal.BuildIndex(g, 4)
	graphBytes := g.NumEdges() * 8
	if idx.Bytes() < 2*graphBytes {
		t.Errorf("index %d bytes vs graph %d bytes: expected heavy index", idx.Bytes(), graphBytes)
	}
}

func TestCrystalCoreProperties(t *testing.T) {
	for _, q := range append(pattern.QuerySet(), pattern.CliqueQuerySet()...) {
		core := crystal.Core(q)
		inCore := make(map[pattern.VertexID]bool)
		for _, u := range core {
			inCore[u] = true
		}
		// Vertex cover: every edge touches the core.
		for _, e := range q.Edges() {
			if !inCore[e[0]] && !inCore[e[1]] {
				t.Errorf("%s: edge %v uncovered by core %v", q.Name, e, core)
			}
		}
		// Buds form an independent set with all neighbours in the core.
		for u := 0; u < q.N(); u++ {
			if inCore[pattern.VertexID(u)] {
				continue
			}
			for _, w := range q.Adj(pattern.VertexID(u)) {
				if !inCore[w] {
					t.Errorf("%s: bud %d has non-core neighbour %d", q.Name, u, w)
				}
			}
		}
	}
}

func TestCrystalReusesPrebuiltIndex(t *testing.T) {
	g := gen.Community(3, 10, 0.4, 33)
	part := partition.KWay(g, 2, 7)
	idx := crystal.BuildIndex(g, 5)
	q := pattern.ByName("cq1")
	res, err := crystal.Run(part, q, crystal.Config{Index: idx})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != oracle(g, q) {
		t.Errorf("Total = %d, want %d", res.Total, oracle(g, q))
	}
}

func TestSingleMachineBaselines(t *testing.T) {
	// m=1 degenerate case must still work for every engine.
	g := gen.Community(2, 10, 0.4, 35)
	part := partition.KWay(g, 1, 7)
	q := pattern.ByName("q2")
	want := oracle(g, q)
	for name, run := range engines() {
		res, err := run(part, q, common.Config{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Total != want {
			t.Errorf("%s: Total = %d, want %d", name, res.Total, want)
		}
	}
}
