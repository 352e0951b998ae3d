package rads

import (
	"math/rand"
	"testing"

	"rads/internal/gen"
	"rads/internal/localenum"
	"rads/internal/partition"
	"rads/internal/pattern"
)

// randomConnectedPattern: random spanning tree plus extra edges on n
// vertices — the same fuzzer the planner tests use.
func randomConnectedPattern(rng *rand.Rand, n int) *pattern.Pattern {
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

// TestRandomPatternsAgainstOracle fuzzes the whole distributed engine
// — planner, SM-E split, region groups, R-Meef rounds, end-vertex
// deferral, flush segmentation — against the single-machine oracle on
// random patterns and random graphs.
func TestRandomPatternsAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for i := 0; i < 40; i++ {
		p := randomConnectedPattern(rng, 3+rng.Intn(5))
		g := gen.ErdosRenyi(20+rng.Intn(20), 0.15+0.2*rng.Float64(), rng.Int63())
		if _, comps := g.ConnectedComponents(); comps > 1 {
			// Partitioner and borders assume a connected graph;
			// regenerate connected via a community graph instead.
			g = gen.Community(2, 12+rng.Intn(8), 0.3, rng.Int63())
		}
		machines := 2 + rng.Intn(3)
		part := partition.KWay(g, machines, rng.Int63())
		want := localenum.Count(g, p, localenum.Options{})

		cfg := Config{}
		switch i % 4 {
		case 1:
			cfg.DisableSME = true
		case 2:
			cfg.GroupMemTarget = 1 << 10 // force segmentation
		case 3:
			cfg.DisableEndVertexCounting = true
			cfg.RandomGrouping = true
		}
		res, err := Run(part, p, cfg)
		if err != nil {
			t.Fatalf("case %d (%s, m=%d, cfg=%+v): %v", i, p, machines, cfg, err)
		}
		if res.Total != want {
			t.Fatalf("case %d (%s on n=%d m=%d, machines=%d, cfg %d): RADS=%d oracle=%d",
				i, p, g.NumVertices(), g.NumEdges(), machines, i%4, res.Total, want)
		}
	}
}
