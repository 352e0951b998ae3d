package rads

import (
	"errors"
	"testing"

	"rads/internal/cluster"
	"rads/internal/gen"
	"rads/internal/graph"
	"rads/internal/localenum"
	"rads/internal/partition"
	"rads/internal/pattern"
)

// ladder is the budget ladder of the budget tests: per-machine limits
// from top down to 4 KiB, each rung three quarters of the one above.
func ladder(top int64) []int64 {
	var rungs []int64
	for limit := top; limit >= 4<<10; limit = limit * 3 / 4 {
		rungs = append(rungs, limit)
	}
	return rungs
}

// budgetedRun runs q byte-deterministically — one worker, no stealing —
// under a per-machine budget of limit bytes. adjust, if non-nil, edits
// the hosted engine before it runs.
func budgetedRun(t *testing.T, part *partition.Partition, q *pattern.Pattern, limit int64, adjust func(*engine)) (*Result, error) {
	t.Helper()
	e := hostedEngine(t, part, q, Config{
		Workers: 1, DisableLoadBalancing: true, Budget: cluster.NewMemBudget(part.M, limit),
	})
	if adjust != nil {
		adjust(e)
	}
	return e.run()
}

// budgetFloor returns q's budget floor on ladder(top): the smallest rung
// under which it completes with the oracle's want embeddings, 0 when no
// rung does. It climbs from the tightest rung: a run below the floor
// aborts at its first failed charge, so only the floor's runs in full.
func budgetFloor(t *testing.T, part *partition.Partition, q *pattern.Pattern, want, top int64) int64 {
	t.Helper()
	rungs := ladder(top)
	for i := len(rungs) - 1; i >= 0; i-- {
		res, err := budgetedRun(t, part, q, rungs[i], nil)
		if errors.Is(err, cluster.ErrOutOfMemory) {
			continue
		}
		if err != nil {
			t.Fatalf("%s under %d B: %v", q.Name, rungs[i], err)
		}
		if res.Total != want {
			t.Errorf("%s under %d B: counted %d, oracle %d", q.Name, rungs[i], res.Total, want)
			continue
		}
		if res.PeakMemBytes > rungs[i] {
			t.Errorf("%s under %d B: peak %d over the budget", q.Name, rungs[i], res.PeakMemBytes)
		}
		return rungs[i]
	}
	return 0
}

// TestHubLeavesFlushUnderBudget: a hub pivot under a three-leaf unit
// builds deg² embedding candidates for one first-leaf candidate, so a
// flush valve that only opens between first-leaf candidates overshoots
// the segment bound in one step. With flush points at every leaf level
// both cases complete inside the budget, sequentially and on a pool.
func TestHubLeavesFlushUnderBudget(t *testing.T) {
	for _, tc := range []struct {
		scale, edgeFactor int
		want, limit       int64
		long              bool
	}{
		{8, 4, 601732, 32 << 10, false},    // needed 99 645 B a machine
		{11, 3, 16931710, 512 << 10, true}, // aborted on one 541 512-byte trie charge
	} {
		if tc.long && testing.Short() {
			continue // 17 M embeddings a run
		}
		g := gen.RMAT(tc.scale, tc.edgeFactor, 1)
		part := partition.KWay(g, 4, 7)
		for _, cfg := range []Config{
			{Workers: 1, DisableLoadBalancing: true},
			{Workers: 2},
		} {
			cfg.Budget = cluster.NewMemBudget(part.M, tc.limit)
			res, err := Run(part, pattern.ByName("q4"), cfg)
			if err != nil {
				t.Fatalf("RMAT(%d,%d,1) q4 workers=%d: %v", tc.scale, tc.edgeFactor, cfg.Workers, err)
			}
			if res.Total != tc.want {
				t.Errorf("RMAT(%d,%d,1) q4 workers=%d: counted %d, oracle %d", tc.scale, tc.edgeFactor, cfg.Workers, res.Total, tc.want)
			}
			if res.PeakMemBytes > tc.limit {
				t.Errorf("RMAT(%d,%d,1) q4 workers=%d: peak %d over the %d B budget", tc.scale, tc.edgeFactor, cfg.Workers, res.PeakMemBytes, tc.limit)
			}
			t.Logf("RMAT(%d,%d,1) q4 workers=%d: peak %d B", tc.scale, tc.edgeFactor, cfg.Workers, res.PeakMemBytes)
		}
	}
}

// TestBudgetFloors pins the budget floor — the smallest rung of the
// ladder that completes with the oracle's count — of q1-q4 on five
// generator families (4207 B is the ladder's bottom rung). A floor may
// fall, never rise. The power-law and RMAT q3 cells lean on the round's
// halving (without it both rise to 7480 B): rooted at its lowest-degree
// vertex, a C5 match pivots on hubs in its later rounds, and a round
// must run its frontier in halves for their lists to leave room for its
// segment.
func TestBudgetFloors(t *testing.T) {
	if testing.Short() {
		t.Skip("twenty budget ladders: skipped in -short mode")
	}
	const top = 4 << 20
	for _, tc := range []struct {
		name   string
		g      *graph.Graph
		floors [4]int64 // q1..q4
	}{
		{"power-law", gen.PowerLaw(1500, 6, 2.3, 50, 1), [4]int64{4207, 4207, 4207, 4207}},
		{"barabasi-albert", gen.BarabasiAlbert(2000, 3, 1), [4]int64{4207, 4207, 4207, 4207}},
		{"rmat", gen.RMAT(11, 3, 1), [4]int64{4207, 4207, 4207, 4207}},
		{"road", gen.RoadNet(60, 60, 1), [4]int64{4207, 4207, 4207, 4207}},
		{"community", gen.Community(40, 25, 0.2, 1), [4]int64{4207, 4207, 4207, 4207}},
	} {
		part := partition.KWay(tc.g, 4, 7)
		for i, parent := range tc.floors {
			q := pattern.ByName([]string{"q1", "q2", "q3", "q4"}[i])
			want := localenum.Count(tc.g, q, localenum.Options{})
			floor := budgetFloor(t, part, q, want, top)
			t.Logf("%s %s: floor %d B (was %d)", tc.name, q.Name, floor, parent)
			if floor == 0 || floor > parent {
				t.Errorf("%s %s: budget floor %d B, was %d", tc.name, q.Name, floor, parent)
			}
		}
	}
}
