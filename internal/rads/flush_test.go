package rads

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"rads/internal/baselines/common"
	"rads/internal/baselines/psgl"
	"rads/internal/cluster"
	"rads/internal/gen"
	"rads/internal/graph"
	"rads/internal/localenum"
	"rads/internal/partition"
	"rads/internal/pattern"
)

// TestFlushSegmentsPreserveCounts forces the tightest possible flush
// granularity (one EC per segment) and checks that every query still
// returns the exact embedding count. This exercises the pin/unpin
// machinery, mid-expansion state save/restore, and early result
// emission on every code path.
func TestFlushSegmentsPreserveCounts(t *testing.T) {
	g := gen.Community(4, 12, 0.3, 17)
	part := partition.KWay(g, 3, 5)
	queries := append(pattern.QuerySet(), pattern.Triangle())
	for _, q := range queries {
		want := localenum.Count(g, q, localenum.Options{})
		res, err := runSegmented(part, q, Config{}, 1)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if res.Total != want {
			t.Errorf("%s: segmented RADS = %d, oracle = %d", q.Name, res.Total, want)
		}
	}
}

// TestFlushSegmentsMatchUnsegmented compares every observable result
// field that must be invariant under segmentation.
func TestFlushSegmentsMatchUnsegmented(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second segmentation experiment: skipped in -short mode")
	}
	g := gen.PowerLaw(600, 8, 2.6, 150, 23)
	part := partition.KWay(g, 4, 9)
	q := pattern.ByName("q4")

	plain, err := Run(part, q, Config{})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := runSegmented(part, q, Config{}, 21)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Total != tight.Total {
		t.Errorf("total: plain %d, segmented %d", plain.Total, tight.Total)
	}
	if plain.SME != tight.SME {
		t.Errorf("SME: plain %d, segmented %d", plain.SME, tight.SME)
	}
}

// TestSegmentedPeakBelowUnsegmented: with a small segment the live trie
// peak must come down accordingly.
func TestSegmentedPeakBelowUnsegmented(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second q6 runs: skipped in -short mode")
	}
	g := gen.PowerLaw(450, 9, 2.5, 150, 31)
	part := partition.KWay(g, 4, 9)
	q := pattern.ByName("q6")

	loose := cluster.NewMemBudget(part.M, 0)
	if _, err := Run(part, q, Config{Budget: loose}); err != nil {
		t.Fatal(err)
	}
	tight := cluster.NewMemBudget(part.M, 0)
	if _, err := runSegmented(part, q, Config{Budget: tight}, 1365); err != nil {
		t.Fatal(err)
	}
	if tight.MaxPeak() >= loose.MaxPeak() {
		t.Errorf("segmented peak %d not below unsegmented %d", tight.MaxPeak(), loose.MaxPeak())
	}
}

// TestRobustnessShape is the Section 7.1 robustness experiment as a
// regression test: under a budget that kills PSgL, RADS completes and
// reports the correct count. This is the paper's headline claim.
func TestRobustnessShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second robustness experiment: skipped in -short mode")
	}
	g := gen.PowerLaw(700, 8, 2.8, 280, 104)
	part := partition.KWay(g, 5, 7)
	q := pattern.ByName("q6")

	// Establish the reference count without a budget.
	want := localenum.Count(g, q, localenum.Options{})

	// Find PSgL's actual peak, then set the budget below it.
	probe := cluster.NewMemBudget(part.M, 0)
	if _, err := psgl.Run(part, q, common.Config{Budget: probe}); err != nil {
		t.Fatal(err)
	}
	budgetBytes := probe.MaxPeak() / 2
	if budgetBytes < 64<<10 {
		t.Skipf("PSgL peak %d too small to stage the experiment", probe.MaxPeak())
	}

	psglBudget := cluster.NewMemBudget(part.M, budgetBytes)
	_, err := psgl.Run(part, q, common.Config{Budget: psglBudget})
	if !errors.Is(err, cluster.ErrOutOfMemory) {
		t.Fatalf("PSgL under %d B: err = %v, want OOM", budgetBytes, err)
	}

	radsBudget := cluster.NewMemBudget(part.M, budgetBytes)
	res, err := Run(part, q, Config{Budget: radsBudget})
	if err != nil {
		t.Fatalf("RADS under %d B: %v", budgetBytes, err)
	}
	if res.Total != want {
		t.Errorf("RADS under budget = %d, oracle = %d", res.Total, want)
	}
	if res.PeakMemBytes > budgetBytes {
		t.Errorf("peak %d exceeded budget %d", res.PeakMemBytes, budgetBytes)
	}
}

// TestEmitResultsStreamsViaCallback: with segmentation the OnEmbedding
// callback must still deliver every embedding exactly once, as a valid
// embedding, with no duplicates across segments.
func TestEmitResultsStreamsViaCallback(t *testing.T) {
	g := gen.Community(3, 10, 0.4, 41)
	part := partition.KWay(g, 2, 3)
	q := pattern.ByName("q2")
	want := localenum.Count(g, q, localenum.Options{})

	var mu sync.Mutex
	seen := make(map[string]int)
	res, err := runSegmented(part, q, Config{
		OnEmbedding: func(machine int, f []graph.VertexID) {
			// Validate the embedding against the pattern's edges.
			for _, e := range q.Edges() {
				if !g.HasEdge(f[e[0]], f[e[1]]) {
					t.Errorf("callback embedding %v misses edge %v", f, e)
				}
			}
			key := fmt.Sprint(f)
			mu.Lock()
			seen[key]++
			mu.Unlock()
		},
	}, 1) // tightest segmentation
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != want {
		t.Errorf("total %d, want %d", res.Total, want)
	}
	mu.Lock()
	defer mu.Unlock()
	if int64(len(seen)) != want {
		t.Errorf("callback saw %d distinct embeddings, want %d", len(seen), want)
	}
	for k, c := range seen {
		if c != 1 {
			t.Errorf("embedding %s delivered %d times", k, c)
		}
	}
}
