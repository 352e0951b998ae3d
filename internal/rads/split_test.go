package rads

import (
	"sync"
	"testing"

	"rads/internal/cluster"
	"rads/internal/gen"
	"rads/internal/graph"
	"rads/internal/partition"
	"rads/internal/pattern"
)

// runTuned is Run with adjust applied to the engine before its machines
// are built: the in-package seam for the sizes a Config does not set.
func runTuned(part *partition.Partition, p *pattern.Pattern, cfg Config, adjust func(*engine)) (*Result, error) {
	e, err := newEngine(part, p, p.SymmetryBreaking(), cfg)
	if err != nil {
		return nil, err
	}
	adjust(e)
	e.spawnMachines()
	return e.run()
}

// runSplitting is Run with the huge-frontier threshold at thr, so small
// graphs split their rounds.
func runSplitting(part *partition.Partition, p *pattern.Pattern, cfg Config, thr int) (*Result, error) {
	return runTuned(part, p, cfg, func(e *engine) { e.hugeFrontier = thr })
}

// runSegmented is Run with engine.segment at nodes, so small graphs
// flush mid-round and form small region groups.
func runSegmented(part *partition.Partition, p *pattern.Pattern, cfg Config, nodes int) (*Result, error) {
	return runTuned(part, p, cfg, func(e *engine) { e.segment = nodes })
}

// TestFrontierSplitParity is the count-parity oracle test of the
// huge-group frontier split: with the threshold forced low enough that
// essentially every round splits, counts must match the sequential
// oracle at every worker width, and the split must demonstrably fire
// when it can (Workers > 1) and never when it cannot (Workers == 1).
func TestFrontierSplitParity(t *testing.T) {
	g := gen.PowerLaw(220, 6, 2.4, 120, 11)
	part := partition.KWay(g, 3, 5)
	for _, name := range []string{"q1", "q4", "cq1"} {
		p := pattern.ByName(name)
		want := oracleCount(g, p)
		if want == 0 {
			t.Fatalf("%s: oracle found nothing; test graph too sparse", name)
		}
		for _, w := range []int{1, 2, 8} {
			res, err := runSplitting(part, p, Config{
				DisableSME: true, // all candidates through R-Meef rounds
				Workers:    w,
			}, 2)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, w, err)
			}
			if res.Total != want {
				t.Errorf("%s workers=%d: Total = %d, want %d", name, w, res.Total, want)
			}
			if w > 1 && res.FrontierSplits == 0 {
				t.Errorf("%s workers=%d: no frontier split fired with threshold 2", name, w)
			}
			if w == 1 && res.FrontierSplits != 0 {
				t.Errorf("%s workers=1: %d frontier splits; one worker has nothing to split across",
					name, res.FrontierSplits)
			}
		}
	}
}

// TestFrontierSplitUnderMemoryPressure drives the split through the
// paths that share mutable machinery across shards: a tiny segment
// forces mid-round flushes inside every shard, and a budget keeps the
// cache valve and trie charges active concurrently.
func TestFrontierSplitUnderMemoryPressure(t *testing.T) {
	g := gen.PowerLaw(200, 6, 2.4, 100, 23)
	part := partition.KWay(g, 3, 9)
	p := pattern.ByName("q4")
	want := oracleCount(g, p)
	res, err := runTuned(part, p, Config{
		DisableSME: true,
		Workers:    4,
		Budget:     cluster.NewMemBudget(part.M, 64<<20),
	}, func(e *engine) {
		e.hugeFrontier = 2
		e.segment = 85 // a handful of trie nodes per segment
	})
	if err != nil {
		t.Fatalf("split under pressure: %v", err)
	}
	if res.Total != want {
		t.Errorf("Total = %d, want %d", res.Total, want)
	}
	if res.FrontierSplits == 0 {
		t.Error("no frontier split fired")
	}
}

// TestFrontierSplitStreaming checks that split rounds deliver streamed
// embeddings exactly once. OnEmbedding disables end-vertex deferral, so
// this also covers split shards that emit full embeddings.
func TestFrontierSplitStreaming(t *testing.T) {
	g := gen.Community(5, 14, 0.3, 31)
	part := partition.KWay(g, 3, 5)
	p := pattern.ByName("q1")
	want := oracleCount(g, p)
	seen := make(map[[8]int32]int)
	var mu sync.Mutex
	res, err := runSplitting(part, p, Config{
		DisableSME: true,
		Workers:    8,
		OnEmbedding: func(machine int, f []graph.VertexID) {
			var key [8]int32
			for i, v := range f {
				key[i] = int32(v)
			}
			mu.Lock()
			seen[key]++
			mu.Unlock()
		},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != want {
		t.Errorf("Total = %d, want %d", res.Total, want)
	}
	if int64(len(seen)) != want {
		t.Errorf("streamed %d distinct embeddings, want %d", len(seen), want)
	}
	for key, n := range seen {
		if n != 1 {
			t.Errorf("embedding %v delivered %d times", key, n)
		}
	}
}
