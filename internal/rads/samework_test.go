package rads

import (
	"fmt"
	"maps"
	"sync"
	"testing"

	"rads/internal/cluster"
	"rads/internal/gen"
	"rads/internal/graph"
	"rads/internal/partition"
	"rads/internal/pattern"
)

// radsWork is the deterministic part of a one-worker, no-stealing RADS
// run: where the embeddings were found, the tree nodes each side linked,
// the region groups, the verify plane's two sides, the data-plane
// traffic by message kind, and the budget's high-water mark.
type radsWork struct {
	Total, SME, Distributed, SMENodes, DistNodes int64
	RegionGroups                                 int
	VerifyEdges, PulledLists                     int64
	VerifyEMsgs, VerifyEBytes                    int64
	FetchVMsgs, FetchVBytes                      int64
	PeakMemBytes                                 int64
}

// hubFirstBlocks has the shape of the benchmark's enumeration fixture:
// power-law blocks joined into a ring by bridges between the low-degree
// ends of neighbouring blocks, ingested hub-first as radsprep
// -degree-order does, on four KWay machines.
func hubFirstBlocks(t *testing.T) *partition.Partition {
	t.Helper()
	const blocks, blockN, bridges = 6, 400, 3
	b := graph.NewBuilder(blocks * blockN)
	for c := 0; c < blocks; c++ {
		base := graph.VertexID(c * blockN)
		gen.PowerLaw(blockN, 8, 3.0, blockN/4, int64(1+c)).Edges(func(u, v graph.VertexID) bool {
			b.AddEdge(base+u, base+v)
			return true
		})
		next := graph.VertexID((c + 1) % blocks * blockN)
		for i := 1; i <= bridges; i++ {
			b.AddEdge(base+graph.VertexID(blockN-i), next+graph.VertexID(blockN-i-bridges))
		}
	}
	return partition.KWay(ingestedTwin(t, b.Build(), true), 4, 7)
}

// TestRADSSameWork pins the work RADS does on a hub-first fixture, q1-q5
// unbudgeted and under 512 KiB a machine. Any change to the rooting of
// matches (symmetry breaking, matching orders, the plan's start vertex),
// to grouping or to the verify plane shows up here as a changed figure.
func TestRADSSameWork(t *testing.T) {
	cells := []struct {
		query string
		limit int64
		want  radsWork
	}{
		{"q1", 0, radsWork{18923, 12287, 6636, 31587, 16335, 8, 5, 4, 1, 45, 11, 18084, 123796}},
		{"q1", 512 << 10, radsWork{18923, 12287, 6636, 31587, 16337, 8, 7, 4, 2, 63, 19, 18084, 44812}},
		{"q2", 0, radsWork{158358, 108199, 50159, 128958, 8586, 12, 3439, 0, 4, 30951, 0, 0, 42384}},
		{"q2", 512 << 10, radsWork{158358, 108199, 50159, 128958, 8586, 12, 3529, 0, 9, 31761, 0, 0, 24480}},
		{"q3", 0, radsWork{180753, 117733, 63020, 215729, 114074, 8, 0, 0, 0, 0, 24, 29560, 271792}},
		{"q3", 512 << 10, radsWork{180753, 117733, 63020, 215729, 114074, 8, 0, 0, 0, 0, 56, 29560, 65644}},
		{"q4", 0, radsWork{138039, 87709, 50330, 154251, 95601, 6, 774, 347, 18, 6966, 20, 22468, 204236}},
		{"q4", 512 << 10, radsWork{138039, 87709, 50330, 154251, 89055, 6, 408, 368, 49, 3672, 68, 22232, 41504}},
		{"q5", 0, radsWork{2745545, 1700432, 1045113, 1859154, 90949, 6, 3536, 392, 16, 31824, 17, 28992, 232172}},
		{"q5", 512 << 10, radsWork{2745545, 1700432, 1045113, 1859154, 88957, 6, 1945, 450, 63, 17505, 47, 27948, 62156}},
	}
	part := hubFirstBlocks(t)
	for _, c := range cells {
		t.Run(fmt.Sprintf("%s/%d", c.query, c.limit), func(t *testing.T) {
			metrics := cluster.NewMetrics(part.M)
			res, err := Run(part, pattern.ByName(c.query), Config{
				Workers: 1, DisableLoadBalancing: true, Metrics: metrics,
				Budget: cluster.NewMemBudget(part.M, c.limit),
			})
			if err != nil {
				t.Fatal(err)
			}
			msgs, bytes := metrics.MessagesByKind(), metrics.ByKind()
			got := radsWork{
				res.Total, res.SME, res.Distributed, res.SMENodes, res.DistNodes,
				res.RegionGroups, res.VerifyEdges, res.PulledLists,
				msgs["verifyE"], bytes["verifyE"], msgs["fetchV"], bytes["fetchV"],
				res.PeakMemBytes,
			}
			if got != c.want {
				t.Errorf("work = %+v, want %+v", got, c.want)
			}
			maps.DeleteFunc(msgs, func(k string, _ int64) bool { return k == "verifyE" || k == "fetchV" })
			if len(msgs) != 0 {
				t.Errorf("messages of other kinds: %v", msgs)
			}
		})
	}
}

// TestMatchesRootedAtLowestDegree: on a hub-first store, every streamed
// embedding of q1 and q3 — whose start vertex u0 has every vertex in its
// orbit — maps u0 to a vertex of minimum degree within the embedding, in
// SM-E and in R-Meef alike.
func TestMatchesRootedAtLowestDegree(t *testing.T) {
	part := hubFirstBlocks(t)
	g := part.G
	for _, name := range []string{"q1", "q3"} {
		var (
			mu          sync.Mutex
			seen, wrong int64
			example     []graph.VertexID
		)
		res, err := Run(part, pattern.ByName(name), Config{
			OnEmbedding: func(_ int, f []graph.VertexID) {
				mu.Lock()
				defer mu.Unlock()
				seen++
				for _, v := range f[1:] {
					if g.Degree(v) < g.Degree(f[0]) {
						wrong++
						if example == nil {
							example = append([]graph.VertexID(nil), f...)
						}
						return
					}
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if seen == 0 || seen != res.Total || res.SME == 0 || res.Distributed == 0 {
			t.Fatalf("%s: streamed %d of %d embeddings (SM-E %d, R-Meef %d); the fixture must exercise both",
				name, seen, res.Total, res.SME, res.Distributed)
		}
		if wrong > 0 {
			t.Errorf("%s: %d of %d embeddings root u0 above the embedding's minimum degree, e.g. %v", name, wrong, seen, example)
		}
	}
}
