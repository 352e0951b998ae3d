package rads_test

import (
	"context"
	"testing"

	"rads/internal/cluster"
	"rads/internal/engine"
	"rads/internal/gen"
	"rads/internal/obs"
	"rads/internal/partition"
	"rads/internal/pattern"
	"rads/internal/rads"
)

// cannedTransport answers every coordinator call with a fixed
// runQuery response — a worker reduced to its wire contract.
type cannedTransport struct{ resp *rads.RunQueryResponse }

func (cannedTransport) Register(int, cluster.Handler) {}
func (c cannedTransport) Call(_, _ int, _ cluster.Message) (cluster.Message, error) {
	return c.resp, nil
}
func (cannedTransport) Close() error { return nil }

// TestSpanlessResponseAndPlanningWall pins two coordinator contracts
// on a run without a prepared artifact. Spans are the only trace
// encoding on the wire: a response that carries none folds into a
// profile with counts and per-machine rows but no worker sub-phases —
// it must not panic or invent phases. And the wall clock starts before
// planning: the top-level phases are disjoint intervals inside it, so
// plan + execute + fold can never exceed WallSeconds (with canned
// workers execute is microseconds, so a wall that skipped planning
// fails here every run, not 2 in 40).
func TestSpanlessResponseAndPlanningWall(t *testing.T) {
	part := partition.KWay(gen.Community(3, 12, 0.3, 5), 3, 7)
	ce := rads.NewClusterEngine(cannedTransport{&rads.RunQueryResponse{
		SME: 2, Distributed: 3, SMENodes: 5, DistNodes: 7,
		Stat: obs.MachineStat{Machine: 99, Seconds: 0.5, TreeNodes: 12, Groups: 4, Stolen: 1},
	}}, part.M)

	for i := 0; i < 50; i++ {
		res, err := ce.Run(context.Background(), engine.Request{
			Part: part, Pattern: pattern.ByName("q4"), Metrics: cluster.NewMetrics(part.M),
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Total != 5*int64(part.M) || res.TreeNodes != 12*int64(part.M) {
			t.Fatalf("folded total %d tree nodes %d, want %d and %d", res.Total, res.TreeNodes, 5*part.M, 12*part.M)
		}
		p := res.Profile
		if p == nil {
			t.Fatal("no profile")
		}
		var top float64
		for _, ph := range p.Phases {
			if obs.IsSubPhase(ph.Name) {
				t.Errorf("span-less workers produced sub-phase %q", ph.Name)
			} else {
				top += ph.Seconds
			}
		}
		if p.Phase("plan") <= 0 || p.Phase("execute") <= 0 || p.Phase("fold") <= 0 {
			t.Fatalf("missing a top-level phase: %+v", p.Phases)
		}
		if top > p.WallSeconds {
			t.Fatalf("run %d: plan+execute+fold = %.9fs exceeds wall %.9fs", i, top, p.WallSeconds)
		}
		if len(p.Machines) != part.M || p.Steals != part.M {
			t.Fatalf("machines %d steals %d, want %d each", len(p.Machines), p.Steals, part.M)
		}
		for m, st := range p.Machines {
			if st.Machine != m || st.Groups != 4 {
				t.Errorf("machine row %d: %+v (the coordinator re-attributes the id it asked)", m, st)
			}
		}
	}
}
