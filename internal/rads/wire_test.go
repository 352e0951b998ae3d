package rads_test

import (
	"context"
	"reflect"
	"testing"

	"rads/internal/cluster"
	"rads/internal/engine"
	"rads/internal/gen"
	"rads/internal/graph"
	"rads/internal/obs"
	"rads/internal/partition"
	"rads/internal/pattern"
	"rads/internal/plan"
	"rads/internal/rads"
)

// TestControlPlaneKindsSurviveTCP: the four messages this package
// registers ride the cluster frames as gob payloads; each must arrive
// as it was sent, in both directions of a real loopback exchange. The
// plan travels as its unit sequence: what arrives must build, on the
// pattern parsed from the arrived text, into the plan that was sent.
func TestControlPlaneKindsSurviveTCP(t *testing.T) {
	p := pattern.ByName("q4")
	pl, err := plan.Compute(p)
	if err != nil {
		t.Fatal(err)
	}
	exchanges := []struct{ req, resp cluster.Message }{
		{
			&rads.RunQueryRequest{
				Pattern: pattern.Format(p), Units: pl.Units, Constraints: p.SymmetryBreaking(), QueryID: 77, Workers: 2, BudgetBytes: 512 << 10,
				DisableLoadBalancing: true,
			},
			&rads.RunQueryResponse{
				Counters: rads.Counters{
					SME: 1, Distributed: 2, SMENodes: 3, DistNodes: 4,
					ELBytesCum: 5, ETBytesCum: 6, ELBytesPeak: 7, ETBytesPeak: 8,
					VerifyEdges: 17, PulledLists: 18, PulledEdges: 19,
					Kernels: graph.KernelTally{Merge: 14, Gallop: 15, KWay: 16, Probe: 20},
				},
				Stat:   obs.MachineStat{Machine: 1, Seconds: 0.25, TreeNodes: 7, Groups: 3, Stolen: 1},
				Rounds: 2, Workers: 2,
				PeakMemBytes: 9, OOM: true, CommBytes: 10, CommMessages: 11,
				CacheHits: 12, CacheMisses: 13,
				Spans: []obs.Span{{Name: "execute/group", Machine: 1, Worker: 0, StartNs: 5, DurNs: 9}},
			},
		},
		{&rads.RunQueryRequest{Pattern: "t:3:0-1,1-2,2-0"}, &rads.RunQueryResponse{}},
		{
			&rads.StatsPullRequest{},
			&rads.StatsPullResponse{Machine: 1, Fingerprint: 0xfeedface, Families: []obs.FamilySnapshot{{
				Name: "rads_queries_total", Help: "Queries executed by outcome.", Type: "counter", Label: "outcome",
				Series: []obs.SeriesSnapshot{{Label: "ok", Int: 3}, {Label: "slow", Float: 0.5, Bounds: []float64{0.1, 1}, Counts: []int64{1, 2, 0}, Sum: 1.5, Count: 3}},
			}}},
		},
		{&rads.StatsPullRequest{}, &rads.StatsPullResponse{}},
	}
	tr, err := cluster.NewTCPTransport(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	arrived := make(chan cluster.Message, 1)
	answer := make(chan cluster.Message, 1)
	tr.Register(1, func(from int, req cluster.Message) (cluster.Message, error) {
		arrived <- req
		return <-answer, nil
	})
	for _, x := range exchanges {
		answer <- x.resp
		back, err := tr.Call(cluster.Coordinator, 1, x.req)
		if err != nil {
			t.Fatalf("%T: %v", x.req, err)
		}
		got := <-arrived
		if !reflect.DeepEqual(got, x.req) {
			t.Errorf("request arrived as %+v, want %+v", got, x.req)
		}
		if r, ok := got.(*rads.RunQueryRequest); ok && r.Units != nil {
			q, err := pattern.Parse(r.Pattern)
			if err != nil {
				t.Fatal(err)
			}
			rebuilt, err := plan.Build(q, r.Units)
			if err != nil {
				t.Fatalf("arrived units do not build: %v", err)
			}
			if !reflect.DeepEqual(rebuilt.Order, pl.Order) || !reflect.DeepEqual(rebuilt.Cross, pl.Cross) || !reflect.DeepEqual(rebuilt.PrefixLen, pl.PrefixLen) {
				t.Errorf("arrived units build %v, want %v", rebuilt, pl)
			}
		}
		if !reflect.DeepEqual(back, x.resp) {
			t.Errorf("response arrived as %+v, want %+v", back, x.resp)
		}
	}
}

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
		Counters: rads.Counters{SME: 2, Distributed: 3, SMENodes: 5, DistNodes: 7},
		Stat:     obs.MachineStat{Machine: 99, Seconds: 0.5, TreeNodes: 12, Groups: 4, Stolen: 1},
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
