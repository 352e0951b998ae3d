package rads

import (
	"context"
	"errors"
	"sync"
	"testing"

	"rads/internal/cluster"
	eng "rads/internal/engine"
	"rads/internal/gen"
	"rads/internal/graph"
	"rads/internal/localenum"
	"rads/internal/obs"
	"rads/internal/partition"
	"rads/internal/pattern"
)

// TestPullPays pins the cost rule at its break-even: asking costs 9
// accounted bytes an edge, a list 4 bytes a vertex plus 8 of framing.
func TestPullPays(t *testing.T) {
	for _, tc := range []struct {
		asks   int64
		avgDeg float64
		want   bool
	}{
		{0, 0, false},
		{0, 6, false},
		{1, 0, true},     // 9 >= 8
		{1, 0.25, true},  // 9 >= 9: break-even pulls
		{1, 0.5, false},  // 9 < 10
		{3, 6, false},    // 27 < 32
		{4, 6, true},     // 36 >= 32
		{8, 16, true},    // 72 >= 72
		{8, 16.5, false}, // 72 < 74
	} {
		if got := pullPays(tc.asks, tc.avgDeg); got != tc.want {
			t.Errorf("pullPays(%d, %g) = %v, want %v", tc.asks, tc.avgDeg, got, tc.want)
		}
	}
}

// TestChoosePullsValveAndAllocs drives the decision by hand on a skewed
// graph: past three quarters of the budget nothing optional is chosen
// or fetched; with room the rule queues neighbours, and re-running the
// asks pass on the warm group state allocates nothing.
func TestChoosePullsValveAndAllocs(t *testing.T) {
	g := gen.PowerLaw(400, 8, 2.7, 100, 67)
	part := partition.KWay(g, 4, 7)
	const limit = 1 << 30
	budget := cluster.NewMemBudget(part.M, limit)
	e := hostedEngine(t, part, pattern.ByName("q4"), Config{Budget: budget})
	round := len(e.pl.Units) - 1
	if len(e.pulls[round]) == 0 {
		t.Fatalf("plan %v: the last round has no prefix verification neighbour", e.pl.Units)
	}
	m := e.machines[0]
	st := m.newGroupState()

	ballast := limit*3/4 + 1 - budget.Used(m.id)
	if err := budget.Charge(m.id, ballast); err != nil {
		t.Fatal(err)
	}
	frontier := frontierOf(t, m, st, round)
	if err := m.fetchForeignPivots(st, round, frontier); err != nil {
		t.Fatal(err)
	}
	if m.choosePulls(st, round, frontier) || st.PulledLists != 0 || st.PulledEdges != 0 {
		t.Fatalf("valve shut, yet %d queued, %d lists pulled for %d edges", len(st.pivots), st.PulledLists, st.PulledEdges)
	}
	budget.Release(m.id, ballast)

	if !m.choosePulls(st, round, frontier) { // also grows the scratch
		t.Fatal("valve open and nothing chosen; graph too tame for the test")
	}
	chosen := len(st.pivots)
	if allocs := testing.AllocsPerRun(5, func() { m.choosePulls(st, round, frontier) }); allocs != 0 {
		t.Errorf("choosePulls allocates %v/pass on a warm group state, want 0", allocs)
	}
	if len(st.pivots) != chosen {
		t.Errorf("the same frontier chose %d neighbours, then %d", chosen, len(st.pivots))
	}
	for _, x := range st.pivots {
		if _, ok := st.adjKnown(x); ok {
			t.Errorf("chose %d, whose list is already readable", x)
		}
	}
}

// TestPullTrafficRegression is byte-deterministic (one worker, no
// stealing). On a skewed graph under a budget the parent of this rule
// sent 43 787 029 B, nearly all of it verifyE for candidates that died
// there; on low-degree, high-locality graphs, where always pulling
// raises traffic by 13-24 %, the rule must stay within a percent of
// what the parent sent.
func TestPullTrafficRegression(t *testing.T) {
	run := func(g *graph.Graph, q string, limit int64) *Result {
		t.Helper()
		part := partition.KWay(g, 4, 7)
		res, err := Run(part, pattern.ByName(q), Config{
			Workers: 1, DisableLoadBalancing: true, Budget: cluster.NewMemBudget(part.M, limit),
		})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return res
	}
	res := run(gen.PowerLaw(1500, 6, 2.3, 50, 1), "q4", 512<<10)
	if res.Total != 1191447 {
		t.Errorf("power-law q4: counted %d, want 1191447", res.Total)
	}
	if res.CommBytes >= 1<<20 {
		t.Errorf("power-law q4 under 512 KiB: sent %d B, want < 1 MiB (parent: 43787029)", res.CommBytes)
	}
	if res.PulledLists == 0 || res.PulledEdges <= res.VerifyEdges {
		t.Errorf("power-law q4: %d lists pulled for %d edges, %d edges asked; want pulls to carry the round", res.PulledLists, res.PulledEdges, res.VerifyEdges)
	}
	if res.PeakMemBytes > 512<<10 {
		t.Errorf("power-law q4: peak %d over the budget", res.PeakMemBytes)
	}

	road, comm := gen.RoadNet(60, 60, 1), gen.Community(40, 25, 0.2, 1)
	for _, tc := range []struct {
		name   string
		g      *graph.Graph
		q      string
		parent int64
	}{
		{"road", road, "q1", 3386}, {"road", road, "q4", 990},
		{"community", comm, "q1", 2404}, {"community", comm, "q4", 3115},
	} {
		if got := run(tc.g, tc.q, 0).CommBytes; got*100 > tc.parent*101 {
			t.Errorf("%s %s: sent %d B, parent sent %d", tc.name, tc.q, got, tc.parent)
		}
	}
}

// TestPullsNeverCostABudget: pulls are optional, so a budget can only
// fail where it fails without them. Down a ladder of budgets, wherever
// an engine with no pull positions (the rule's parent) completes, the
// real one completes with the oracle's count — at the tight end through
// verifyE, with little or nothing pulled.
func TestPullsNeverCostABudget(t *testing.T) {
	g := gen.PowerLaw(400, 8, 2.7, 100, 67)
	part := partition.KWay(g, 4, 7)
	queries, top := []string{"q1", "q4"}, int64(1<<20)
	if testing.Short() {
		queries, top = queries[:1], 64<<10
	}
	for _, name := range queries {
		q := pattern.ByName(name)
		want := localenum.Count(g, q, localenum.Options{})
		attempt := func(limit int64, pulls bool) (*Result, error) {
			e := hostedEngine(t, part, q, Config{
				Workers: 1, DisableLoadBalancing: true, Budget: cluster.NewMemBudget(part.M, limit),
			})
			if !pulls {
				e.pulls = make([][]pullLeaf, len(e.pl.Units))
			}
			return e.run()
		}
		survived := 0
		var tightest *Result
		for limit := top; limit >= 4<<10; limit = limit * 3 / 4 {
			if _, err := attempt(limit, false); err != nil {
				if !errors.Is(err, cluster.ErrOutOfMemory) {
					t.Fatal(err)
				}
				continue
			}
			res, err := attempt(limit, true)
			if err != nil {
				t.Errorf("%s under %d B: completes without pulls, with them: %v", name, limit, err)
				continue
			}
			if res.Total != want {
				t.Errorf("%s under %d B: counted %d, oracle %d", name, limit, res.Total, want)
			}
			survived++
			tightest = res
		}
		if survived < 3 {
			t.Fatalf("%s: only %d budgets of the ladder are survivable; the test needs more", name, survived)
		}
		if tightest.VerifyEdges == 0 {
			t.Errorf("%s at its tightest budget asked nothing of verifyE (%d lists pulled)", name, tightest.PulledLists)
		}
	}
}

// tallying sums the counters of the RunQueryResponses that cross it and
// switches stealing off in the requests (see noStealing).
type tallying struct {
	noStealing
	mu  sync.Mutex
	sum Counters
}

func (c *tallying) Call(from, to int, req cluster.Message) (cluster.Message, error) {
	resp, err := c.noStealing.Call(from, to, req)
	if r, ok := resp.(*RunQueryResponse); ok {
		c.mu.Lock()
		c.sum.merge(&r.Counters)
		c.mu.Unlock()
	}
	return resp, err
}

// TestPullTalliesCrossTheWire: a loopback-TCP fleet makes the same
// choices as the in-process run, reports them in RunQueryResponse and
// publishes them in the workers' registry.
func TestPullTalliesCrossTheWire(t *testing.T) {
	g := gen.PowerLaw(400, 8, 2.7, 100, 67)
	part := partition.KWay(g, 3, 7)
	q := pattern.ByName("q4")
	local, err := Run(part, q, Config{Workers: 1, DisableLoadBalancing: true})
	if err != nil {
		t.Fatal(err)
	}
	if local.VerifyEdges == 0 || local.PulledLists == 0 || local.PulledEdges == 0 {
		t.Fatalf("in-process run: %d edges asked, %d lists pulled for %d edges; want all three", local.VerifyEdges, local.PulledLists, local.PulledEdges)
	}

	reg := obs.NewRegistry()
	wire := &tallying{noStealing: noStealing{loopbackFleet(t, part, MachineOptions{Obs: reg})}}
	ce := NewClusterEngine(wire, part.M)
	remote, err := ce.Run(context.Background(), eng.Request{
		Part: part, Pattern: q, Workers: 1, Metrics: cluster.NewMetrics(part.M),
	})
	if err != nil {
		t.Fatal(err)
	}
	if remote.Total != local.Total {
		t.Fatalf("cluster counted %d, in-process %d", remote.Total, local.Total)
	}
	for _, c := range []struct {
		family      string
		wire, local int64
	}{
		{"rads_verify_edges_total", wire.sum.VerifyEdges, local.VerifyEdges},
		{"rads_pulled_lists_total", wire.sum.PulledLists, local.PulledLists},
		{"rads_pulled_edges_total", wire.sum.PulledEdges, local.PulledEdges},
	} {
		if c.wire != c.local {
			t.Errorf("%s: responses carry %d, in-process run %d", c.family, c.wire, c.local)
		}
		if got := reg.Counter(c.family, "").Value(); got != c.local {
			t.Errorf("%s: worker registry reads %d, in-process run %d", c.family, got, c.local)
		}
	}
}
