package rads_test

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"rads/internal/cluster"
	"rads/internal/engine"
	"rads/internal/gen"
	"rads/internal/localenum"
	"rads/internal/obs"
	"rads/internal/partition"
	"rads/internal/pattern"
	"rads/internal/rads"
	"rads/internal/snapshot"
)

// TestProfileAccountsWallTime is the tentpole acceptance check: a
// completed RADS query's profile must account at least 90% of its
// wall time across top-level phase spans.
func TestProfileAccountsWallTime(t *testing.T) {
	g := gen.Community(4, 24, 0.3, 99)
	part := partition.KWay(g, 4, 7)
	e, _ := engine.Lookup("RADS")

	q := pattern.ByName("q4")
	res, err := e.Run(context.Background(), engine.Request{
		Part: part, Pattern: q, Metrics: cluster.NewMetrics(part.M),
	})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Profile
	if p == nil {
		t.Fatal("RADS run returned no profile")
	}
	if frac := p.AccountedFraction(); frac < 0.9 {
		t.Errorf("phases account for %.1f%% of wall time, want >= 90%% (phases: %+v, wall %.4fs)",
			frac*100, p.Phases, p.WallSeconds)
	}
	if p.Phase("execute") <= 0 {
		t.Error("no execute phase recorded")
	}
	if len(p.Machines) != part.M {
		t.Errorf("profile has %d machine stats, want %d", len(p.Machines), part.M)
	}
	var nodes int64
	for _, m := range p.Machines {
		nodes += m.TreeNodes
	}
	if nodes != res.TreeNodes {
		t.Errorf("machine tree nodes sum to %d, result says %d", nodes, res.TreeNodes)
	}
}

// TestProfileSubPhasesRecorded: the drill-down sub-phases of a
// distributed run (SM-E, grouping, per-group rounds) appear in the
// profile, attributed to machines.
func TestProfileSubPhasesRecorded(t *testing.T) {
	g := gen.Community(3, 20, 0.35, 41)
	part := partition.KWay(g, 3, 7)
	e, _ := engine.Lookup("RADS")

	res, err := e.Run(context.Background(), engine.Request{
		Part: part, Pattern: pattern.ByName("q1"), Metrics: cluster.NewMetrics(part.M),
	})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Profile
	for _, name := range []string{"execute/machine", "execute/sme", "execute/group"} {
		if p.Phase(name) <= 0 {
			t.Errorf("sub-phase %s missing from profile (phases: %+v)", name, p.Phases)
		}
	}
	// Sub-phases must not leak into the tiling fraction.
	var top float64
	for _, ph := range p.Phases {
		if !strings.Contains(ph.Name, "/") {
			top += ph.Seconds
		}
	}
	if top > p.WallSeconds*1.05 {
		t.Errorf("top-level phases sum to %.4fs > wall %.4fs: tiling broken", top, p.WallSeconds)
	}
}

// hostObservedCluster is hostCluster with a metrics registry on every
// worker-side daemon, returning the registry alongside the engine.
func hostObservedCluster(t *testing.T, part *partition.Partition) (*rads.ClusterEngine, *obs.Registry) {
	t.Helper()
	dir := t.TempDir()
	if err := snapshot.Write(dir, part, "test", nil); err != nil {
		t.Fatal(err)
	}
	srv, err := cluster.NewTCPServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	reg := obs.NewRegistry()
	handleLatency := reg.HistogramVec("rads_handle_seconds",
		"Daemon request handling latency by message kind.", "kind", nil)
	srv.SetObserver(func(kind string, seconds float64) {
		handleLatency.With(kind).Observe(seconds)
	})

	spec := cluster.ClusterSpec{}
	for id := 0; id < part.M; id++ {
		spec.Machines = append(spec.Machines, srv.Addr())
	}
	for id := 0; id < part.M; id++ {
		shard, man := ownedRowsShard(t, dir, id)
		metrics := cluster.NewMetrics(part.M)
		client := cluster.NewTCPClient(spec, metrics)
		t.Cleanup(func() { client.Close() })
		d := rads.NewMachine(id, shard, client, rads.MachineOptions{
			AvgDegree: man.AvgDegree,
			Workers:   2,
			Metrics:   metrics,
			Obs:       reg,
		})
		srv.Register(id, d.Handle)
	}

	coord := cluster.NewTCPClient(spec, nil)
	t.Cleanup(func() { coord.Close() })
	ce := rads.NewClusterEngine(coord, part.M)
	if err := ce.WaitReady(part, 0); err != nil {
		t.Fatal(err)
	}
	return ce, reg
}

// TestClusterQueryObservability runs a cluster query end to end and
// asserts the worker-side registry families are non-empty and the
// coordinator profile folds the workers' phases and machine stats.
func TestClusterQueryObservability(t *testing.T) {
	g := gen.Community(3, 18, 0.35, 67)
	part := partition.KWay(g, 3, 7)
	ce, reg := hostObservedCluster(t, part)

	q := pattern.ByName("q1")
	res, err := ce.Run(context.Background(), engine.Request{
		Part: part, Pattern: q, Metrics: cluster.NewMetrics(part.M),
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := localenum.Count(g, q, localenum.Options{}); res.Total != want {
		t.Fatalf("counted %d, oracle %d", res.Total, want)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	expo := b.String()
	for _, line := range []string{
		`rads_query_seconds_count{engine="RADS"} 3`, // one per machine daemon
		"rads_admission_wait_seconds_count 3",
		`rads_queries_total{outcome="ok"} 3`,
		`rads_handle_seconds_count{kind="runQuery"} 3`,
	} {
		if !strings.Contains(expo, line) {
			t.Errorf("worker exposition missing %q:\n%s", line, expo)
		}
	}
	// Tree nodes flowed into the counter exactly once per machine.
	if !strings.Contains(expo, "rads_tree_nodes_total "+strconv.FormatInt(res.TreeNodes, 10)) {
		t.Errorf("rads_tree_nodes_total does not match result tree nodes %d:\n%s", res.TreeNodes, expo)
	}

	p := res.Profile
	if p == nil {
		t.Fatal("cluster run returned no profile")
	}
	if frac := p.AccountedFraction(); frac < 0.9 {
		t.Errorf("cluster profile accounts %.1f%% of wall, want >= 90%% (phases: %+v)", frac*100, p.Phases)
	}
	if len(p.Machines) != part.M {
		t.Errorf("profile has %d machine stats, want %d", len(p.Machines), part.M)
	}
	if p.Phase("execute/machine") <= 0 {
		t.Errorf("worker phase aggregates not folded into coordinator profile (phases: %+v)", p.Phases)
	}
}
