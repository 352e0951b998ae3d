package rads_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"rads/internal/cluster"
	"rads/internal/engine"
	"rads/internal/gen"
	"rads/internal/graph"
	"rads/internal/localenum"
	"rads/internal/partition"
	"rads/internal/pattern"
	"rads/internal/plan"
	"rads/internal/rads"
	"rads/internal/snapshot"
)

// hostCluster builds the full multi-process topology inside one test
// binary: the partition is snapshotted to disk, every machine daemon
// is constructed from its own snapshot shard on a graph of its owned
// rows only (ownedRowsShard), daemons are spread over two TCP servers
// the way two radsworker processes would host them, and a coordinator
// client fronts the lot.
func hostCluster(t *testing.T, part *partition.Partition) *rads.ClusterEngine {
	t.Helper()
	return hostClusterWrapped(t, part, nil, nil)
}

// hostClusterWrapped is hostCluster with transport interception:
// wrapWorker decorates each worker daemon's outgoing client (the
// verifyE/fetchV/checkR/shareR data plane), wrapCoord the
// coordinator's (ping/runQuery control plane). Either may be nil. The
// fault and health tests stack FaultyTransport/RetryTransport here.
func hostClusterWrapped(t *testing.T, part *partition.Partition,
	wrapWorker, wrapCoord func(cluster.Transport) cluster.Transport) *rads.ClusterEngine {
	t.Helper()
	dir := t.TempDir()
	if err := snapshot.Write(dir, part, "test", nil); err != nil {
		t.Fatal(err)
	}

	srvA, err := cluster.NewTCPServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srvA.Close() })
	srvB, err := cluster.NewTCPServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srvB.Close() })

	spec := cluster.ClusterSpec{}
	for id := 0; id < part.M; id++ {
		if id%2 == 0 {
			spec.Machines = append(spec.Machines, srvA.Addr())
		} else {
			spec.Machines = append(spec.Machines, srvB.Addr())
		}
	}
	for id := 0; id < part.M; id++ {
		shard, man := ownedRowsShard(t, dir, id)
		metrics := cluster.NewMetrics(part.M)
		var client cluster.Transport = cluster.NewTCPClient(spec, metrics)
		if wrapWorker != nil {
			client = wrapWorker(client)
		}
		t.Cleanup(func() { client.Close() })
		d := rads.NewMachine(id, shard, client, rads.MachineOptions{
			AvgDegree: man.AvgDegree,
			Workers:   2,
			Metrics:   metrics,
		})
		if id%2 == 0 {
			srvA.Register(id, d.Handle)
		} else {
			srvB.Register(id, d.Handle)
		}
	}

	var coord cluster.Transport = cluster.NewTCPClient(spec, nil)
	if wrapCoord != nil {
		coord = wrapCoord(coord)
	}
	t.Cleanup(func() { coord.Close() })
	ce := rads.NewClusterEngine(coord, part.M)
	// WaitReady also proves every shard-hosted daemon fingerprints
	// identically to the coordinator's full partition.
	if err := ce.WaitReady(part, 0); err != nil {
		t.Fatal(err)
	}
	return ce
}

// ownedRowsShard opens machine id's shard from the snapshot in dir and
// rehosts it on its owned rows only (rads.OwnedRows), so the cluster
// tests fail on any foreign read.
func ownedRowsShard(t *testing.T, dir string, id int) (*partition.Partition, snapshot.Manifest) {
	t.Helper()
	parts, man, err := snapshot.OpenShards(dir, []int{id})
	if err != nil {
		t.Fatal(err)
	}
	return rads.OwnedRows(t, parts[0], id), man
}

// TestClusterEngineMatchesOracle is the heart of the multi-process
// deployment: machines hosted from snapshot shards, talking over real
// TCP, must count exactly what the single-machine oracle counts.
func TestClusterEngineMatchesOracle(t *testing.T) {
	g := gen.Community(4, 16, 0.3, 77)
	part := partition.KWay(g, 4, 7)
	ce := hostCluster(t, part)

	for _, q := range []*pattern.Pattern{pattern.Triangle(), pattern.ByName("q1"), pattern.ByName("q4")} {
		want := localenum.Count(g, q, localenum.Options{})
		res, err := ce.Run(context.Background(), engine.Request{Part: part, Pattern: q, Metrics: cluster.NewMetrics(part.M)})
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if res.Total != want {
			t.Errorf("%s: cluster counted %d, oracle %d", q.Name, res.Total, want)
		}
		if res.TreeNodes <= 0 {
			t.Errorf("%s: no tree nodes reported", q.Name)
		}

		// Prepared-plan path: the coordinator ships the artifact's plan.
		art, err := ce.Prepare(part, q)
		if err != nil {
			t.Fatal(err)
		}
		res2, err := ce.Run(context.Background(), engine.Request{Part: part, Pattern: q, Artifact: art})
		if err != nil {
			t.Fatalf("%s (prepared): %v", q.Name, err)
		}
		if res2.Total != want {
			t.Errorf("%s (prepared): %d, want %d", q.Name, res2.Total, want)
		}
	}
}

// TestForgedPlanRefusedOverTCP: a worker builds the plan it is sent
// from the unit sequence, so a forged sequence is refused with an error
// naming the plan — not a panic that would end the worker process —
// and the same worker keeps answering pings and counting correctly.
func TestForgedPlanRefusedOverTCP(t *testing.T) {
	g := gen.Community(4, 16, 0.3, 77)
	part := partition.KWay(g, 4, 7)
	var coord cluster.Transport
	ce := hostClusterWrapped(t, part, nil, func(tr cluster.Transport) cluster.Transport {
		coord = tr
		return tr
	})
	q1 := pattern.ByName("q1")
	q4, err := plan.Compute(pattern.ByName("q4"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		name  string
		p     *pattern.Pattern
		units []plan.Unit
	}{
		{"pivot 42", q1, []plan.Unit{{Piv: 42, LF: []pattern.VertexID{1, 3}}}},
		{"repeated leaf", pattern.ByName("cq1"), []plan.Unit{{Piv: 0, LF: []pattern.VertexID{1, 2, 3, 1}}}},
		{"q4's units under q1", q1, q4.Units},
		{"no units", q1, nil},
	} {
		_, err := coord.Call(cluster.Coordinator, 0, &rads.RunQueryRequest{
			Pattern: pattern.Format(f.p), Units: f.units, Constraints: f.p.SymmetryBreaking(), Workers: 1,
		})
		if !errors.Is(err, cluster.ErrRemote) || !strings.Contains(err.Error(), "plan") {
			t.Errorf("%s: err = %v, want a remote error naming the plan", f.name, err)
		}
	}
	if resp, err := coord.Call(cluster.Coordinator, 0, &cluster.PingRequest{}); err != nil {
		t.Fatalf("ping after the forged plans: %v", err)
	} else if pr, ok := resp.(*cluster.PingResponse); !ok || pr.Machine != 0 {
		t.Fatalf("ping after the forged plans answered %+v", resp)
	}
	want := localenum.Count(g, q1, localenum.Options{})
	res, err := ce.Run(context.Background(), engine.Request{Part: part, Pattern: q1, Metrics: cluster.NewMetrics(part.M)})
	if err != nil || res.Total != want {
		t.Fatalf("q1 after the forged plans: %d, %v; oracle %d", res.Total, err, want)
	}
}

// TestClusterEngineCommAccounting: worker-side communication folds
// back into the coordinator's per-query metrics.
func TestClusterEngineCommAccounting(t *testing.T) {
	g := gen.Community(3, 14, 0.35, 31)
	part := partition.KWay(g, 3, 7)
	ce := hostCluster(t, part)

	metrics := cluster.NewMetrics(part.M)
	q := pattern.ByName("q1")
	res, err := ce.Run(context.Background(), engine.Request{Part: part, Pattern: q, Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total == 0 {
		t.Fatal("no embeddings; graph too sparse for the test")
	}
	if metrics.TotalBytes() == 0 {
		t.Error("no remote communication folded into coordinator metrics")
	}
}

// TestClusterEngineOOM: a hopeless per-machine budget surfaces as
// Result.OOM at the coordinator, not as an error.
func TestClusterEngineOOM(t *testing.T) {
	g := gen.Community(3, 16, 0.4, 53)
	part := partition.KWay(g, 3, 7)
	ce := hostCluster(t, part)

	q := pattern.ByName("q4")
	budget := cluster.NewMemBudget(part.M, 1<<10)
	res, err := ce.Run(context.Background(), engine.Request{Part: part, Pattern: q, Budget: budget})
	if err != nil {
		t.Fatalf("budget death leaked as error: %v", err)
	}
	want := localenum.Count(g, q, localenum.Options{})
	if !res.OOM && res.Total != want {
		t.Errorf("finished under budget but counted %d, oracle %d", res.Total, want)
	}
}

// TestClusterEngineRejectsStreaming: the remote deployment declares no
// streaming; requests carrying OnEmbedding fail with ErrUnsupported.
func TestClusterEngineRejectsStreaming(t *testing.T) {
	g := gen.Community(2, 10, 0.4, 11)
	part := partition.KWay(g, 2, 7)
	ce := hostCluster(t, part)
	_, err := ce.Run(context.Background(), engine.Request{
		Part: part, Pattern: pattern.Triangle(),
		OnEmbedding: func(int, []graph.VertexID) {},
	})
	if err == nil {
		t.Fatal("streaming request accepted")
	}
}
