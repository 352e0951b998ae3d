package rads

import (
	"context"
	"reflect"
	"testing"

	"rads/internal/cluster"
	eng "rads/internal/engine"
	"rads/internal/gen"
	"rads/internal/localenum"
	"rads/internal/partition"
	"rads/internal/pattern"
)

// TestRunOverTCP runs the full RADS engine with every daemon request
// crossing a real TCP connection (the length-prefixed frames of
// cluster/frame.go: fixed-width data plane, gob control plane), not the
// in-process shortcut. This proves the protocol is genuinely
// serializable and the engine is transport-agnostic.
func TestRunOverTCP(t *testing.T) {
	g := gen.Community(3, 12, 0.35, 61)
	part := partition.KWay(g, 3, 7)
	metrics := cluster.NewMetrics(part.M)
	tr, err := cluster.NewTCPTransport(part.M, metrics)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	for _, q := range []*pattern.Pattern{pattern.Triangle(), pattern.ByName("q4")} {
		want := localenum.Count(g, q, localenum.Options{})
		res, err := Run(part, q, Config{Transport: tr, Metrics: metrics})
		if err != nil {
			t.Fatalf("%s over TCP: %v", q.Name, err)
		}
		if res.Total != want {
			t.Errorf("%s over TCP: %d, oracle %d", q.Name, res.Total, want)
		}
	}
}

// TestRunOverTCPWithPressure exercises the TCP path together with the
// segmented memory control and work stealing.
func TestRunOverTCPWithPressure(t *testing.T) {
	g := gen.PowerLaw(400, 8, 2.7, 100, 67)
	part := partition.KWay(g, 4, 7)
	tr, err := cluster.NewTCPTransport(part.M, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	q := pattern.ByName("q2")
	want := localenum.Count(g, q, localenum.Options{})
	budget := cluster.NewMemBudget(part.M, 8<<20)
	res, err := Run(part, q, Config{
		Transport:      tr,
		Budget:         budget,
		GroupMemTarget: 32 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != want {
		t.Errorf("total %d, oracle %d", res.Total, want)
	}
}

// noStealing switches work stealing off in every query the coordinator
// dispatches: which machine runs a region group decides which adjacency
// lists candidate generation can intersect, so only a run without
// stealing has one right kernel tally.
type noStealing struct{ cluster.Transport }

func (n noStealing) Call(from, to int, req cluster.Message) (cluster.Message, error) {
	if r, ok := req.(*RunQueryRequest); ok {
		pinned := *r
		pinned.DisableLoadBalancing = true
		req = &pinned
	}
	return n.Transport.Call(from, to, req)
}

// loopbackFleet hosts every machine of part behind one TCP server, each
// with its own outgoing client, and returns the coordinator's client.
func loopbackFleet(t *testing.T, part *partition.Partition, opts MachineOptions) cluster.Transport {
	t.Helper()
	srv, err := cluster.NewTCPServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	var spec cluster.ClusterSpec
	for range part.M {
		spec.Machines = append(spec.Machines, srv.Addr())
	}
	for id := range part.M {
		client := cluster.NewTCPClient(spec, nil)
		t.Cleanup(func() { client.Close() })
		srv.Register(id, NewMachine(id, part, client, opts).Handle)
	}
	coord := cluster.NewTCPClient(spec, nil)
	t.Cleanup(func() { coord.Close() })
	return coord
}

// TestClusterProfileCarriesKernels: the machines' kernel tallies cross
// the control plane in RunQueryResponse and fold into the coordinator's
// profile — a cluster-mode query reports exactly the selections of the
// same query run in this process.
func TestClusterProfileCarriesKernels(t *testing.T) {
	g := gen.PowerLaw(400, 8, 2.7, 100, 67)
	part := partition.KWay(g, 3, 7)
	ce := NewClusterEngine(noStealing{loopbackFleet(t, part, MachineOptions{})}, part.M)

	for _, name := range []string{"q2", "q4"} {
		q := pattern.ByName(name)
		local, err := Run(part, q, Config{Workers: 1, DisableLoadBalancing: true})
		if err != nil {
			t.Fatal(err)
		}
		remote, err := ce.Run(context.Background(), eng.Request{
			Part: part, Pattern: q, Workers: 1, Metrics: cluster.NewMetrics(part.M),
		})
		if err != nil {
			t.Fatal(err)
		}
		if remote.Total != local.Total {
			t.Fatalf("%s: cluster counted %d, in-process %d", name, remote.Total, local.Total)
		}
		if local.Kernels.Merge+local.Kernels.Gallop == 0 {
			t.Fatalf("%s: in-process run tallied no intersection: %+v", name, local.Kernels)
		}
		if got, want := remote.Profile.Kernels, local.Kernels.Map(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: cluster profile kernels %v, in-process run %v", name, got, want)
		}
	}
}
