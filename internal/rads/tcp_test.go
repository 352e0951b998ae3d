package rads

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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
	res, err := runSegmented(part, q, Config{
		Transport: tr,
		Budget:    budget,
	}, 682)
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

// reconstrained rewrites the symmetry-breaking constraints of every
// query the coordinator dispatches.
type reconstrained struct {
	cluster.Transport
	rewrite func([]pattern.OrderConstraint) []pattern.OrderConstraint
}

func (r reconstrained) Call(from, to int, req cluster.Message) (cluster.Message, error) {
	if q, ok := req.(*RunQueryRequest); ok {
		re := *q
		re.Constraints = r.rewrite(q.Constraints)
		req = &re
	}
	return r.Transport.Call(from, to, req)
}

// otherContract answers machine 1's pings as a worker built to another
// wire contract would — from the start, or once swapped is set: with
// the next contract number or, pre-contract, with a reply the decoder
// refuses (a 24-byte ping reply where 32 belong).
type otherContract struct {
	cluster.Transport
	swapped   *atomic.Bool
	malformed bool
}

func (o otherContract) Call(from, to int, req cluster.Message) (cluster.Message, error) {
	_, ping := req.(*cluster.PingRequest)
	if !ping || to != 1 || o.swapped != nil && !o.swapped.Load() {
		return o.Transport.Call(from, to, req)
	}
	if o.malformed {
		return nil, fmt.Errorf("cluster: receive from 1: %w: kind ping: 24 bytes, want 32", cluster.ErrMalformed)
	}
	resp, err := o.Transport.Call(from, to, req)
	if pr, ok := resp.(*cluster.PingResponse); ok {
		other := *pr
		other.Contract++
		resp = &other
	}
	return resp, err
}

// TestWaitReadyRefusesOtherContract: a fleet joins when every worker's
// ping, over TCP, reports this build's wire contract, and is refused by
// name when one reports another — with a partition to compare and
// without — or sends a reply the decoder refuses, well before the
// deadline.
func TestWaitReadyRefusesOtherContract(t *testing.T) {
	part := partition.KWay(gen.Community(3, 12, 0.3, 5), 3, 7)
	fleet := loopbackFleet(t, part, MachineOptions{Workers: 1})
	if err := NewClusterEngine(fleet, part.M).WaitReady(part, time.Second); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*partition.Partition{part, nil} {
		err := NewClusterEngine(otherContract{fleet, nil, false}, part.M).WaitReady(p, time.Second)
		if err == nil || !strings.Contains(err.Error(), "machine 1 speaks wire contract") {
			t.Errorf("partition %v: err = %v, want machine 1 refused for its wire contract", p != nil, err)
		}
	}
	began := time.Now()
	err := NewClusterEngine(otherContract{fleet, nil, true}, part.M).WaitReady(part, time.Minute)
	if !errors.Is(err, cluster.ErrMalformed) || !strings.Contains(err.Error(), "ping 1") {
		t.Errorf("pre-contract worker: err = %v, want machine 1 refused for a malformed reply", err)
	}
	if waited := time.Since(began); waited > 10*time.Second {
		t.Errorf("pre-contract worker refused after %v, want at once", waited)
	}
}

// TestHeartbeatRefusesOtherContract: a worker that joined and later
// answers pings with another wire contract, or with a reply the decoder
// refuses — restarted from another build while the ingress runs — is
// marked down by the next heartbeat, not after a streak of failures,
// and queries are refused naming it instead of being dispatched to it.
// Answering with this build's contract again brings it back.
func TestHeartbeatRefusesOtherContract(t *testing.T) {
	part := partition.KWay(gen.Community(3, 12, 0.3, 5), 3, 7)
	fleet := loopbackFleet(t, part, MachineOptions{Workers: 1})
	q := pattern.Triangle()
	want := localenum.Count(part.G, q, localenum.Options{})
	until := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	for _, malformed := range []bool{false, true} {
		var swapped atomic.Bool
		ce := NewClusterEngine(otherContract{fleet, &swapped, malformed}, part.M)
		if err := ce.WaitReady(part, time.Second); err != nil {
			t.Fatal(err)
		}
		// A threshold no run reaches: only a refusal opens a breaker.
		ce.StartHealth(HealthOptions{Interval: 10 * time.Millisecond, FailureThreshold: 1 << 20})
		run := func() (eng.Result, error) {
			return ce.Run(context.Background(), eng.Request{Part: part, Pattern: q, Workers: 1})
		}

		if res, err := run(); err != nil || res.Total != want {
			t.Fatalf("malformed %v: joined fleet: total %d, err %v; oracle %d", malformed, res.Total, err, want)
		}
		swapped.Store(true)
		until("machine 1 to be refused", func() bool { return !ce.Healthy() })
		for _, w := range ce.HealthReport().Workers {
			if w.Up != (w.Machine != 1) {
				t.Errorf("malformed %v: worker %d up = %v after machine 1 changed its contract", malformed, w.Machine, w.Up)
			}
		}
		var down *WorkerDownError
		if _, err := run(); !errors.As(err, &down) || down.Machine != 1 {
			t.Errorf("malformed %v: query on a fleet with a refused worker: err = %v, want machine 1 down", malformed, err)
		}
		swapped.Store(false)
		until("machine 1 to be readmitted", ce.Healthy)
		if res, err := run(); err != nil || res.Total != want {
			t.Errorf("malformed %v: readmitted fleet: total %d, err %v; oracle %d", malformed, res.Total, err, want)
		}
		ce.Close()
	}
}

// TestFleetEnumeratesUnderShippedConstraints: workers enumerate under
// the constraints the coordinator ships, not their own. Fed the mirrored
// set — every constraint reversed, the opposite but equally valid
// convention — the fleet still counts the oracle's total, with other
// work than under the coordinator's own set. A request that carries no
// constraints for a symmetric pattern, or one naming a vertex the
// pattern lacks, is refused.
func TestFleetEnumeratesUnderShippedConstraints(t *testing.T) {
	part := partition.KWay(ingestedTwin(t, gen.PowerLaw(400, 8, 2.7, 100, 67), true), 3, 7)
	fleet := noStealing{loopbackFleet(t, part, MachineOptions{Workers: 1})}
	q := pattern.ByName("q1")
	want := localenum.Count(part.G, q, localenum.Options{})
	run := func(tr cluster.Transport) (eng.Result, error) {
		return NewClusterEngine(tr, part.M).Run(context.Background(), eng.Request{Part: part, Pattern: q, Workers: 1})
	}

	own, err := run(fleet)
	if err != nil {
		t.Fatal(err)
	}
	mirrored, err := run(reconstrained{fleet, func(cons []pattern.OrderConstraint) []pattern.OrderConstraint {
		out := make([]pattern.OrderConstraint, len(cons))
		for i, c := range cons {
			out[i] = pattern.OrderConstraint{Less: c.Greater, Greater: c.Less}
		}
		return out
	}})
	if err != nil {
		t.Fatal(err)
	}
	if own.Total != want || mirrored.Total != want {
		t.Fatalf("fleet counted %d under the coordinator's constraints, %d under the mirrored ones; oracle %d", own.Total, mirrored.Total, want)
	}
	if own.TreeNodes == mirrored.TreeNodes {
		t.Errorf("mirrored constraints linked the same %d tree nodes: the workers did not enumerate under them", own.TreeNodes)
	}

	for _, tc := range []struct {
		cons []pattern.OrderConstraint
		want string
	}{
		{nil, "no symmetry-breaking constraints"},
		{[]pattern.OrderConstraint{{Less: 0, Greater: 9}}, "not over two distinct vertices"},
	} {
		_, err = run(reconstrained{fleet, func([]pattern.OrderConstraint) []pattern.OrderConstraint { return tc.cons }})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("request with constraints %v: err = %v, want %q", tc.cons, err, tc.want)
		}
	}
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
