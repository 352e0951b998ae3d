package rads

import (
	"testing"

	"rads/internal/cluster"
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
