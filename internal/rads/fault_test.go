package rads

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rads/internal/cluster"
	"rads/internal/gen"
	"rads/internal/localenum"
	"rads/internal/partition"
	"rads/internal/pattern"
)

// faultTransport wraps a LocalTransport and fails requests of one kind
// after a countdown — network failure injection for the engine.
type faultTransport struct {
	inner *cluster.LocalTransport
	kind  string
	after atomic.Int64
	err   error
}

func (f *faultTransport) Register(id int, h cluster.Handler) { f.inner.Register(id, h) }

func (f *faultTransport) Call(from, to int, req cluster.Message) (cluster.Message, error) {
	if cluster.Kind(req) == f.kind && f.after.Add(-1) < 0 {
		return nil, f.err
	}
	return f.inner.Call(from, to, req)
}

func (f *faultTransport) Close() error { return f.inner.Close() }

func TestTransportFaultsAbortCleanly(t *testing.T) {
	g := gen.Community(4, 10, 0.4, 51)
	part := partition.KWay(g, 3, 99)
	q := pattern.ByName("q4")
	wantErr := errors.New("network down")

	// Latency alone is not a fault: a slow network leaves the count
	// the oracle's.
	slow := &cluster.FaultyTransport{Inner: cluster.NewLocalTransport(nil), Latency: 200 * time.Microsecond}
	res, err := Run(part, q, Config{Transport: slow, DisableSME: true})
	if err != nil {
		t.Fatalf("latency only: %v", err)
	}
	if want := localenum.Count(g, q, localenum.Options{}); res.Total != want || slow.Calls() == 0 {
		t.Errorf("latency only: Total = %d over %d delayed calls, want %d over some", res.Total, slow.Calls(), want)
	}
	slow.Close()

	for _, kind := range []string{"fetchV", "verifyE"} {
		ft := &faultTransport{
			inner: cluster.NewLocalTransport(nil),
			kind:  kind,
			err:   wantErr,
		}
		// DisableSME forces distributed traffic so the fault triggers.
		_, err := Run(part, q, Config{Transport: ft, DisableSME: true})
		if err == nil {
			t.Fatalf("%s fault: Run succeeded, want error", kind)
		}
		if !errors.Is(err, ErrAborted) {
			t.Errorf("%s fault: err = %v, want wrapped ErrAborted", kind, err)
		}
		if !strings.Contains(err.Error(), "network down") {
			t.Errorf("%s fault: err = %v, want cause preserved", kind, err)
		}
		ft.Close()
	}
}

func TestTransportFaultAfterSomeTrafficStillAborts(t *testing.T) {
	g := gen.Community(4, 10, 0.4, 53)
	part := partition.KWay(g, 3, 99)
	q := pattern.ByName("q4")
	ft := &faultTransport{
		inner: cluster.NewLocalTransport(nil),
		kind:  "fetchV",
		err:   errors.New("flaky"),
	}
	ft.after.Store(2) // let two fetches through first
	defer ft.Close()
	if _, err := Run(part, q, Config{Transport: ft, DisableSME: true}); err == nil {
		t.Fatal("Run succeeded despite mid-run fault")
	}
}

func TestCheckRFaultAbortsLoadBalancing(t *testing.T) {
	g := gen.Community(4, 10, 0.4, 55)
	part := partition.KWay(g, 3, 99)
	q := pattern.ByName("q2")
	ft := &faultTransport{
		inner: cluster.NewLocalTransport(nil),
		kind:  "checkR",
		err:   errors.New("peer gone"),
	}
	defer ft.Close()
	_, err := Run(part, q, Config{Transport: ft, DisableSME: true})
	if err == nil {
		t.Fatal("Run succeeded despite checkR fault")
	}
	// With load balancing off, checkR is never sent: the run succeeds.
	ft2 := &faultTransport{
		inner: cluster.NewLocalTransport(nil),
		kind:  "checkR",
		err:   errors.New("peer gone"),
	}
	defer ft2.Close()
	if _, err := Run(part, q, Config{Transport: ft2, DisableSME: true, DisableLoadBalancing: true}); err != nil {
		t.Fatalf("no-balancing run failed: %v", err)
	}
}
