package rads_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"rads/internal/cluster"
	"rads/internal/engine"
	"rads/internal/gen"
	"rads/internal/localenum"
	"rads/internal/partition"
	"rads/internal/pattern"
	"rads/internal/rads"
)

// flakyTransport fails every call while its switch is on — the
// controllable stand-in for a worker outage, unlike FaultyTransport's
// one-way counters.
type flakyTransport struct {
	cluster.Transport
	fail atomic.Bool
}

var errFlaky = errors.New("flaky: injected outage")

func (f *flakyTransport) Call(from, to int, req cluster.Message) (cluster.Message, error) {
	if f.fail.Load() {
		return nil, errFlaky
	}
	return f.Transport.Call(from, to, req)
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestClusterEngineRunQueryFailsOnceNoRetry: a transient runQuery
// dispatch failure must fail the query exactly once — runQuery is not
// idempotent, so even a retry transport with attempts to spare must
// not re-run it. The fault clears afterwards, so the next query
// succeeding proves the failure was genuinely transient (a retry
// WOULD have succeeded, which is exactly why the classification must
// forbid it).
func TestClusterEngineRunQueryFailsOnceNoRetry(t *testing.T) {
	g := gen.Community(3, 14, 0.35, 91)
	part := partition.KWay(g, 3, 7)
	var faulty *cluster.FaultyTransport
	ce := hostClusterWrapped(t, part, nil, func(tr cluster.Transport) cluster.Transport {
		faulty = &cluster.FaultyTransport{Inner: tr, FailKind: "runQuery", FailCount: 1}
		return cluster.NewRetryTransport(faulty, cluster.RetryPolicy{
			MaxAttempts: 4,
			BaseBackoff: time.Millisecond,
			OnRetry: func(kind string) {
				if kind == "runQuery" {
					t.Error("runQuery was retried")
				}
			},
		})
	})

	q := pattern.Triangle()
	_, err := ce.Run(context.Background(), engine.Request{Part: part, Pattern: q, Metrics: cluster.NewMetrics(part.M)})
	if !errors.Is(err, rads.ErrWorkerDown) {
		t.Fatalf("err = %v, want ErrWorkerDown (transport-level dispatch failure)", err)
	}
	var wde *rads.WorkerDownError
	if !errors.As(err, &wde) {
		t.Fatalf("err %v does not carry *WorkerDownError", err)
	}
	if wde.Machine < 0 || wde.Machine >= part.M {
		t.Errorf("WorkerDownError names machine %d of %d", wde.Machine, part.M)
	}
	if faulty.Failures() != 1 {
		t.Errorf("injected failures = %d, want exactly 1", faulty.Failures())
	}

	// Fault exhausted: the very next query succeeds with oracle counts
	// — no coordinator restart, no lingering poisoned state.
	want := localenum.Count(g, q, localenum.Options{})
	res, err := ce.Run(context.Background(), engine.Request{Part: part, Pattern: q, Metrics: cluster.NewMetrics(part.M)})
	if err != nil {
		t.Fatalf("query after fault cleared: %v", err)
	}
	if res.Total != want {
		t.Errorf("counted %d, oracle %d", res.Total, want)
	}
}

// TestClusterEngineRetryRecoversFetchV: transient fetchV failures on
// the worker data plane recover through the retry transport and the
// query still produces oracle-correct counts — retries never change
// results.
func TestClusterEngineRetryRecoversFetchV(t *testing.T) {
	g := gen.Community(4, 16, 0.3, 77)
	part := partition.KWay(g, 4, 7)
	var retried atomic.Int64
	ce := hostClusterWrapped(t, part, func(tr cluster.Transport) cluster.Transport {
		faulty := &cluster.FaultyTransport{Inner: tr, FailKind: "fetchV", FailCount: 2}
		return cluster.NewRetryTransport(faulty, cluster.RetryPolicy{
			MaxAttempts: 4,
			BaseBackoff: time.Millisecond,
			OnRetry:     func(string) { retried.Add(1) },
		})
	}, nil)

	for _, q := range []*pattern.Pattern{pattern.Triangle(), pattern.ByName("q1")} {
		want := localenum.Count(g, q, localenum.Options{})
		res, err := ce.Run(context.Background(), engine.Request{Part: part, Pattern: q, Metrics: cluster.NewMetrics(part.M)})
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if res.Total != want {
			t.Errorf("%s: counted %d with injected fetchV faults, oracle %d", q.Name, res.Total, want)
		}
	}
	if retried.Load() == 0 {
		t.Error("no retries recorded — the injected fetchV faults were never hit")
	}
}

// TestClusterEngineHealthGateAndRecovery drives the full breaker
// lifecycle: heartbeats open the breakers during an outage, queries
// fail fast with the typed error (no dispatch attempted), and once the
// outage clears the half-open probes close the breakers and queries
// flow again.
func TestClusterEngineHealthGateAndRecovery(t *testing.T) {
	g := gen.Community(3, 14, 0.35, 41)
	part := partition.KWay(g, 3, 7)
	var flaky *flakyTransport
	ce := hostClusterWrapped(t, part, nil, func(tr cluster.Transport) cluster.Transport {
		flaky = &flakyTransport{Transport: tr}
		return flaky
	})
	var downs, ups atomic.Int64
	ce.StartHealth(rads.HealthOptions{
		Interval:         10 * time.Millisecond,
		FailureThreshold: 2,
		Cooldown:         30 * time.Millisecond,
		OnTransition: func(_ int, up bool) {
			if up {
				ups.Add(1)
			} else {
				downs.Add(1)
			}
		},
	})
	defer ce.Close()
	if !ce.Healthy() {
		t.Fatal("cluster must start healthy")
	}

	flaky.fail.Store(true)
	waitFor(t, "breakers to open", func() bool { return !ce.Healthy() })
	if downs.Load() == 0 {
		t.Error("no down transitions observed")
	}

	// Gated: the typed error comes back without touching the workers.
	q := pattern.Triangle()
	_, err := ce.Run(context.Background(), engine.Request{Part: part, Pattern: q, Metrics: cluster.NewMetrics(part.M)})
	if !errors.Is(err, rads.ErrWorkerDown) {
		t.Fatalf("gated query err = %v, want ErrWorkerDown", err)
	}
	report := ce.HealthReport()
	if report.Healthy {
		t.Error("report claims healthy during outage")
	}
	var openSeen bool
	for _, w := range report.Workers {
		if !w.Up && (w.Breaker == "open" || w.Breaker == "half-open") {
			openSeen = true
		}
	}
	if !openSeen {
		t.Errorf("report shows no open breaker during outage: %+v", report.Workers)
	}

	// Outage ends: half-open probes close the breakers, queries flow.
	flaky.fail.Store(false)
	waitFor(t, "breakers to close", ce.Healthy)
	if ups.Load() == 0 {
		t.Error("no up transitions observed")
	}
	want := localenum.Count(g, q, localenum.Options{})
	res, err := ce.Run(context.Background(), engine.Request{Part: part, Pattern: q, Metrics: cluster.NewMetrics(part.M)})
	if err != nil {
		t.Fatalf("query after recovery: %v", err)
	}
	if res.Total != want {
		t.Errorf("counted %d after recovery, oracle %d", res.Total, want)
	}
}

// TestClusterEngineFallbackServesWhileDegraded: with the fallback leg
// enabled (radserve -cluster-fallback), queries run in-process during an
// outage and on the cluster again after recovery — correct counts
// throughout.
func TestClusterEngineFallbackServesWhileDegraded(t *testing.T) {
	g := gen.Community(3, 14, 0.35, 67)
	part := partition.KWay(g, 3, 7)
	var flaky *flakyTransport
	ce := hostClusterWrapped(t, part, nil, func(tr cluster.Transport) cluster.Transport {
		flaky = &flakyTransport{Transport: tr}
		return flaky
	})
	ce.StartHealth(rads.HealthOptions{
		Interval:         10 * time.Millisecond,
		FailureThreshold: 2,
		Cooldown:         30 * time.Millisecond,
	})
	defer ce.Close()
	ce.EnableFallback()

	q := pattern.Triangle()
	want := localenum.Count(g, q, localenum.Options{})
	run := func(label string) {
		t.Helper()
		res, err := ce.Run(context.Background(), engine.Request{Part: part, Pattern: q, Metrics: cluster.NewMetrics(part.M)})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if res.Total != want {
			t.Errorf("%s: counted %d, oracle %d", label, res.Total, want)
		}
	}

	run("healthy cluster")
	if ce.FallbackActive() {
		t.Error("fallback active while healthy")
	}

	flaky.fail.Store(true)
	waitFor(t, "breakers to open", func() bool { return !ce.Healthy() })
	run("degraded (local leg)")
	if !ce.FallbackActive() {
		t.Error("fallback not active during outage")
	}
	if rep := ce.HealthReport(); !rep.FallbackActive || rep.Healthy {
		t.Errorf("degraded report: %+v", rep)
	}

	flaky.fail.Store(false)
	waitFor(t, "breakers to close", ce.Healthy)
	run("recovered cluster")
	if rep := ce.HealthReport(); rep.FallbackActive || !rep.Healthy {
		t.Errorf("recovered report: %+v", rep)
	}
}
