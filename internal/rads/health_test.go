package rads_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
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

// TestClusterEngineHealthGateAndRecovery drives the full liveness
// lifecycle: heartbeats mark the workers down during an outage, queries
// fail fast with the typed error (no dispatch attempted), and once the
// outage clears the heartbeat pings mark them up and queries flow
// again.
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
		if !w.Up {
			openSeen = true
		}
	}
	if !openSeen {
		t.Errorf("report shows no open breaker during outage: %+v", report.Workers)
	}

	// Outage ends: heartbeat pings mark the workers up, queries flow.
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

// sweepTransport sends calls to one machine through a flaky switch and
// counts the heartbeat pings every machine receives.
type sweepTransport struct {
	flakyTransport
	down  int
	pings []atomic.Int64
}

func (s *sweepTransport) Call(from, to int, req cluster.Message) (cluster.Message, error) {
	if _, ok := req.(*cluster.PingRequest); ok {
		s.pings[to].Add(1)
	}
	if to != s.down {
		return s.Transport.Call(from, to, req)
	}
	return s.flakyTransport.Call(from, to, req)
}

// TestLivenessHeartbeatPingsEverySweep: the heartbeat pings a down
// worker on every sweep, so once its outage lifts it is up again within
// two sweeps — no cooldown holds it down. Machine 0 stays up throughout
// and counts the sweeps.
func TestLivenessHeartbeatPingsEverySweep(t *testing.T) {
	g := gen.Community(3, 14, 0.35, 41)
	part := partition.KWay(g, 3, 7)
	var st *sweepTransport
	ce := hostClusterWrapped(t, part, nil, func(tr cluster.Transport) cluster.Transport {
		st = &sweepTransport{flakyTransport: flakyTransport{Transport: tr}, down: 1, pings: make([]atomic.Int64, part.M)}
		return st
	})
	// Machine 0's ping count when machine 1 comes back up.
	backAt := make(chan int64, 1)
	ce.StartHealth(rads.HealthOptions{
		Interval:         10 * time.Millisecond,
		FailureThreshold: 2,
		OnTransition: func(machine int, up bool) {
			if machine == 1 && up {
				select {
				case backAt <- st.pings[0].Load():
				default:
				}
			}
		},
	})
	defer ce.Close()

	st.fail.Store(true)
	waitFor(t, "machine 1 to go down", func() bool { return !ce.Healthy() })
	p0, p1 := st.pings[0].Load(), st.pings[1].Load()
	waitFor(t, "ten more sweeps", func() bool { return st.pings[0].Load() >= p0+10 })
	if d0, d1 := st.pings[0].Load()-p0, st.pings[1].Load()-p1; d1 < d0-1 {
		t.Errorf("down machine 1 pinged %d times in %d sweeps", d1, d0)
	}

	st.fail.Store(false)
	lifted := st.pings[0].Load()
	select {
	case at := <-backAt:
		// The sweep under way when the outage lifted may still have
		// failed machine 1's ping; the next one must bring it back.
		if n := at - lifted; n > 2 {
			t.Errorf("machine 1 came back %d sweeps after its outage lifted, want at most 2", n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("machine 1 never came back")
	}
	if !ce.Healthy() {
		t.Error("cluster not healthy after machine 1 came back")
	}
}

// runQueryTimeouts times out every runQuery call to machine 0 while its
// switch is on, as a coordinator sees a machine that waits on a wedged
// peer past the deadline; every other call, pings included, goes
// through.
type runQueryTimeouts struct{ flakyTransport }

func (r *runQueryTimeouts) Call(from, to int, req cluster.Message) (cluster.Message, error) {
	if _, ok := req.(*rads.RunQueryRequest); ok && to == 0 && r.fail.Load() {
		return nil, fmt.Errorf("cluster: runQuery %d: %w", to, cluster.ErrTimeout)
	}
	return r.Transport.Call(from, to, req)
}

// TestLivenessRunQueryTimeoutLeavesWorkerUp: a runQuery timeout fails
// its query with an error that names machine 0 and wraps the timeout
// but does not call the machine down, and it records no liveness
// outcome, so machine 0, whose pings answer, stays up through
// threshold+1 timed-out queries in a row and serves the next query
// once they stop.
func TestLivenessRunQueryTimeoutLeavesWorkerUp(t *testing.T) {
	g := gen.Community(3, 14, 0.35, 41)
	part := partition.KWay(g, 3, 7)
	var rt *runQueryTimeouts
	ce := hostClusterWrapped(t, part, nil, func(tr cluster.Transport) cluster.Transport {
		rt = &runQueryTimeouts{flakyTransport{Transport: tr}}
		return rt
	})
	const threshold = 2
	var downs atomic.Int64
	ce.StartHealth(rads.HealthOptions{
		Interval:         10 * time.Millisecond,
		FailureThreshold: threshold,
		OnTransition: func(_ int, up bool) {
			if !up {
				downs.Add(1)
			}
		},
	})
	defer ce.Close()

	q := pattern.Triangle()
	rt.fail.Store(true)
	for i := 1; i <= threshold+1; i++ {
		_, err := ce.Run(context.Background(), engine.Request{Part: part, Pattern: q, Metrics: cluster.NewMetrics(part.M)})
		if !errors.Is(err, cluster.ErrTimeout) || errors.Is(err, rads.ErrWorkerDown) ||
			!strings.Contains(err.Error(), "worker 0 timed out") || !rads.Unavailable(err) {
			t.Fatalf("query %d: err = %v, want machine 0's runQuery timeout, not a down worker", i, err)
		}
		if w := ce.HealthReport().Workers[0]; !w.Up || w.Failures != 0 {
			t.Fatalf("after %d runQuery timeouts machine 0 is up %v with %d failures", i, w.Up, w.Failures)
		}
	}
	rt.fail.Store(false)
	want := localenum.Count(g, q, localenum.Options{})
	res, err := ce.Run(context.Background(), engine.Request{Part: part, Pattern: q, Metrics: cluster.NewMetrics(part.M)})
	if err != nil {
		t.Fatalf("query after the timeouts: %v", err)
	}
	if res.Total != want {
		t.Errorf("counted %d, oracle %d", res.Total, want)
	}
	if downs.Load() != 0 || !ce.Healthy() {
		t.Errorf("%d down transitions, healthy %v: a runQuery timeout counted against a worker", downs.Load(), ce.Healthy())
	}
}

// runQueryFaults fails each runQuery call to a machine with that
// machine's entry, if it has one; every other call goes through.
type runQueryFaults struct {
	cluster.Transport
	errs map[int]error
}

func (r *runQueryFaults) Call(from, to int, req cluster.Message) (cluster.Message, error) {
	if _, ok := req.(*rads.RunQueryRequest); ok && r.errs[to] != nil {
		return nil, r.errs[to]
	}
	return r.Transport.Call(from, to, req)
}

// TestRunQueryErrorNamesTheRootCause: of the machines' failures a
// query reports a down worker before a timeout, and a timeout before
// another machine's remote error, whatever their machine order.
func TestRunQueryErrorNamesTheRootCause(t *testing.T) {
	g := gen.Community(3, 14, 0.35, 43)
	part := partition.KWay(g, 3, 7)
	remote := fmt.Errorf("cluster: runQuery: %w: boom", cluster.ErrRemote)
	timeout := fmt.Errorf("cluster: runQuery: %w", cluster.ErrTimeout)
	refused := errors.New("cluster: dial: connection refused")
	for _, tc := range []struct {
		errs map[int]error
		want string
		down bool
	}{
		{map[int]error{0: remote, 2: timeout}, "worker 2 timed out", false},
		{map[int]error{0: remote, 1: timeout, 2: refused}, "worker 2 down", true},
		{map[int]error{1: remote}, "machine 1", false},
	} {
		faults := &runQueryFaults{errs: tc.errs}
		ce := hostClusterWrapped(t, part, nil, func(tr cluster.Transport) cluster.Transport {
			faults.Transport = tr
			return faults
		})
		_, err := ce.Run(context.Background(), engine.Request{Part: part, Pattern: pattern.Triangle(), Metrics: cluster.NewMetrics(part.M)})
		if err == nil || !strings.Contains(err.Error(), tc.want) || errors.Is(err, rads.ErrWorkerDown) != tc.down {
			t.Errorf("faults %v: err = %v, want %q (down %v)", tc.errs, err, tc.want, tc.down)
		}
		ce.Close()
	}
}
