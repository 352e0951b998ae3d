package rads_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"rads/internal/cluster"
	"rads/internal/engine"
	"rads/internal/gen"
	"rads/internal/localenum"
	"rads/internal/obs"
	"rads/internal/partition"
	"rads/internal/pattern"
	"rads/internal/rads"
)

// TestFleetStatsPullAndSummary: the coordinator pulls every worker's
// registry snapshot over statsPull and joins it with breaker state
// into the /debug/cluster summary.
func TestFleetStatsPullAndSummary(t *testing.T) {
	g := gen.Community(3, 16, 0.35, 83)
	part := partition.KWay(g, 3, 7)
	ce, _ := hostObservedCluster(t, part)

	q := pattern.ByName("q1")
	if _, err := ce.Run(context.Background(), engine.Request{
		Part: part, Pattern: q, Metrics: cluster.NewMetrics(part.M),
	}); err != nil {
		t.Fatal(err)
	}

	resps, errs := ce.PullStats()
	if len(resps) != part.M || len(errs) != part.M {
		t.Fatalf("pull returned %d/%d slots, want %d", len(resps), len(errs), part.M)
	}
	var fp uint64
	for m := 0; m < part.M; m++ {
		if errs[m] != nil {
			t.Fatalf("machine %d: %v", m, errs[m])
		}
		r := resps[m]
		if r == nil || r.Machine != m {
			t.Fatalf("machine %d: response %+v", m, r)
		}
		if m == 0 {
			fp = r.Fingerprint
		} else if r.Fingerprint != fp {
			t.Errorf("machine %d fingerprint %016x differs from machine 0's %016x", m, r.Fingerprint, fp)
		}
		if len(r.Families) == 0 {
			t.Errorf("machine %d shipped no families", m)
		}
		// The shared-process registry counted one query per machine.
		if n, ok := obs.SnapshotCounter(r.Families, "rads_queries_total", "ok"); !ok || n != int64(part.M) {
			t.Errorf("machine %d rads_queries_total{ok} = %d %v, want %d", m, n, ok, part.M)
		}
	}
	if got := rads.FleetFamilies(resps); len(got) != part.M {
		t.Errorf("FleetFamilies kept %d machines, want %d", len(got), part.M)
	}

	sum := ce.Summary()
	if !sum.Healthy || sum.Machines != part.M || len(sum.Workers) != part.M {
		t.Fatalf("summary: %+v", sum)
	}
	for _, w := range sum.Workers {
		if !w.Up || w.StatsError != "" {
			t.Errorf("worker %d: %+v", w.Machine, w)
		}
		if w.Fingerprint == "" {
			t.Errorf("worker %d has no fingerprint", w.Machine)
		}
		if w.CacheHitRatio < -1 || w.CacheHitRatio > 1 {
			t.Errorf("worker %d cache ratio %v", w.Machine, w.CacheHitRatio)
		}
	}
}

// TestStitchedClusterTrace is the distributed-traces acceptance check:
// a cluster query's profile carries worker-recorded sub-phase spans
// re-anchored on the coordinator timeline, attributed to at least two
// distinct machines, in sorted display order.
func TestStitchedClusterTrace(t *testing.T) {
	g := gen.Community(3, 18, 0.35, 29)
	part := partition.KWay(g, 3, 7)
	ce, _ := hostObservedCluster(t, part)

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
	p := res.Profile
	if p == nil || len(p.Spans) == 0 {
		t.Fatal("cluster run produced no spans")
	}

	machines := map[int]bool{}
	for _, s := range p.Spans {
		if strings.HasPrefix(s.Name, "execute/") && s.Machine >= 0 {
			machines[s.Machine] = true
			if s.StartNs < 0 {
				t.Errorf("span %+v starts before the trace", s)
			}
		}
	}
	if len(machines) < 2 {
		t.Errorf("stitched spans cover %d machines, want >= 2 (spans: %d)", len(machines), len(p.Spans))
	}
	for m := 0; m < part.M; m++ {
		if !machines[m] {
			t.Errorf("no stitched span from machine %d", m)
		}
	}
	for i := 1; i < len(p.Spans); i++ {
		if p.Spans[i].StartNs < p.Spans[i-1].StartNs {
			t.Errorf("spans not in timeline order at %d: %+v after %+v", i, p.Spans[i], p.Spans[i-1])
			break
		}
	}
	// Stitching must not double-count: the tiling invariant holds even
	// with raw worker spans folded in.
	var top float64
	for _, ph := range p.Phases {
		if !obs.IsSubPhase(ph.Name) {
			top += ph.Seconds
		}
	}
	if top > p.WallSeconds {
		t.Errorf("top-level phases sum to %.4fs > wall %.4fs: stitching double-counted", top, p.WallSeconds)
	}
}

// TestPullStatsSkipsOpenBreaker: a fleet scrape must not burn a
// timeout per down worker — open breakers short-circuit to
// WorkerDownError without a call, and the summary names the failure.
func TestPullStatsSkipsOpenBreaker(t *testing.T) {
	g := gen.Community(3, 14, 0.35, 59)
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

	flaky.fail.Store(true)
	waitFor(t, "breakers to open", func() bool { return !ce.Healthy() })
	resps, errs := ce.PullStats()
	for m := 0; m < part.M; m++ {
		if resps[m] != nil {
			t.Errorf("machine %d answered a statsPull through an open breaker", m)
		}
		if !errors.Is(errs[m], rads.ErrWorkerDown) {
			t.Errorf("machine %d err = %v, want ErrWorkerDown", m, errs[m])
		}
	}
	sum := ce.Summary()
	if sum.Healthy {
		t.Error("summary claims healthy during outage")
	}
	for _, w := range sum.Workers {
		if w.Up || w.StatsError == "" || w.Fingerprint != "" {
			t.Errorf("degraded worker row: %+v", w)
		}
	}

	flaky.fail.Store(false)
	waitFor(t, "breakers to close", ce.Healthy)
	resps, errs = ce.PullStats()
	for m := 0; m < part.M; m++ {
		if errs[m] != nil || resps[m] == nil {
			t.Errorf("machine %d after recovery: resp %v err %v", m, resps[m], errs[m])
		}
	}
}
