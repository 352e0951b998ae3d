package service_test

import (
	"context"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rads/internal/obs"
	"rads/internal/partition"
	"rads/internal/pattern"
	"rads/internal/rads"
	"rads/internal/service"
)

// TestQueryProfileAndRegistry: a served query carries a profile that
// accounts its wall time, is retrievable by id afterwards, and feeds
// the service's metrics families.
func TestQueryProfileAndRegistry(t *testing.T) {
	svc := openService(t, service.Config{Machines: 4, MaxConcurrent: 2})

	q := pattern.ByName("q1")
	h, err := svc.Submit(context.Background(), service.Query{Pattern: q})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Result(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.QueryID == 0 || res.QueryID != h.ID() {
		t.Errorf("query id %d on result, %d on handle", res.QueryID, h.ID())
	}
	p := res.Profile
	if p == nil {
		t.Fatal("no profile on result")
	}
	if p.ID != res.QueryID || p.Engine != "RADS" || p.Query != q.Name {
		t.Errorf("profile identity wrong: %+v", p)
	}
	if frac := p.AccountedFraction(); frac < 0.9 {
		t.Errorf("profile accounts %.1f%% of wall, want >= 90%% (phases: %+v)", frac*100, p.Phases)
	}
	if got := svc.FindProfile(res.QueryID); got == nil || got.ID != res.QueryID {
		t.Errorf("FindProfile(%d) = %v", res.QueryID, got)
	}
	if recent := svc.RecentProfiles(10); len(recent) != 1 || recent[0].ID != res.QueryID {
		t.Errorf("recent ring: %+v", recent)
	}

	// Same motif again: answered from the cache, visible as such in the
	// registry and the profile ring.
	h2, err := svc.Submit(context.Background(), service.Query{Pattern: q})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := h2.Result(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res2.CacheHit {
		t.Fatal("second identical query missed the cache")
	}
	if res2.Profile != nil {
		t.Error("cache hits must not echo the original run's profile")
	}
	if hp := svc.FindProfile(h2.ID()); hp == nil || !hp.CacheHit {
		t.Errorf("cache hit profile not retained: %v", hp)
	}

	// A query's admission slot is released just after its result is
	// delivered, so the running gauge reaches 0 a moment after Result.
	for deadline := time.Now().Add(5 * time.Second); svc.Stats().Running != 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	var b strings.Builder
	if err := svc.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	expo := b.String()
	for _, line := range []string{
		`rads_query_seconds_count{engine="RADS"} 1`,
		"rads_admission_wait_seconds_count 1",
		`rads_queries_total{outcome="cache_hit"} 1`,
		`rads_queries_total{outcome="ok"} 1`,
		"rads_cache_hits_total 1",
		"rads_cache_misses_total 1",
		"rads_queries_running 0",
		"rads_queries_queued 0",
		"rads_tree_nodes_total",
		"rads_kernel_selections_total",
	} {
		if !strings.Contains(expo, line) {
			t.Errorf("exposition missing %q:\n%s", line, expo)
		}
	}
	// The in-process machines exchanged daemon messages; both per-kind
	// transport families and the latency histograms must be populated.
	if !strings.Contains(expo, `rads_transport_bytes_total{kind=`) {
		t.Errorf("no per-kind transport bytes in exposition:\n%s", expo)
	}
	if !strings.Contains(expo, `rads_transport_messages_total{kind=`) {
		t.Errorf("no per-kind transport messages in exposition:\n%s", expo)
	}
	if !strings.Contains(expo, `rads_transport_latency_seconds_count{kind=`) {
		t.Errorf("no per-kind transport latency in exposition:\n%s", expo)
	}
}

// TestBaselineEngineGetsSyntheticProfile: engines that don't trace
// still produce a profile whose single execute phase covers the run.
func TestBaselineEngineGetsSyntheticProfile(t *testing.T) {
	svc := openService(t, service.Config{Machines: 3})
	h, err := svc.Submit(context.Background(), service.Query{
		Pattern: pattern.Triangle(), Engine: "PSgL", NoCache: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Result(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	p := res.Profile
	if p == nil {
		t.Fatal("no profile on baseline result")
	}
	if p.Engine != "PSgL" {
		t.Errorf("profile engine %q", p.Engine)
	}
	if frac := p.AccountedFraction(); frac < 0.9 {
		t.Errorf("synthetic profile accounts %.1f%%, want >= 90%% (phases: %+v)", frac*100, p.Phases)
	}
}

// TestSlowQueryRing: with a zero-ish threshold every query is slow —
// retained in the slow ring and reported through the callback.
func TestSlowQueryRing(t *testing.T) {
	var calls atomic.Int64
	svc := openService(t, service.Config{
		Machines:  3,
		SlowQuery: time.Nanosecond,
		OnSlowQuery: func(p *obs.Profile) {
			if p.ID == 0 {
				t.Error("slow callback got profile without id")
			}
			calls.Add(1)
		},
	})
	h, err := svc.Submit(context.Background(), service.Query{Pattern: pattern.Triangle(), NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Result(context.Background()); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Errorf("slow callback ran %d times, want 1", calls.Load())
	}
	if slow := svc.SlowProfiles(10); len(slow) != 1 {
		t.Errorf("slow ring holds %d profiles, want 1", len(slow))
	}
}

// TestREADMEMetricCatalogue keeps README's metric table equal to what
// the code registers: every family of a service.Open registry and of a
// rads.NewMachine registry has a row, and every row names a family one
// of them registers — apart from the families cmd/radsworker's main
// adds on top of its machines' registry, listed here by name.
func TestREADMEMetricCatalogue(t *testing.T) {
	workerMain := map[string]bool{"rads_handle_seconds": true}

	registered := make(map[string]bool)
	svc := openService(t, service.Config{Machines: 2})
	machineReg := obs.NewRegistry()
	rads.NewMachine(0, partition.KWay(testGraph(), 2, 1), nil, rads.MachineOptions{Obs: machineReg})
	for _, reg := range []*obs.Registry{svc.Metrics(), machineReg} {
		for _, fam := range reg.Export() {
			registered[fam.Name] = true
		}
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(readme), "| family | type | labels | meaning |\n")
	if !ok {
		t.Fatal("README has no metric table")
	}
	documented := make(map[string]bool)
	for _, row := range strings.Split(table, "\n")[1:] { // [0] is the |---| rule
		if !strings.HasPrefix(row, "|") {
			break
		}
		names := strings.Split(strings.SplitN(row, "|", 3)[1], ",")
		for _, name := range names {
			documented[strings.Trim(name, " `")] = true
		}
	}

	for name := range registered {
		if !documented[name] {
			t.Errorf("family %s is registered but has no row in README's metric table", name)
		}
	}
	for name := range documented {
		if !registered[name] && !workerMain[name] {
			t.Errorf("README's metric table lists %s, which neither service.Open nor rads.NewMachine registers", name)
		}
	}
}
