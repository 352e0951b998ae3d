// Conformance suite for the engine API: every registered engine must
// agree with the single-machine oracle on small queries, honour
// cancellation promptly when it declares the capability, surface
// memory-budget death as Result.OOM rather than an error, and produce
// identical counts with and without its prepared artifact.
package all_test

import (
	"context"
	"errors"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"rads/internal/cluster"
	"rads/internal/engine"
	_ "rads/internal/engine/all"
	"rads/internal/gen"
	"rads/internal/graph"
	"rads/internal/localenum"
	"rads/internal/partition"
	"rads/internal/pattern"
)

// conformancePart builds the shared seeded random partition: a
// community graph (triangle-rich, so every query has work to do)
// split across 4 machines.
func conformancePart(t *testing.T) *partition.Partition {
	t.Helper()
	g := gen.Community(6, 20, 0.3, 99)
	return partition.KWay(g, 4, 7)
}

// conformanceTransport returns the transport every engine in a test
// runs over: nil (each engine's in-process default) normally, or a
// fresh TCP transport when RADS_CONFORMANCE_TRANSPORT=tcp — the CI job
// that proves every engine, not just RADS, is transport-agnostic and
// fully serializable. One transport serves a whole test; engines
// re-register their per-machine handlers on it each run.
func conformanceTransport(t *testing.T, m int) cluster.Transport {
	t.Helper()
	if os.Getenv("RADS_CONFORMANCE_TRANSPORT") != "tcp" {
		return nil
	}
	tr, err := cluster.NewTCPTransport(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

func conformanceQueries() []*pattern.Pattern {
	return []*pattern.Pattern{
		pattern.Triangle(),
		pattern.New("square", 4, 0, 1, 1, 2, 2, 3, 3, 0),
	}
}

func TestAllEnginesRegistered(t *testing.T) {
	names := engine.Names()
	want := []string{"BigJoin", "Crystal", "PSgL", "RADS", "SEED", "TwinTwig"}
	if len(names) < len(want) {
		t.Fatalf("registry has %v, want at least %v", names, want)
	}
	have := make(map[string]bool, len(names))
	for _, n := range names {
		have[n] = true
	}
	for _, n := range want {
		if !have[n] {
			t.Errorf("engine %s not registered", n)
		}
	}
}

// TestConformanceCounts runs every registered engine on every
// conformance query, with and without prepared artifacts, and checks
// all counts against the single-machine oracle.
func TestConformanceCounts(t *testing.T) {
	part := conformancePart(t)
	tr := conformanceTransport(t, part.M)
	for _, q := range conformanceQueries() {
		want := localenum.Count(part.G, q, localenum.Options{})
		if want == 0 {
			t.Fatalf("%s: oracle found nothing; conformance graph too sparse", q.Name)
		}
		for _, name := range engine.Names() {
			e, ok := engine.Lookup(name)
			if !ok {
				t.Fatalf("Lookup(%q) failed", name)
			}
			// Cold run: no artifact, the engine prepares internally.
			res, err := e.Run(context.Background(), engine.Request{Part: part, Pattern: q, Transport: tr})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, q.Name, err)
			}
			if res.OOM {
				t.Fatalf("%s/%s: OOM with no budget", name, q.Name)
			}
			if res.Total != want {
				t.Errorf("%s/%s: count %d, oracle says %d", name, q.Name, res.Total, want)
			}
			if !e.Capabilities().PreparedArtifacts() {
				continue
			}
			// Warm run: through Prepare, must not change the answer.
			art, err := e.Prepare(part, q)
			if err != nil {
				t.Fatalf("%s/%s: Prepare: %v", name, q.Name, err)
			}
			if art == nil {
				t.Fatalf("%s declares artifacts but Prepare returned nil", name)
			}
			if art.SizeBytes() <= 0 {
				t.Errorf("%s/%s: artifact reports %d bytes", name, q.Name, art.SizeBytes())
			}
			res2, err := e.Run(context.Background(), engine.Request{Part: part, Pattern: q, Artifact: art, Transport: tr})
			if err != nil {
				t.Fatalf("%s/%s (prepared): %v", name, q.Name, err)
			}
			if res2.Total != want {
				t.Errorf("%s/%s (prepared): count %d, oracle says %d", name, q.Name, res2.Total, want)
			}
		}
	}
}

// TestConformanceWorkerParallelism checks intra-machine parallelism
// both ways: every registered engine must produce oracle-identical
// counts at Workers > 1 (engines without a worker pool ignore the hint
// — trivially conformant), and the counts must be stable across
// repetitions (the CI suite runs this under -race, which is what
// actually exercises the determinism of RADS's worker pool: sharded
// counters, the shared group queue, and the locked adjacency cache).
func TestConformanceWorkerParallelism(t *testing.T) {
	part := conformancePart(t)
	tr := conformanceTransport(t, part.M)
	for _, q := range conformanceQueries() {
		want := localenum.Count(part.G, q, localenum.Options{})
		for _, name := range engine.Names() {
			e, _ := engine.Lookup(name)
			for rep := 0; rep < 2; rep++ {
				res, err := e.Run(context.Background(), engine.Request{
					Part: part, Pattern: q, Workers: 4, Transport: tr,
				})
				if err != nil {
					t.Fatalf("%s/%s workers=4 rep=%d: %v", name, q.Name, rep, err)
				}
				if res.Total != want {
					t.Errorf("%s/%s workers=4 rep=%d: count %d, sequential oracle says %d",
						name, q.Name, rep, res.Total, want)
				}
			}
		}
	}
}

// TestConformanceWorkerWidths sweeps every engine across worker widths
// 1, 2 and 8 and checks oracle parity.
func TestConformanceWorkerWidths(t *testing.T) {
	part := conformancePart(t)
	tr := conformanceTransport(t, part.M)
	for _, q := range conformanceQueries() {
		want := localenum.Count(part.G, q, localenum.Options{})
		for _, name := range engine.Names() {
			e, _ := engine.Lookup(name)
			for _, w := range []int{1, 2, 8} {
				res, err := e.Run(context.Background(), engine.Request{
					Part: part, Pattern: q, Workers: w, Transport: tr,
				})
				if err != nil {
					t.Fatalf("%s/%s workers=%d: %v", name, q.Name, w, err)
				}
				if res.Total != want {
					t.Errorf("%s/%s workers=%d: count %d, oracle says %d",
						name, q.Name, w, res.Total, want)
				}
			}
		}
	}
}

// TestConformanceWorkerStreaming checks that a streaming run with a
// worker pool delivers exactly the counted embeddings — per-machine
// delivery is serialized, so nothing may be lost or duplicated.
func TestConformanceWorkerStreaming(t *testing.T) {
	part := conformancePart(t)
	tr := conformanceTransport(t, part.M)
	q := pattern.Triangle()
	want := localenum.Count(part.G, q, localenum.Options{})
	for _, name := range engine.Names() {
		e, _ := engine.Lookup(name)
		if !e.Capabilities().Streaming {
			continue
		}
		var streamed atomic.Int64
		res, err := e.Run(context.Background(), engine.Request{
			Part: part, Pattern: q, Workers: 4, Transport: tr,
			OnEmbedding: func(machine int, f []graph.VertexID) { streamed.Add(1) },
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if streamed.Load() != res.Total || res.Total != want {
			t.Errorf("%s workers=4: streamed %d, counted %d, oracle %d",
				name, streamed.Load(), res.Total, want)
		}
	}
}

// TestConformanceCancellation checks that every engine declaring the
// Cancellation capability returns context.Canceled promptly when its
// context is already dead.
func TestConformanceCancellation(t *testing.T) {
	part := conformancePart(t)
	tr := conformanceTransport(t, part.M)
	q := pattern.Triangle()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range engine.Names() {
		e, _ := engine.Lookup(name)
		if !e.Capabilities().Cancellation {
			t.Errorf("%s does not declare cancellation; every built-in engine must", name)
			continue
		}
		start := time.Now()
		_, err := e.Run(ctx, engine.Request{Part: part, Pattern: q, Transport: tr})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Errorf("%s: cancellation took %v, want prompt return", name, d)
		}
	}
}

// TestConformanceOOM gives every engine a budget far below what the
// query needs and requires the failure to surface as Result.OOM with a
// nil error — never as an ErrOutOfMemory-typed error. Engines robust
// enough to finish under the budget (RADS's region-group splitting is
// the paper's whole point) must instead report the correct count.
func TestConformanceOOM(t *testing.T) {
	part := conformancePart(t)
	tr := conformanceTransport(t, part.M)
	q := pattern.New("square", 4, 0, 1, 1, 2, 2, 3, 3, 0)
	want := localenum.Count(part.G, q, localenum.Options{})
	for _, name := range engine.Names() {
		e, _ := engine.Lookup(name)
		budget := cluster.NewMemBudget(part.M, 2<<10)
		res, err := e.Run(context.Background(), engine.Request{Part: part, Pattern: q, Budget: budget, Transport: tr})
		if err != nil {
			t.Errorf("%s: budget death leaked as error: %v", name, err)
			continue
		}
		if !res.OOM && res.Total != want {
			t.Errorf("%s: completed under budget but count %d != oracle %d", name, res.Total, want)
		}
	}
}

// TestConformanceStreaming checks the Streaming capability both ways:
// engines declaring it must deliver exactly the counted embeddings,
// engines without it must reject OnEmbedding with ErrUnsupported.
func TestConformanceStreaming(t *testing.T) {
	part := conformancePart(t)
	tr := conformanceTransport(t, part.M)
	q := pattern.Triangle()
	want := localenum.Count(part.G, q, localenum.Options{})
	for _, name := range engine.Names() {
		e, _ := engine.Lookup(name)
		var streamed atomic.Int64
		req := engine.Request{Part: part, Pattern: q, Transport: tr, OnEmbedding: func(machine int, f []graph.VertexID) {
			streamed.Add(1)
		}}
		res, err := e.Run(context.Background(), req)
		if !e.Capabilities().Streaming {
			if !errors.Is(err, engine.ErrUnsupported) {
				t.Errorf("%s: streaming request: err = %v, want ErrUnsupported", name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if streamed.Load() != res.Total || res.Total != want {
			t.Errorf("%s: streamed %d, counted %d, oracle %d", name, streamed.Load(), res.Total, want)
		}
	}
}

// TestConformanceRetryableFaults: transient failures on an idempotent
// message kind (fetchV), recovered through the retry transport, must
// never change any engine's counts — the acceptance bar for the retry
// policy. Engines that never send fetchV simply don't consume the
// injected faults and trivially conform.
func TestConformanceRetryableFaults(t *testing.T) {
	part := conformancePart(t)
	q := pattern.Triangle()
	want := localenum.Count(part.G, q, localenum.Options{})
	if want == 0 {
		t.Fatal("oracle found nothing; conformance graph too sparse")
	}
	for _, name := range engine.Names() {
		e, ok := engine.Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) failed", name)
		}
		// Fresh fault stack per engine: counters and the fail-first
		// countdown must not leak across runs.
		base := conformanceTransport(t, part.M)
		if base == nil {
			base = cluster.NewLocalTransport(nil)
			t.Cleanup(func() { base.Close() })
		}
		faulty := &cluster.FaultyTransport{Inner: base, FailKind: "fetchV", FailCount: 3}
		tr := cluster.NewRetryTransport(faulty, cluster.RetryPolicy{
			MaxAttempts: 4,
			BaseBackoff: time.Millisecond,
		})
		res, err := e.Run(context.Background(), engine.Request{Part: part, Pattern: q, Transport: tr})
		if err != nil {
			t.Fatalf("%s: %v (retryable faults must recover)", name, err)
		}
		if res.Total != want {
			t.Errorf("%s: count %d with injected fetchV faults, oracle says %d", name, res.Total, want)
		}
	}
}
