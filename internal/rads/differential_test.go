package rads

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rads/internal/cluster"
	"rads/internal/dataset"
	eng "rads/internal/engine"
	"rads/internal/gen"
	"rads/internal/graph"
	"rads/internal/localenum"
	"rads/internal/partition"
	"rads/internal/pattern"
)

// diffSeedEnv replays a differential run: case number i of a run
// seeded s draws everything from rand.NewSource(s+i), so the seed a
// failure prints re-runs that case first.
const diffSeedEnv = "RADS_DIFF_SEED"

// diffCase is one point of the differential space, drawn from a seed.
type diffCase struct {
	model    string
	g        *graph.Graph
	p        *pattern.Pattern
	machines int
	partSeed int64
	cfg      Config
	tight    bool // run under a budget sized from a probe of the same case
	segment  int  // a tight case's engine.segment, a few trie nodes; 0 derives it
	tcp      bool
	stream   bool
}

func (c diffCase) String() string {
	return fmt.Sprintf("%s n=%d m=%d × %s × machines=%d workers=%d tight=%v segment=%d tcp=%v stream=%v noSME=%v noEVC=%v noCache=%v noLB=%v",
		c.model, c.g.NumVertices(), c.g.NumEdges(), c.p, c.machines,
		c.cfg.Workers, c.tight, c.segment, c.tcp, c.stream,
		c.cfg.DisableSME, c.cfg.DisableEndVertexCounting, c.cfg.DisableCache, c.cfg.DisableLoadBalancing)
}

// ingestedTwin ingests g's edge list the way radsprep does, so the twin
// has the same edges under the ingester's labelling: first-seen order,
// or hub-first with degree ordering.
func ingestedTwin(t *testing.T, g *graph.Graph, degreeOrder bool) *graph.Graph {
	t.Helper()
	var sb strings.Builder
	g.Edges(func(u, v graph.VertexID) bool {
		fmt.Fprintf(&sb, "%d %d\n", u, v)
		return true
	})
	c, _, err := dataset.IngestReaders(strings.NewReader(sb.String()), strings.NewReader(sb.String()),
		dataset.Options{DegreeOrder: degreeOrder})
	if err != nil {
		t.Fatalf("ingest twin: %v", err)
	}
	return c
}

func drawDiffCase(t *testing.T, rng *rand.Rand) diffCase {
	var c diffCase
	n := 24 + rng.Intn(40)
	var g *graph.Graph
	switch rng.Intn(6) {
	case 0:
		c.model, g = "erdos-renyi", gen.ErdosRenyi(n, 0.08+0.15*rng.Float64(), rng.Int63())
	case 1:
		c.model, g = "community", gen.Community(2+rng.Intn(3), 8+rng.Intn(8), 0.25+0.2*rng.Float64(), rng.Int63())
	case 2:
		c.model, g = "power-law", gen.PowerLaw(n, 3+3*rng.Float64(), 2.2+0.6*rng.Float64(), rng.Intn(30), rng.Int63())
	case 3:
		c.model, g = "barabasi-albert", gen.BarabasiAlbert(n, 2+rng.Intn(3), rng.Int63())
	case 4:
		c.model, g = "watts-strogatz", gen.WattsStrogatz(n, 4+2*rng.Intn(2), 0.2*rng.Float64(), rng.Int63())
	default:
		c.model, g = "rmat", gen.RMAT(5, 3+rng.Intn(3), rng.Int63())
	}
	if _, comps := g.ConnectedComponents(); comps > 1 {
		// The partitioner and the border distances assume one component.
		c.model, g = "community(fallback)", gen.Community(3, 10+rng.Intn(6), 0.3, rng.Int63())
	}
	c.g = g
	if rng.Intn(2) == 0 {
		c.g = ingestedTwin(t, g, rng.Intn(2) == 0)
	}

	if rng.Intn(3) == 0 {
		catalogue := append(pattern.QuerySet(), pattern.CliqueQuerySet()...)
		c.p = catalogue[rng.Intn(len(catalogue))]
	} else {
		c.p = randomConnectedPattern(rng, 3+rng.Intn(4))
	}

	c.machines = 2 + rng.Intn(3)
	c.partSeed = rng.Int63()
	c.cfg.Workers = []int{1, 4}[rng.Intn(2)]
	c.cfg.DisableSME = rng.Intn(2) == 0
	c.cfg.DisableEndVertexCounting = rng.Intn(3) == 0
	c.cfg.DisableCache = rng.Intn(4) == 0
	c.cfg.DisableLoadBalancing = rng.Intn(4) == 0
	c.tight = rng.Intn(2) == 0
	c.tcp = rng.Intn(4) == 0
	c.stream = rng.Intn(3) == 0
	if c.tight {
		// A few trie nodes per segment: every hub flushes mid-round.
		c.segment = 1 << rng.Intn(6)
	}
	return c
}

// run executes the case and returns the total, the embeddings streamed
// (nil unless c.stream) and the budget it held (0 unless c.tight).
func (c diffCase) run(t *testing.T, part *partition.Partition) (int64, [][]graph.VertexID, int64) {
	t.Helper()
	cfg := c.cfg
	if c.tcp {
		tr, err := cluster.NewTCPTransport(part.M, nil)
		if err != nil {
			t.Fatalf("tcp transport: %v", err)
		}
		defer tr.Close()
		cfg.Transport = tr
	}
	var mu sync.Mutex
	var streamed [][]graph.VertexID
	if c.stream {
		cfg.OnEmbedding = func(_ int, f []graph.VertexID) {
			mu.Lock()
			streamed = append(streamed, append([]graph.VertexID(nil), f...))
			mu.Unlock()
		}
	}
	if !c.tight {
		res, err := c.runOnce(part, cfg)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return res.Total, streamed, 0
	}

	// Size the budget from an accounted, unlimited probe of the same
	// case, then run a quarter above its peak: the cache valve opens
	// (3/4 of the limit is below the probe's peak) and mid-round
	// flushes keep the trie inside it.
	probe := cluster.NewMemBudget(part.M, 0)
	cfg.Budget = probe
	res, err := c.runOnce(part, cfg)
	if err != nil {
		t.Fatalf("probe run: %v", err)
	}
	probeTotal := res.Total
	limit := probe.MaxPeak()*5/4 + 64
	// With one worker and no stealing a machine's charges repeat
	// exactly, so the budget must hold; otherwise which groups overlap
	// is up to the scheduler and an overshoot is a sizing miss, retried
	// with more room, not a wrong answer.
	deterministic := cfg.Workers == 1 && cfg.DisableLoadBalancing
	for {
		streamed = streamed[:0]
		cfg.Budget = cluster.NewMemBudget(part.M, limit)
		res, err = c.runOnce(part, cfg)
		if errors.Is(err, cluster.ErrOutOfMemory) && !deterministic {
			limit *= 2
			continue
		}
		if err != nil {
			t.Fatalf("budgeted run (limit %d, probe peak %d): %v", limit, probe.MaxPeak(), err)
		}
		break
	}
	if res.Total != probeTotal {
		t.Errorf("budgeted total %d != probe total %d", res.Total, probeTotal)
	}
	if res.PeakMemBytes > limit {
		t.Errorf("peak %d above the budget %d", res.PeakMemBytes, limit)
	}
	return res.Total, streamed, limit
}

// runOnce runs the case's pattern under cfg with, when it drew one, its
// segment.
func (c diffCase) runOnce(part *partition.Partition, cfg Config) (*Result, error) {
	return runTuned(part, c.p, cfg, func(e *engine) {
		if c.segment > 0 {
			e.segment = c.segment
		}
	})
}

// onFleet reports whether the wire can carry the case: a
// RunQueryRequest sets Workers, the budget and (through noStealing)
// DisableLoadBalancing — no stream and no other switch.
func (c diffCase) onFleet() bool {
	return !c.stream && !c.cfg.DisableSME && !c.cfg.DisableEndVertexCounting &&
		!c.cfg.DisableCache && !c.cfg.RandomGrouping
}

// runFleet runs the case the way cluster mode does: one Machine per id,
// each hosted on its owned rows only (OwnedRows), so a foreign adjacency
// read miscounts, behind a ClusterEngine — over TCP when the case drew
// it. A budget (the one the in-process run held) doubles on OOM: the
// wire carries the budget but not the case's segment, so the machines
// derive theirs from the budget instead.
func (c diffCase) runFleet(t *testing.T, part *partition.Partition, budget int64) int64 {
	t.Helper()
	var tr interface {
		cluster.Transport
		Register(int, cluster.Handler)
	} = cluster.NewLocalTransport(nil)
	if c.tcp {
		tcp, err := cluster.NewTCPTransport(part.M, nil)
		if err != nil {
			t.Fatalf("tcp transport: %v", err)
		}
		defer tcp.Close()
		tr = tcp
	}
	for id := range part.M {
		d := NewMachine(id, OwnedRows(t, part, id), tr, MachineOptions{AvgDegree: part.G.AvgDegree()})
		tr.Register(id, d.Handle)
	}
	var coord cluster.Transport = tr
	if c.cfg.DisableLoadBalancing {
		coord = noStealing{tr}
	}
	ce := NewClusterEngine(coord, part.M)
	for {
		var b *cluster.MemBudget
		if budget > 0 {
			b = cluster.NewMemBudget(part.M, budget)
		}
		res, err := ce.Run(context.Background(), eng.Request{
			Part: part, Pattern: c.p, Workers: c.cfg.Workers, Budget: b,
		})
		if err != nil {
			t.Fatalf("fleet run: %v", err)
		}
		if res.OOM {
			budget *= 2
			continue
		}
		if budget > 0 && res.PeakMemBytes > budget {
			t.Errorf("fleet peak %d above the budget %d", res.PeakMemBytes, budget)
		}
		return res.Total
	}
}

// OwnedRows rehosts machine id's slot of part on a graph holding only
// the machine's owned rows plus the reverse stubs those rows imply:
// exactly the adjacency the distribution discipline lets machine id
// read. A machine that reads a foreign row sees it cut down to its edges
// into id and miscounts, so the fleet tests fail on any foreign read.
func OwnedRows(t testing.TB, part *partition.Partition, id int) *partition.Partition {
	t.Helper()
	b := graph.NewBuilder(part.G.NumVertices())
	for _, v := range part.Vertices(id) {
		for _, u := range part.G.Adj(v) {
			b.AddEdge(v, u)
		}
	}
	shard, err := partition.New(b.Build(), part.M, part.Owner)
	if err != nil {
		t.Fatal(err)
	}
	shard.InstallBorderDistances(id, part.BorderDistances(id))
	return shard
}

// checkStreamed verifies that the streamed embeddings are want distinct
// symmetry-broken embeddings of p in g.
func checkStreamed(t *testing.T, g *graph.Graph, p *pattern.Pattern, streamed [][]graph.VertexID, want int64) {
	t.Helper()
	if int64(len(streamed)) != want {
		t.Errorf("streamed %d embeddings, oracle %d", len(streamed), want)
	}
	seen := make(map[string]bool, len(streamed))
	edges, cons := p.Edges(), p.SymmetryBreaking()
	for _, f := range streamed {
		key := fmt.Sprint(f)
		if seen[key] {
			t.Errorf("embedding %v delivered twice", f)
		}
		seen[key] = true
		for _, e := range edges {
			if !g.HasEdge(f[e[0]], f[e[1]]) {
				t.Errorf("embedding %v maps pattern edge %v to a non-edge", f, e)
			}
		}
		for _, oc := range cons {
			if !(f[oc.Less] < f[oc.Greater]) {
				t.Errorf("embedding %v violates symmetry constraint %v", f, oc)
			}
		}
	}
}

// TestDifferentialAgainstOracle is the RADS slice of the randomised
// differential suite: random graphs (as generated, or relabelled by
// the ingester) × random connected patterns or the q1–q8/cq1–cq4 catalogue ×
// Workers × budget × the SM-E, end-vertex, cache,
// stealing and streaming switches × transport, every total against
// localenum.Count on its default order. Every case the wire can carry
// also runs on a fleet of hosted Machines behind a ClusterEngine, the
// path cluster mode serves (runFleet). Time-boxed; -short (and so the
// -race CI step) runs the first seconds of the same sequence.
func TestDifferentialAgainstOracle(t *testing.T) {
	seed := int64(20191)
	if s := os.Getenv(diffSeedEnv); s != "" {
		var err error
		if seed, err = strconv.ParseInt(s, 10, 64); err != nil {
			t.Fatalf("%s=%q: %v", diffSeedEnv, s, err)
		}
	}
	box, maxCases := 10*time.Second, 400
	if testing.Short() {
		box, maxCases = 3*time.Second, 60
	}
	t.Logf("seed %d", seed)
	deadline := time.Now().Add(box)
	i, fleet := 0, 0
	// One test, no subtests: how many cases fit the box depends on the
	// machine, and the suite's list of test names must not.
	for ; i < maxCases && time.Now().Before(deadline) && !t.Failed(); i++ {
		c := drawDiffCase(t, rand.New(rand.NewSource(seed+int64(i))))
		want := localenum.Count(c.g, c.p, localenum.Options{})
		if want > 1<<17 {
			c.stream = false // a tree pattern on a hub: too many to hold
		}
		part := partition.KWay(c.g, c.machines, c.partSeed)
		got, streamed, budget := c.run(t, part)
		if got != want {
			t.Errorf("total %d, oracle %d", got, want)
		}
		if c.stream {
			checkStreamed(t, c.g, c.p, streamed, want)
		}
		if c.onFleet() {
			fleet++
			if got := c.runFleet(t, part, budget); got != want {
				t.Errorf("fleet total %d, oracle %d", got, want)
			}
		}
		if t.Failed() {
			t.Logf("case %d: %v", i, c)
			t.Logf("replay it as case 0: %s=%d go test -run TestDifferentialAgainstOracle ./internal/rads", diffSeedEnv, seed+int64(i))
		}
	}
	t.Logf("%d cases, %d also on the fleet", i, fleet)
}
