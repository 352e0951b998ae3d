package rads

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"rads/internal/cluster"
	"rads/internal/gen"
	"rads/internal/graph"
	"rads/internal/localenum"
	"rads/internal/partition"
	"rads/internal/pattern"
	"rads/internal/plan"
)

// oracleCount is the single-machine ground truth.
func oracleCount(g *graph.Graph, p *pattern.Pattern) int64 {
	return localenum.Count(g, p, localenum.Options{})
}

func runRADS(t *testing.T, g *graph.Graph, p *pattern.Pattern, m int, cfg Config) *Result {
	t.Helper()
	res, err := Run(partition.KWay(g, m, 99), p, cfg)
	if err != nil {
		t.Fatalf("%s on %d machines: %v", p.Name, m, err)
	}
	return res
}

// runTuned is Run with adjust applied to the engine before its machines
// are built: the in-package seam for the sizes a Config does not set.
func runTuned(part *partition.Partition, p *pattern.Pattern, cfg Config, adjust func(*engine)) (*Result, error) {
	e, err := newEngine(part, p, p.SymmetryBreaking(), cfg)
	if err != nil {
		return nil, err
	}
	adjust(e)
	e.spawnMachines()
	return e.run()
}

// runSegmented is Run with engine.segment at nodes, so small graphs
// flush mid-round and form small region groups.
func runSegmented(part *partition.Partition, p *pattern.Pattern, cfg Config, nodes int) (*Result, error) {
	return runTuned(part, p, cfg, func(e *engine) { e.segment = nodes })
}

// runRADSSegmented is runRADS with engine.segment at nodes: region
// groups of at most nodes candidates, flush segments of nodes leaves.
func runRADSSegmented(t *testing.T, g *graph.Graph, p *pattern.Pattern, m int, cfg Config, nodes int) *Result {
	t.Helper()
	part := partition.KWay(g, m, 99)
	res, err := runSegmented(part, p, cfg, nodes)
	if err != nil {
		t.Fatalf("%s on %d machines: %v", p.Name, m, err)
	}
	return res
}

func TestTriangleMatchesOracle(t *testing.T) {
	g := gen.Community(6, 12, 0.35, 1)
	p := pattern.Triangle()
	want := oracleCount(g, p)
	if want == 0 {
		t.Fatal("test graph has no triangles")
	}
	for _, m := range []int{1, 2, 3, 5} {
		res := runRADS(t, g, p, m, Config{})
		if res.Total != want {
			t.Errorf("m=%d: Total = %d, want %d (SME=%d dist=%d)", m, res.Total, want, res.SME, res.Distributed)
		}
	}
}

func TestAllQueriesMatchOracleOnCommunityGraph(t *testing.T) {
	g := gen.Community(5, 10, 0.35, 2)
	for _, p := range append(pattern.QuerySet(), pattern.CliqueQuerySet()...) {
		want := oracleCount(g, p)
		res := runRADS(t, g, p, 3, Config{})
		if res.Total != want {
			t.Errorf("%s: Total = %d, want %d (SME=%d dist=%d)", p.Name, res.Total, want, res.SME, res.Distributed)
		}
	}
}

func TestAllQueriesMatchOracleOnRoadNet(t *testing.T) {
	g := gen.RoadNet(12, 12, 4)
	for _, p := range pattern.QuerySet() {
		want := oracleCount(g, p)
		res := runRADS(t, g, p, 4, Config{})
		if res.Total != want {
			t.Errorf("%s: Total = %d, want %d (SME=%d dist=%d)", p.Name, res.Total, want, res.SME, res.Distributed)
		}
	}
}

func TestPowerLawMatchesOracle(t *testing.T) {
	g := gen.PowerLaw(300, 6, 2.5, 100, 5)
	for _, name := range []string{"q1", "q2", "q4", "cq1", "cq3"} {
		p := pattern.ByName(name)
		want := oracleCount(g, p)
		res := runRADS(t, g, p, 4, Config{})
		if res.Total != want {
			t.Errorf("%s: Total = %d, want %d (SME=%d dist=%d)", name, res.Total, want, res.SME, res.Distributed)
		}
	}
}

func TestRunningExamplePattern(t *testing.T) {
	// The 10-vertex Figure 2 pattern on a clustered graph.
	g := gen.Community(4, 12, 0.4, 7)
	p := pattern.RunningExample()
	want := oracleCount(g, p)
	res := runRADS(t, g, p, 3, Config{})
	if res.Total != want {
		t.Errorf("fig2: Total = %d, want %d", res.Total, want)
	}
}

func TestHashPartitionStillCorrect(t *testing.T) {
	// Hash partitioning destroys locality (tiny C1, heavy traffic) but
	// must not change results.
	g := gen.Community(4, 10, 0.35, 9)
	for _, name := range []string{"q2", "q4", "cq1"} {
		p := pattern.ByName(name)
		want := oracleCount(g, p)
		part := partition.Hash(g, 4)
		res, err := Run(part, p, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Total != want {
			t.Errorf("%s: Total = %d, want %d", name, res.Total, want)
		}
	}
}

func TestSingleMachineDoesEverythingViaSME(t *testing.T) {
	// With m=1 there are no borders: every candidate is in C1.
	g := gen.Community(3, 10, 0.4, 3)
	p := pattern.ByName("q2")
	res := runRADS(t, g, p, 1, Config{})
	if res.Distributed != 0 {
		t.Errorf("m=1: Distributed = %d, want 0", res.Distributed)
	}
	if res.CommBytes != 0 {
		t.Errorf("m=1: CommBytes = %d, want 0", res.CommBytes)
	}
	if res.Total != oracleCount(g, p) {
		t.Errorf("m=1: Total = %d", res.Total)
	}
}

func TestDisableSMEStillCorrectAndCostsMore(t *testing.T) {
	g := gen.RoadNet(14, 14, 8)
	p := pattern.ByName("q1")
	want := oracleCount(g, p)

	// Load balancing is off so the comparison is deterministic: a
	// stolen group is re-fetched by the thief, and whether stealing
	// happens at all depends on goroutine scheduling.
	mWith := cluster.NewMetrics(3)
	mWithout := cluster.NewMetrics(3)
	withSME := runRADS(t, g, p, 3, Config{DisableLoadBalancing: true, Metrics: mWith})
	withoutSME := runRADS(t, g, p, 3, Config{DisableSME: true, DisableLoadBalancing: true, Metrics: mWithout})
	if withSME.Total != want || withoutSME.Total != want {
		t.Fatalf("counts: with=%d without=%d want=%d", withSME.Total, withoutSME.Total, want)
	}
	if withSME.SME == 0 {
		t.Error("road network should route most work through SM-E")
	}
	if withoutSME.SME != 0 {
		t.Error("DisableSME must not run SM-E")
	}
	// C1 candidates generate no traffic even through R-Meef
	// (Proposition 1: their embeddings never leave the machine), so
	// communication can tie. Compare only the data plane (fetchV +
	// verifyE): total bytes include checkR/shareR load-balancer
	// polling, whose round count is scheduling-dependent, so the total
	// can flip either way between runs.
	dataBytes := func(mt *cluster.Metrics) int64 {
		byKind := mt.ByKind()
		return byKind["fetchV"] + byKind["verifyE"]
	}
	if dataBytes(mWithout) < dataBytes(mWith) {
		t.Errorf("data-plane communication without SM-E should not shrink: with=%d without=%d",
			dataBytes(mWith), dataBytes(mWithout))
	}
	if withoutSME.ETBytesCum <= withSME.ETBytesCum {
		t.Errorf("SM-E should cut intermediate results: with=%d without=%d", withSME.ETBytesCum, withoutSME.ETBytesCum)
	}
}

func TestDisableCacheStillCorrectAndCostsMore(t *testing.T) {
	g := gen.Community(4, 10, 0.4, 11)
	p := pattern.ByName("q4")
	want := oracleCount(g, p)
	// Load balancing is off for determinism (see the SM-E test above).
	mCached := cluster.NewMetrics(3)
	mUncached := cluster.NewMetrics(3)
	cached := runRADS(t, g, p, 3, Config{DisableSME: true, DisableLoadBalancing: true, Metrics: mCached})
	uncached := runRADS(t, g, p, 3, Config{DisableSME: true, DisableCache: true, DisableLoadBalancing: true, Metrics: mUncached})
	if cached.Total != want || uncached.Total != want {
		t.Fatalf("counts: cached=%d uncached=%d want=%d", cached.Total, uncached.Total, want)
	}
	// Compare fetchV only: total bytes include checkR/shareR polling,
	// whose round count is scheduling-dependent (see the SM-E test
	// above); the cache's whole effect is on fetch traffic.
	fetchBytes := func(mt *cluster.Metrics) int64 { return mt.ByKind()["fetchV"] }
	if fetchBytes(mUncached) < fetchBytes(mCached) {
		t.Errorf("dropping the cache should not reduce fetch traffic: %d vs %d",
			fetchBytes(mUncached), fetchBytes(mCached))
	}
}

func TestRegionGroupsBoundMemoryAndStayCorrect(t *testing.T) {
	g := gen.Community(4, 12, 0.35, 13)
	p := pattern.ByName("q4")
	want := oracleCount(g, p)
	// One-node segments: one candidate per group, same answer.
	res := runRADSSegmented(t, g, p, 3, Config{}, 1)
	if res.Total != want {
		t.Errorf("Total = %d, want %d", res.Total, want)
	}
	if res.RegionGroups < 3 {
		t.Errorf("expected many region groups, got %d", res.RegionGroups)
	}
	big := runRADS(t, g, p, 3, Config{})
	if big.Total != want {
		t.Errorf("big groups Total = %d, want %d", big.Total, want)
	}
	if big.ETBytesPeak > 0 && res.ETBytesPeak > big.ETBytesPeak {
		t.Errorf("small groups should not raise the trie peak: %d vs %d", res.ETBytesPeak, big.ETBytesPeak)
	}
}

func TestRandomGroupingCorrect(t *testing.T) {
	g := gen.Community(4, 10, 0.35, 17)
	p := pattern.ByName("q2")
	want := oracleCount(g, p)
	res := runRADSSegmented(t, g, p, 3, Config{RandomGrouping: true}, 4)
	if res.Total != want {
		t.Errorf("Total = %d, want %d", res.Total, want)
	}
}

func TestPlanOverrideRanSAndRanM(t *testing.T) {
	g := gen.Community(4, 10, 0.35, 19)
	p := pattern.ByName("q5")
	want := oracleCount(g, p)
	for seed := int64(0); seed < 3; seed++ {
		pl := mustRandomStar(t, p, seed)
		res := runRADS(t, g, p, 3, Config{Plan: pl})
		if res.Total != want {
			t.Errorf("RanS seed %d: Total = %d, want %d", seed, res.Total, want)
		}
	}
}

func TestLoadBalancingStealsAndStaysCorrect(t *testing.T) {
	// Force imbalance: one group per candidate and no SME, so fast
	// machines steal from slow ones.
	g := gen.Community(5, 10, 0.35, 23)
	p := pattern.ByName("q2")
	want := oracleCount(g, p)
	res := runRADSSegmented(t, g, p, 4, Config{DisableSME: true}, 1)
	if res.Total != want {
		t.Errorf("Total = %d, want %d", res.Total, want)
	}
	noSteal := runRADSSegmented(t, g, p, 4, Config{DisableSME: true, DisableLoadBalancing: true}, 1)
	if noSteal.Total != want {
		t.Errorf("no-steal Total = %d, want %d", noSteal.Total, want)
	}
}

func TestMemoryBudgetOOM(t *testing.T) {
	g := gen.Community(4, 12, 0.5, 29)
	p := pattern.ByName("q4")
	// Absurdly small budget must fail with ErrOutOfMemory.
	part := partition.KWay(g, 3, 99)
	budget := cluster.NewMemBudget(3, 64)
	_, err := Run(part, p, Config{Budget: budget, DisableSME: true})
	if !errors.Is(err, cluster.ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
}

func TestMemoryBudgetRegionGroupsSurvive(t *testing.T) {
	// The Section 7 robustness claim: under a budget that kills
	// monolithic processing, small region groups finish the query.
	g := gen.Community(4, 12, 0.5, 29)
	p := pattern.ByName("q4")
	want := oracleCount(g, p)
	part := partition.KWay(g, 3, 99)

	budget := cluster.NewMemBudget(3, 1<<20)
	res, err := Run(part, p, Config{Budget: budget})
	if err != nil {
		t.Fatalf("budgeted run failed: %v", err)
	}
	if res.Total != want {
		t.Errorf("Total = %d, want %d", res.Total, want)
	}
	if res.PeakMemBytes == 0 || res.PeakMemBytes > 1<<20 {
		t.Errorf("PeakMemBytes = %d, want within budget", res.PeakMemBytes)
	}
}

// TestOnEmbeddingDeliversRealEmbeddings checks that a streaming run on
// the default configuration delivers each embedding it counts exactly
// once, and only real embeddings.
func TestOnEmbeddingDeliversRealEmbeddings(t *testing.T) {
	checkStreamingRun(t, gen.Community(3, 10, 0.4, 31), pattern.ByName("q2"), Config{})
}

// TestFrontierSplitStreaming checks exactly-once streaming when a
// round's frontier is spread wide: every candidate through region groups
// (no SM-E) on eight pool workers a machine that steal from each other,
// so groups a machine's workers run side by side, and groups other
// machines' workers stole, all emit full embeddings.
func TestFrontierSplitStreaming(t *testing.T) {
	checkStreamingRun(t, gen.Community(5, 14, 0.3, 31), pattern.ByName("q1"), Config{DisableSME: true, Workers: 8})
}

// checkStreamingRun runs p on g over three machines with an OnEmbedding
// callback and checks the total and the streamed embeddings against the
// oracle.
func checkStreamingRun(t *testing.T, g *graph.Graph, p *pattern.Pattern, cfg Config) {
	t.Helper()
	var mu sync.Mutex
	var got [][]graph.VertexID
	cfg.OnEmbedding = func(machine int, f []graph.VertexID) {
		mu.Lock()
		got = append(got, append([]graph.VertexID(nil), f...))
		mu.Unlock()
	}
	res := runRADS(t, g, p, 3, cfg)
	want := oracleCount(g, p)
	if res.Total != want {
		t.Errorf("%s workers=%d: Total = %d, oracle %d", p.Name, cfg.Workers, res.Total, want)
	}
	checkStreamed(t, g, p, got, want)
}

func TestCompressionAccountingPresent(t *testing.T) {
	g := gen.Community(4, 12, 0.4, 37)
	p := pattern.ByName("q4")
	res := runRADS(t, g, p, 3, Config{DisableSME: true})
	if res.ETBytesCum <= 0 || res.ELBytesCum <= 0 {
		t.Fatalf("compression accounting missing: EL=%d ET=%d", res.ELBytesCum, res.ETBytesCum)
	}
	if res.ETBytesPeak <= 0 || res.ELBytesPeak <= 0 {
		t.Fatalf("peaks missing: EL=%d ET=%d", res.ELBytesPeak, res.ETBytesPeak)
	}
}

func TestTCPTransportEndToEnd(t *testing.T) {
	g := gen.Community(3, 8, 0.4, 41)
	p := pattern.Triangle()
	want := oracleCount(g, p)
	part := partition.KWay(g, 3, 99)
	mt := cluster.NewMetrics(3)
	tr, err := cluster.NewTCPTransport(3, mt)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	res, err := Run(part, p, Config{Transport: tr, Metrics: mt, DisableSME: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != want {
		t.Errorf("TCP Total = %d, want %d", res.Total, want)
	}
	if res.CommBytes == 0 {
		t.Error("TCP run should have network traffic with SME disabled")
	}
}

func TestDisconnectedPatternRejected(t *testing.T) {
	g := gen.Grid(3, 3)
	part := partition.KWay(g, 2, 1)
	bad := pattern.New("disc", 4, 0, 1, 2, 3)
	if _, err := Run(part, bad, Config{}); err == nil {
		t.Error("want error for disconnected pattern")
	}
}

func mustRandomStar(t *testing.T, p *pattern.Pattern, seed int64) *plan.Plan {
	t.Helper()
	pl, err := plan.RandomStar(p, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// TestKernelTallyIsPerRun: a run's kernel tally is its own. Two
// different patterns enumerated at the same time over the same
// partition each report exactly what they report alone (one worker per
// machine and no stealing, so a run's selections are deterministic).
func TestKernelTallyIsPerRun(t *testing.T) {
	part := partition.KWay(gen.PowerLaw(500, 8, 2.5, 120, 11), 3, 99)
	cfg := Config{Workers: 1, DisableLoadBalancing: true}
	queries := []*pattern.Pattern{pattern.ByName("q2"), pattern.ByName("q5")}
	solo := make([]graph.KernelTally, len(queries))
	for i, q := range queries {
		res, err := Run(part, q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		solo[i] = res.Kernels
		if solo[i].Merge+solo[i].Gallop == 0 {
			t.Fatalf("%s tallied no intersection: %+v", q.Name, solo[i])
		}
	}
	if solo[0] == solo[1] {
		t.Fatalf("both patterns tally %+v; the test needs two that differ", solo[0])
	}
	for round := 0; round < 3; round++ {
		var wg sync.WaitGroup
		for i, q := range queries {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := Run(part, q, cfg)
				if err != nil {
					t.Error(err)
					return
				}
				if res.Kernels != solo[i] {
					t.Errorf("%s beside another query: %+v, alone %+v", q.Name, res.Kernels, solo[i])
				}
			}()
		}
		wg.Wait()
	}
}
