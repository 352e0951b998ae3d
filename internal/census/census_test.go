package census

import (
	"context"
	"math/rand"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"rads/internal/gen"
	"rads/internal/graph"
	"rads/internal/obs"
	"rads/internal/pattern"
)

func loadKarate(t testing.TB) *graph.Graph {
	t.Helper()
	f, err := os.Open("../dataset/testdata/karate.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := graph.ReadEdgeList(f)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestESUMatchesBruteForce is the Kavosh-style parity check from the
// motif literature: on small random graphs, ESU must produce exactly
// the histogram of the exhaustive all-combinations oracle, for every k.
// The dense 11-vertex graphs hold subgraphs of every size up to MaxK,
// the only size whose last vertex uses the top bit of a worker's
// adjacency byte. The hub-first cases number the graphs as every
// served graph is numbered, so the lowest roots are the heaviest.
func TestESUMatchesBruteForce(t *testing.T) {
	hubFirst := func(g *graph.Graph) *graph.Graph {
		h, _ := graph.HubFirst(g)
		return h
	}
	starPath := graph.FromEdges(8, []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 3, V: 4}, {U: 4, V: 5}, {U: 6, V: 7},
	})
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"er12", gen.ErdosRenyi(12, 0.25, 1)},
		{"er10dense", gen.ErdosRenyi(10, 0.5, 2)},
		{"er11p40", gen.ErdosRenyi(11, 0.4, 40)},
		{"er11p55", gen.ErdosRenyi(11, 0.55, 41)},
		{"er11p70", gen.ErdosRenyi(11, 0.7, 42)},
		{"community", gen.Community(3, 5, 0.4, 3)},
		{"grid", gen.Grid(4, 3)},
		{"star+path", starPath},
		{"er11p55 hub-first", hubFirst(gen.ErdosRenyi(11, 0.55, 41))},
		{"community hub-first", hubFirst(gen.Community(3, 5, 0.4, 3))},
		{"star+path hub-first", hubFirst(starPath)},
	}
	for _, tc := range graphs {
		for k := 1; k <= MaxK; k++ {
			res, err := Run(context.Background(), tc.g, Config{K: k, Workers: 3})
			if err != nil {
				t.Fatalf("%s k=%d: %v", tc.name, k, err)
			}
			want := BruteForce(tc.g, k)
			if !reflect.DeepEqual(map[string]int64(res.Histogram), map[string]int64(want)) {
				t.Errorf("%s k=%d: ESU %v != brute force %v", tc.name, k, res.Histogram, want)
			}
			if res.Subgraphs != want.Total() {
				t.Errorf("%s k=%d: total %d != %d", tc.name, k, res.Subgraphs, want.Total())
			}
			if res.Partial {
				t.Errorf("%s k=%d: uncancelled run marked partial", tc.name, k)
			}
		}
	}
}

// goldenKarate3/4 pin the census of the committed karate-club fixture
// — recomputed here against the brute-force oracle and asserted
// byte-for-byte by the census smoke script over HTTP.
var goldenKarate3 = Histogram{
	"3:110": 393, // wedge
	"3:111": 45,  // triangle (the published count for Zachary's club)
}

var goldenKarate4 = Histogram{
	"4:110010": 681,  // path4
	"4:110011": 36,   // cycle4
	"4:110100": 1098, // star4
	"4:111100": 452,  // paw
	"4:111110": 85,   // diamond
	"4:111111": 11,   // clique4
}

func TestKarateGoldenHistograms(t *testing.T) {
	g := loadKarate(t)
	for _, tc := range []struct {
		k    int
		want Histogram
	}{{3, goldenKarate3}, {4, goldenKarate4}} {
		res, err := Run(context.Background(), g, Config{K: tc.k})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(map[string]int64(res.Histogram), map[string]int64(tc.want)) {
			t.Errorf("karate k=%d: got %v, golden %v", tc.k, res.Histogram, tc.want)
		}
		if want := BruteForce(g, tc.k); !reflect.DeepEqual(map[string]int64(want), map[string]int64(tc.want)) {
			t.Errorf("karate k=%d: oracle %v disagrees with golden %v", tc.k, want, tc.want)
		}
	}
}

// TestWorkersCountParity pins the acceptance criterion that the census
// parallelization is count-exact: any worker count yields the same
// histogram.
func TestWorkersCountParity(t *testing.T) {
	g := gen.PowerLaw(400, 6, 3.1, 100, 7)
	base, err := Run(context.Background(), g, Config{K: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if base.Subgraphs == 0 {
		t.Fatal("power-law census found nothing; test graph too small")
	}
	for _, workers := range []int{2, 4, 8} {
		res, err := Run(context.Background(), g, Config{K: 4, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(map[string]int64(res.Histogram), map[string]int64(base.Histogram)) {
			t.Errorf("workers=%d histogram differs from workers=1", workers)
		}
		if res.Workers != workers {
			t.Errorf("result reports %d workers, want %d", res.Workers, workers)
		}
	}
}

// TestCancellationReturnsPartial cancels mid-run (from the first
// progress callback that follows a finished root) and expects the
// context error plus a partial result covering some roots, not all.
func TestCancellationReturnsPartial(t *testing.T) {
	g := gen.PowerLaw(1200, 6, 3.1, 300, 9)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := Run(ctx, g, Config{
		K:       5,
		Workers: 2,
		OnProgress: func(p Progress) {
			if p.VerticesDone > 0 && p.VerticesDone < p.TotalVertices {
				cancel()
			}
		},
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || !res.Partial {
		t.Fatalf("cancelled run must return a partial result, got %+v", res)
	}
	if res.VerticesDone == 0 || res.VerticesDone >= res.TotalVertices {
		t.Errorf("partial covered %d/%d roots; want some but not all",
			res.VerticesDone, res.TotalVertices)
	}
	if res.Subgraphs != res.Histogram.Total() {
		t.Errorf("partial subgraphs %d != histogram total %d", res.Subgraphs, res.Histogram.Total())
	}
}

// TestCancellationInsideHubRoot cancels while one worker is deep inside
// a single root: the hub of a 3 000-leaf star roots C(3000,3) ≈ 4.5·10⁹
// 4-subgraphs, so only the stop poll inside the enumeration (not the
// one between roots) can end the run promptly.
func TestCancellationInsideHubRoot(t *testing.T) {
	const leaves = 3000
	edges := make([]graph.Edge, leaves)
	for i := range edges {
		edges[i] = graph.Edge{U: 0, V: graph.VertexID(i + 1)}
	}
	g := graph.FromEdges(leaves+1, edges)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(50*time.Millisecond, cancel)
	t0 := time.Now()
	res, err := Run(ctx, g, Config{K: 4, Workers: 2})
	if took := time.Since(t0); took > 2*time.Second {
		t.Errorf("cancelled run returned after %v, want < 2s", took)
	}
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || !res.Partial {
		t.Fatalf("cancelled run must return a partial result, got %+v", res)
	}
	if res.Subgraphs == 0 || res.Subgraphs != res.Histogram.Total() {
		t.Errorf("partial result counted %d subgraphs, histogram total %d; want the hub's prefix",
			res.Subgraphs, res.Histogram.Total())
	}
	if res.VerticesDone >= res.TotalVertices {
		t.Errorf("interrupted hub root counted as done: %d/%d roots", res.VerticesDone, res.TotalVertices)
	}
}

// TestAllocsDoNotGrowWithSubgraphs guards the hot path against
// per-subgraph allocations: a census of a graph with about six times
// the subgraphs must allocate about as often.
func TestAllocsDoNotGrowWithSubgraphs(t *testing.T) {
	allocs := func(g *graph.Graph) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := Run(context.Background(), g, Config{K: 4, Workers: 1}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := allocs(gen.PowerLaw(400, 6, 3.1, 100, 7))
	large := allocs(gen.PowerLaw(1600, 6, 3.1, 400, 7))
	if diff := large - small; diff >= 50 || diff <= -50 {
		t.Errorf("allocations per census: %.0f on the small graph, %.0f on the large one; want within 50", small, large)
	}
}

// TestProgressMonotonicAndFinal asserts every progress field only ever
// grows, some report lands mid-run, and the final report equals the
// result. The graph's 186 769 4-subgraphs make each worker fold many
// times before the cursor runs out.
func TestProgressMonotonicAndFinal(t *testing.T) {
	g := gen.PowerLaw(400, 6, 3.1, 100, 7)
	var mu sync.Mutex
	var seen []Progress
	res, err := Run(context.Background(), g, Config{
		K:       4,
		Workers: 3,
		OnProgress: func(p Progress) {
			mu.Lock()
			seen = append(seen, p)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) == 0 {
		t.Fatal("no progress callbacks")
	}
	for i := 1; i < len(seen); i++ {
		a, b := seen[i-1], seen[i]
		if b.VerticesDone < a.VerticesDone || b.SubgraphsSeen < a.SubgraphsSeen || b.Elapsed < a.Elapsed {
			t.Fatalf("progress regressed: %+v then %+v", a, b)
		}
	}
	if first := seen[0]; first.SubgraphsSeen <= 0 || first.SubgraphsSeen >= res.Subgraphs {
		t.Errorf("first progress %+v is not mid-run (%d subgraphs in all)", first, res.Subgraphs)
	}
	last := seen[len(seen)-1]
	if last.VerticesDone != int64(g.NumVertices()) || last.SubgraphsSeen != res.Subgraphs {
		t.Errorf("final progress %+v != result {%d roots, %d subgraphs}",
			last, g.NumVertices(), res.Subgraphs)
	}
}

// TestCheckpointDeliversPartialHistograms asserts the checkpoint hook
// fires with growing, internally consistent histograms, partial ones
// among them, and ends on the complete one.
func TestCheckpointDeliversPartialHistograms(t *testing.T) {
	g := gen.PowerLaw(1200, 6, 3.1, 300, 13)
	var mu sync.Mutex
	var totals []int64
	var final Histogram
	res, err := Run(context.Background(), g, Config{
		K:       3,
		Workers: 2,
		OnCheckpoint: func(h Histogram, p Progress) {
			mu.Lock()
			totals = append(totals, h.Total())
			final = h
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(totals) == 0 {
		t.Fatal("no checkpoints")
	}
	for i := 1; i < len(totals); i++ {
		if totals[i] < totals[i-1] {
			t.Fatalf("checkpoint totals regressed: %v", totals)
		}
	}
	if totals[0] <= 0 || totals[0] >= res.Subgraphs {
		t.Errorf("first checkpoint holds %d of %d subgraphs; want a partial one", totals[0], res.Subgraphs)
	}
	if !reflect.DeepEqual(map[string]int64(final), map[string]int64(res.Histogram)) {
		t.Errorf("last checkpoint %v != final histogram %v", final, res.Histogram)
	}
}

// TestTraceSpans checks a census records per-worker enumeration spans
// into a provided trace.
func TestTraceSpans(t *testing.T) {
	tr := obs.NewTrace()
	g := gen.Community(4, 8, 0.3, 17)
	if _, err := Run(context.Background(), g, Config{K: 3, Workers: 2, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	prof := tr.Snapshot(time.Millisecond)
	if prof.Phase("enumerate") <= 0 {
		t.Errorf("no enumerate phase in %+v", prof.Phases)
	}
	if prof.Phase("enumerate/worker") <= 0 {
		t.Errorf("no per-worker spans in %+v", prof.Phases)
	}
}

func TestConfigValidation(t *testing.T) {
	g := gen.Grid(2, 2)
	for _, k := range []int{0, -1, MaxK + 1} {
		if _, err := Run(context.Background(), g, Config{K: k}); err == nil {
			t.Errorf("k=%d accepted", k)
		}
	}
	if _, err := Run(context.Background(), nil, Config{K: 3}); err == nil {
		t.Error("nil graph accepted")
	}
	// k greater than the vertex count is a legal, empty census.
	res, err := Run(context.Background(), g, Config{K: 6})
	if err != nil || res.Subgraphs != 0 {
		t.Errorf("k>n: res=%+v err=%v, want empty histogram", res, err)
	}
}

func TestClassNames(t *testing.T) {
	g := loadKarate(t)
	res, err := Run(context.Background(), g, Config{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"path4": true, "star4": true, "cycle4": true,
		"paw": true, "diamond": true, "clique4": true,
	}
	for _, key := range res.Histogram.Keys() {
		name := ClassName(key)
		if !want[name] {
			t.Errorf("key %q named %q; not a known 4-vertex class", key, name)
		}
		delete(want, name)
	}
	if len(want) != 0 {
		t.Errorf("karate k=4 census missing classes: %v", want)
	}
	if ClassName("nonsense") != "" {
		t.Error("unknown key must name to empty string")
	}
}

// TestRandomizedParity hammers parity on random graphs across sizes
// and densities (seeded, so failures reproduce).
func TestRandomizedParity(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized parity sweep")
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		n := 8 + rng.Intn(6)
		p := 0.15 + rng.Float64()*0.4
		g := gen.ErdosRenyi(n, p, rng.Int63())
		k := 2 + rng.Intn(4)
		res, err := Run(context.Background(), g, Config{K: k, Workers: 1 + rng.Intn(4)})
		if err != nil {
			t.Fatal(err)
		}
		want := BruteForce(g, k)
		if !reflect.DeepEqual(map[string]int64(res.Histogram), map[string]int64(want)) {
			t.Errorf("trial %d (n=%d p=%.2f k=%d): ESU %v != oracle %v", trial, n, p, k, res.Histogram, want)
		}
	}
}

// FuzzCensusParity decodes bytes into a graph of at most 11 vertices,
// a size k in 1..MaxK and a worker count in 1..4, and requires ESU to
// give the brute-force histogram. The first three bytes choose n, k
// and the workers; each later pair of bytes is an edge.
func FuzzCensusParity(f *testing.F) {
	f.Add([]byte{10, 3, 1, 0, 1, 1, 2, 2, 3, 3, 0, 0, 2})
	f.Add([]byte{11, 6, 3, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 7, 8, 8, 9, 9, 10})
	f.Add([]byte{7, 7, 2, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 1, 2, 3, 4, 5, 6, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 1 + int(data[0])%11
		k := 1 + int(data[1])%MaxK
		workers := 1 + int(data[2])%4
		var edges []graph.Edge
		for i := 3; i+1 < len(data); i += 2 {
			edges = append(edges, graph.Edge{U: graph.VertexID(int(data[i]) % n), V: graph.VertexID(int(data[i+1]) % n)})
		}
		g := graph.FromEdges(n, edges)
		res, err := Run(context.Background(), g, Config{K: k, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if want := BruteForce(g, k); !reflect.DeepEqual(map[string]int64(res.Histogram), map[string]int64(want)) {
			t.Fatalf("n=%d k=%d workers=%d edges %v: ESU %v, brute force %v", n, k, workers, edges, res.Histogram, want)
		}
	})
}

// BenchmarkCensus measures census throughput by worker count on a
// power-law graph numbered hub-first, as every served graph is — the
// scaling story behind the Workers knob. The heaviest roots come
// first, so a worker pool that handed out roots in blocks would leave
// one worker with most of the census.
func BenchmarkCensus(b *testing.B) {
	g, _ := graph.HubFirst(gen.PowerLaw(800, 6, 3.1, 200, 21))
	for _, workers := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "w1", 2: "w2", 4: "w4"}[workers], func(b *testing.B) {
			var subgraphs int64
			for i := 0; i < b.N; i++ {
				res, err := Run(context.Background(), g, Config{K: 4, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				subgraphs = res.Subgraphs
			}
			b.ReportMetric(float64(subgraphs)/b.Elapsed().Seconds()*float64(b.N), "subgraphs/s")
		})
	}
}

// TestClassKeysMatchCanonicalKey: the class memo gives every mask the
// key pattern.CanonicalKey gives it — all masks up to k = 5 (k = 6 too
// without -short), and random ones at k = 6 and 7.
func TestClassKeysMatchCanonicalKey(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for k := 1; k <= MaxK; k++ {
		memo := newClassMemo(k)
		all := uint32(1) << (k * (k - 1) / 2)
		masks := []uint32{}
		if k <= 5 || (k == 6 && !testing.Short()) {
			for m := uint32(0); m < all; m++ {
				masks = append(masks, m)
			}
		} else {
			for i := 0; i < 3000; i++ {
				masks = append(masks, rng.Uint32()%all)
			}
		}
		for _, m := range masks {
			var pairs []int
			bit := 0
			for j := 1; j < k; j++ {
				for i := 0; i < j; i++ {
					if m&(1<<bit) != 0 {
						pairs = append(pairs, i, j)
					}
					bit++
				}
			}
			want := pattern.New("census", k, pairs...).CanonicalKey()
			if got := memo.key(m); got != want {
				t.Fatalf("k=%d mask %#x: key %s, canonical key %s", k, m, got, want)
			}
		}
	}
}

// TestInvariantSeparatesClasses: over all masks of k vertices the
// class invariant takes exactly as many values as there are graphs on
// k vertices (OEIS A000088). An isomorphism-invariant function with
// that many values names each class, so the memo needs no isomorphism
// test up to MaxK.
func TestInvariantSeparatesClasses(t *testing.T) {
	graphs := [MaxK + 1]int{1, 1, 2, 4, 11, 34, 156, 1044}
	for k := 1; k <= MaxK; k++ {
		if k == MaxK && testing.Short() {
			continue // 2^21 masks
		}
		seen := make(map[[MaxK]uint32]bool)
		for m := uint32(0); m < 1<<(k*(k-1)/2); m++ {
			adj := unpack(k, m)
			seen[invariant(k, &adj)] = true
		}
		if len(seen) != graphs[k] {
			t.Errorf("k=%d: the invariant takes %d values over all masks; there are %d graphs", k, len(seen), graphs[k])
		}
	}
}

// TestFinalizeBoundedByEnumerate: at k = 7 this census meets 55 008
// labelled masks but only 846 classes, so turning the mask tally into
// a histogram must cost about as much as enumerating it (under twice
// as much, measured on a 2-vCPU box), not the 60 times as much that
// canonicalising every mask did. The bound leaves room for noise.
func TestFinalizeBoundedByEnumerate(t *testing.T) {
	g := gen.ErdosRenyi(26, 0.5, 5)
	tr := obs.NewTrace()
	res, err := Run(context.Background(), g, Config{K: 7, Workers: 1, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if res.Subgraphs != 555574 || len(res.Histogram) != 846 {
		t.Fatalf("%d subgraphs in %d classes, want 555574 in 846", res.Subgraphs, len(res.Histogram))
	}
	prof := tr.Snapshot(time.Second)
	enum, fin := prof.Phase("enumerate"), prof.Phase("finalize")
	t.Logf("enumerate %.3fs, finalize %.3fs", enum, fin)
	if fin > 6*enum {
		t.Errorf("finalize took %.3fs, more than 6x the %.3fs enumeration", fin, enum)
	}
}
