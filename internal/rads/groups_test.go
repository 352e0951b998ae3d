package rads

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rads/internal/cluster"
	"rads/internal/gen"
	"rads/internal/graph"
	"rads/internal/partition"
	"rads/internal/pattern"
)

// mapProximityGroups is proximityGroups as it was built on three maps a
// group — remaining candidates, the group's neighbourhood and the
// frontier counts. It stays as the reference the dense version must
// reproduce group for group.
func mapProximityGroups(g *graph.Graph, cands []graph.VertexID, size int) [][]graph.VertexID {
	remaining := make(map[graph.VertexID]bool, len(cands))
	for _, v := range cands {
		remaining[v] = true
	}
	var groups [][]graph.VertexID
	sorted := append([]graph.VertexID(nil), cands...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, seed := range sorted {
		if !remaining[seed] {
			continue
		}
		delete(remaining, seed)
		rg := []graph.VertexID{seed}
		adjSet := make(map[graph.VertexID]bool)
		frontier := make(map[graph.VertexID]int)
		grow := func(w graph.VertexID) {
			for _, x := range g.Adj(w) {
				if adjSet[x] {
					continue
				}
				adjSet[x] = true
				for _, y := range g.Adj(x) {
					if remaining[y] {
						frontier[y]++
					}
				}
			}
		}
		grow(seed)
		for len(rg) < size {
			best, bestScore := graph.VertexID(-1), -1.0
			for v, c := range frontier {
				score := float64(c) / float64(len(g.Adj(v)))
				if score > bestScore || (score == bestScore && v < best) {
					best, bestScore = v, score
				}
			}
			if best < 0 {
				break
			}
			delete(remaining, best)
			delete(frontier, best)
			rg = append(rg, best)
			grow(best)
		}
		groups = append(groups, rg)
	}
	return groups
}

// TestProximityGroupsMatchMapReference: on five generators × two
// partitions, with singleton groups and with a size that packs several
// candidates a group, the dense grouping forms exactly the reference's
// groups, in the same order.
func TestProximityGroupsMatchMapReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"powerlaw", gen.PowerLaw(600, 6, 2.3, 50, 3)},
		{"community", gen.Community(6, 30, 0.25, 3)},
		{"rmat", gen.RMAT(9, 4, 3)},
		{"barabasi", gen.BarabasiAlbert(500, 3, 3)},
		{"road", gen.RoadNet(20, 20, 3)},
	} {
		for _, machines := range []int{2, 4} {
			part := partition.KWay(tc.g, machines, 5)
			for id := range machines {
				var cands []graph.VertexID
				for _, v := range part.Vertices(id) {
					if tc.g.Degree(v) >= 2 {
						cands = append(cands, v)
					}
				}
				for _, size := range []int{1, 16} {
					got := proximityGroups(tc.g, cands, size)
					want := mapProximityGroups(tc.g, cands, size)
					if !slices.EqualFunc(got, want, slices.Equal) {
						t.Fatalf("%s on %d machines, machine %d, size %d: %d groups, reference %d, first difference at %d",
							tc.name, machines, id, size, len(got), len(want), firstDiff(got, want))
					}
					if size > 1 && len(got) >= len(cands) {
						t.Errorf("%s on %d machines, machine %d: %d groups for %d candidates; the size packs nothing",
							tc.name, machines, id, len(got), len(cands))
					}
				}
			}
		}
	}
}

func firstDiff(a, b [][]graph.VertexID) int {
	for i := range min(len(a), len(b)) {
		if !slices.Equal(a[i], b[i]) {
			return i
		}
	}
	return min(len(a), len(b))
}

func TestProximityGroupsPartitionCandidates(t *testing.T) {
	g := gen.Community(4, 15, 0.3, 61)
	var cands []graph.VertexID
	for v := 0; v < g.NumVertices(); v += 2 {
		cands = append(cands, graph.VertexID(v))
	}
	groups := proximityGroups(g, cands, 10)
	seen := make(map[graph.VertexID]bool)
	total := 0
	for _, rg := range groups {
		if len(rg) == 0 {
			t.Fatal("empty region group")
		}
		if len(rg) > 10 {
			t.Errorf("group of %d exceeds the size bound", len(rg))
		}
		for _, v := range rg {
			if seen[v] {
				t.Fatalf("candidate %d in two groups", v)
			}
			seen[v] = true
			total++
		}
	}
	if total != len(cands) {
		t.Fatalf("groups cover %d of %d candidates", total, len(cands))
	}
}

func TestProximityGroupsKeepNeighboursTogether(t *testing.T) {
	// Two far-apart cliques: grouping must not mix them while capacity
	// allows staying local (the Figure 6 scenario).
	b := graph.NewBuilder(12)
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			b.AddEdge(graph.VertexID(i), graph.VertexID(j))
			b.AddEdge(graph.VertexID(i+6), graph.VertexID(j+6))
		}
	}
	b.AddEdge(5, 6) // thin bridge
	g := b.Build()
	cands := []graph.VertexID{0, 1, 2, 7, 8, 9}
	groups := proximityGroups(g, cands, 3)
	if len(groups) != 2 {
		t.Fatalf("groups = %v, want 2", groups)
	}
	side := func(v graph.VertexID) int {
		if v < 6 {
			return 0
		}
		return 1
	}
	for _, rg := range groups {
		for _, v := range rg[1:] {
			if side(v) != side(rg[0]) {
				t.Errorf("group %v mixes the two cliques", rg)
			}
		}
	}
}

func TestProximityGroupsSingletonWhenTargetTiny(t *testing.T) {
	g := gen.Clique(6)
	cands := []graph.VertexID{0, 1, 2, 3}
	groups := proximityGroups(g, cands, 1)
	if len(groups) != 4 {
		t.Fatalf("groups = %d, want one per candidate", len(groups))
	}
}

// TestRegionGroupsHoldOneSegment: unbudgeted and under two budgets, by
// proximity and in random chunks, at one and at three workers, with
// stealing off and on, every machine's region groups cover its R-Meef
// candidates and none holds more than the engine's segment of them,
// nor more than a worker's share — of a group a worker, or two with
// stealing on; where the candidates outnumber that bound, groups fill
// up to it, so every worker (and a thief) finds a group.
func TestRegionGroupsHoldOneSegment(t *testing.T) {
	g := gen.PowerLaw(2000, 6, 2.3, 50, 5)
	part := partition.KWay(g, 2, 3)
	for _, limit := range []int64{0, 64 << 10, 512 << 10} {
		for _, random := range []bool{false, true} {
			for _, workers := range []int{1, 3} {
				for _, steal := range []bool{false, true} {
					e := hostedEngine(t, part, pattern.ByName("q1"), Config{
						DisableSME: true, RandomGrouping: random, Workers: workers, DisableLoadBalancing: !steal,
						Budget: cluster.NewMemBudget(part.M, limit),
					})
					if want := segmentFor(e.cfg.Budget, workers); e.segment != want {
						t.Fatalf("limit %d: segment %d, want %d", limit, e.segment, want)
					}
					shares := workers
					if steal {
						shares *= 2
					}
					for _, m := range e.machines {
						_, c2 := m.splitCandidates()
						bound := min(e.segment, (len(c2)+shares-1)/shares)
						groups := m.regionGroups(c2)
						covered, largest := 0, 0
						for _, rg := range groups {
							covered += len(rg)
							largest = max(largest, len(rg))
						}
						cell := fmt.Sprintf("limit %d random %v workers %d steal %v machine %d", limit, random, workers, steal, m.id)
						if covered != len(c2) {
							t.Errorf("%s: groups cover %d of %d candidates", cell, covered, len(c2))
						}
						if largest > bound || len(c2) > bound && largest < bound {
							t.Errorf("%s: largest of %d groups holds %d candidates, segment %d, %d candidates",
								cell, len(groups), largest, e.segment, len(c2))
						}
						if len(c2) >= shares && len(groups) < shares {
							t.Errorf("%s: %d groups for %d shares", cell, len(groups), shares)
						}
					}
				}
			}
		}
	}
}

func TestChunkGroups(t *testing.T) {
	cands := []graph.VertexID{1, 2, 3, 4, 5}
	groups := chunkGroups(cands, 2)
	if len(groups) != 3 || len(groups[0]) != 2 || len(groups[2]) != 1 {
		t.Fatalf("chunkGroups = %v", groups)
	}
	if got := chunkGroups(nil, 3); got != nil {
		t.Errorf("chunkGroups(nil) = %v", got)
	}
}

func TestGroupQueueConcurrency(t *testing.T) {
	q := new(groupQueue)
	q.Fill([][]graph.VertexID{{1}, {2}, {3}, {4}})
	if q.Len() != 4 {
		t.Fatalf("Len = %d", q.Len())
	}
	popped := make(chan []graph.VertexID, 8)
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			for {
				g, ok := q.Pop()
				if !ok {
					done <- struct{}{}
					return
				}
				popped <- g
			}
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	close(popped)
	seen := make(map[graph.VertexID]bool)
	for g := range popped {
		if seen[g[0]] {
			t.Fatalf("group %v popped twice", g)
		}
		seen[g[0]] = true
	}
	if len(seen) != 4 {
		t.Fatalf("popped %d groups, want 4", len(seen))
	}
}

func TestViewDiscipline(t *testing.T) {
	g := gen.Grid(3, 3)
	part := mustPartition(t, g, 3)
	e := &engine{g: g, part: part, cfg: Config{}}
	v := newView(e, 0)

	var local, foreign graph.VertexID = -1, -1
	for x := 0; x < g.NumVertices(); x++ {
		if part.Owner[x] == 0 && local < 0 {
			local = graph.VertexID(x)
		}
		if part.Owner[x] != 0 && foreign < 0 {
			foreign = graph.VertexID(x)
		}
	}
	st := &groupState{view: v}
	if _, ok := st.adjKnown(local); !ok {
		t.Error("owned vertex must be known")
	}
	if _, ok := st.adjKnown(foreign); ok {
		t.Error("foreign vertex must be unknown before fetch")
	}
	if v.pinCached(foreign) {
		t.Error("pinCached must miss before fetch")
	}
	// mustAdj on unfetched foreign vertex panics: the discipline check.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("mustAdj should panic on unfetched foreign vertex")
			}
		}()
		st.mustAdj(foreign)
	}()
	if err := v.insertPinned(foreign, g.Adj(foreign)); err != nil {
		t.Fatal(err)
	}
	st.logPin(foreign, false)
	if _, ok := v.cachedAdj(foreign); !ok {
		t.Error("insertPinned did not cache")
	}
	if got := st.mustAdj(foreign); len(got) != g.Degree(foreign) {
		t.Error("cached adjacency differs")
	}
	// A pinned entry survives the drop: the in-flight-round guarantee
	// groups rely on when a concurrent group triggers the cache valve.
	v.dropAll()
	if got := st.mustAdj(foreign); len(got) != g.Degree(foreign) {
		t.Error("pinned adjacency evicted by dropAll")
	}
	// Once the frame unpins, the next drop evicts it.
	st.unpinTo(0, 0)
	v.dropAll()
	if _, ok := v.cachedAdj(foreign); ok {
		t.Error("dropAll kept an unpinned entry")
	}
}

func TestViewEdgeKnown(t *testing.T) {
	g := gen.Grid(2, 3) // path-ish grid
	part := mustPartition(t, g, 2)
	e := &engine{g: g, part: part, cfg: Config{}}
	v := newView(e, 0)
	var local graph.VertexID = -1
	for x := 0; x < g.NumVertices(); x++ {
		if part.Owner[x] == 0 {
			local = graph.VertexID(x)
			break
		}
	}
	st := &groupState{view: v}
	nb := g.Adj(local)[0]
	if exists, det := st.edgeKnown(local, nb); !det || !exists {
		t.Errorf("edge with local endpoint: exists=%v det=%v", exists, det)
	}
	// An edge between two foreign vertices is undetermined.
	var f1, f2 graph.VertexID = -1, -1
	for x := 0; x < g.NumVertices(); x++ {
		if part.Owner[x] != 0 {
			if f1 < 0 {
				f1 = graph.VertexID(x)
			} else {
				f2 = graph.VertexID(x)
				break
			}
		}
	}
	if f2 >= 0 {
		if _, det := st.edgeKnown(f1, f2); det {
			t.Error("edge between two unfetched foreign vertices must be undetermined")
		}
	}
}

func mustPartition(t *testing.T, g *graph.Graph, m int) *partition.Partition {
	t.Helper()
	return partition.KWay(g, m, 3)
}

// TestStolenGroupsRunOnWorkerPool drives work stealing by hand through
// the daemon handler: machines 0 and 1 form their region groups (one per
// candidate, no SM-E) but never run them, so machines 2 and 3 — whose
// pool workers run their own groups and then steal, also from each
// other — must take every one of them via checkR/shareR. The fold of
// all four machines must match the oracle.
func TestStolenGroupsRunOnWorkerPool(t *testing.T) {
	g := gen.Community(5, 10, 0.35, 23)
	part := partition.KWay(g, 4, 7)
	q := pattern.ByName("q2")
	e := hostedEngine(t, part, q, Config{DisableSME: true, Workers: 4})
	idle := 0
	for _, m := range e.machines {
		_, c2 := m.splitCandidates()
		groups := chunkGroups(c2, 1)
		m.groupsFormed = len(groups)
		m.queue.Fill(groups)
		if m.id < 2 {
			idle += len(groups)
		}
	}
	if idle == 0 {
		t.Fatal("machines 0 and 1 formed no groups to steal")
	}

	var wg sync.WaitGroup
	errs := make([]error, part.M)
	for _, m := range e.machines[2:] {
		wg.Add(1)
		go func(m *machine) {
			defer wg.Done()
			errs[m.id] = m.processGroups()
		}(m)
	}
	wg.Wait()
	resps := make([]*RunQueryResponse, part.M)
	for i, m := range e.machines {
		if errs[i] != nil {
			t.Fatalf("machine %d: %v", i, errs[i])
		}
		resps[i] = m.response(nil)
	}
	res, err := fold(resps)
	if err != nil {
		t.Fatal(err)
	}
	if res.StolenGroups < idle {
		t.Errorf("%d groups stolen, want at least the idle machines' %d", res.StolenGroups, idle)
	}
	if want := oracleCount(g, q); res.Total != want {
		t.Errorf("Total = %d, oracle %d", res.Total, want)
	}
}

// losingThief is a transport on which every other machine always
// reports an unprocessed group and every shareR loses its race for it,
// so a thief's checkR/shareR loop never finds the cluster drained.
type losingThief struct{ checks atomic.Int64 }

func (*losingThief) Register(int, cluster.Handler) {}
func (*losingThief) Close() error                  { return nil }

func (tr *losingThief) Call(from, to int, req cluster.Message) (cluster.Message, error) {
	switch req.(type) {
	case *cluster.CheckRRequest:
		tr.checks.Add(1)
		return &cluster.CheckRResponse{Unprocessed: 1}, nil
	case *cluster.ShareRRequest:
		return &cluster.ShareRResponse{OK: false}, nil
	}
	return nil, fmt.Errorf("unexpected %T", req)
}

// TestStealLoopEndsOnCancel runs a machine with no groups of its own on
// a cluster that never drains: its pool workers go straight to stealing
// and poll forever, until the context is cancelled, which must end
// processGroups with context.Canceled within a second.
func TestStealLoopEndsOnCancel(t *testing.T) {
	g := gen.Community(3, 8, 0.4, 5)
	part := partition.KWay(g, 3, 7)
	p := pattern.Triangle()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr := new(losingThief)
	e, err := newEngine(part, p, p.SymmetryBreaking(), Config{Context: ctx, Transport: tr, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	m := newMachine(e, 0)
	done := make(chan error, 1)
	go func() { done <- m.processGroups() }()

	for tr.checks.Load() < 100 {
		select {
		case err := <-done:
			t.Fatalf("processGroups returned %v before the cancel; the cluster never drains", err)
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("processGroups = %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("processGroups still stealing a second after the cancel")
	}
}
