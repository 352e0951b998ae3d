package rads

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"rads/internal/cluster"
	"rads/internal/etrie"
	"rads/internal/gen"
	"rads/internal/graph"
	"rads/internal/localenum"
	"rads/internal/partition"
	"rads/internal/pattern"
	"rads/internal/plan"
)

// hostedEngine builds an in-process engine with its machines spawned
// but not run, for tests that drive one phase by hand.
func hostedEngine(t *testing.T, part *partition.Partition, p *pattern.Pattern, cfg Config) *engine {
	t.Helper()
	e, err := newEngine(part, p, p.SymmetryBreaking(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.spawnMachines()
	t.Cleanup(func() { e.tr.Close() })
	return e
}

// frontierOf drives rounds 0..round-1 of machine m's own vertices by
// hand — fetch, expand, verify, filter — and returns the live results
// entering `round`, guard-pinned so that removing their children leaves
// them alive.
func frontierOf(t *testing.T, m *machine, st *groupState, round int) []etrie.Node {
	t.Helper()
	var frontier []etrie.Node
	for _, v := range m.e.part.Vertices(m.id) {
		root := st.trie.Node(0, v)
		st.trie.Link(root)
		frontier = append(frontier, root)
	}
	for r := 0; r < round; r++ {
		if err := m.fetchForeignPivots(st, r, frontier); err != nil {
			t.Fatal(err)
		}
		if err := m.expandRound(st, r, frontier); err != nil {
			t.Fatal(err)
		}
		if err := m.verifyAndFilter(st); err != nil {
			t.Fatal(err)
		}
		frontier = frontier[:0:0]
		for _, n := range st.created {
			if !st.trie.Dead(n) {
				frontier = append(frontier, n)
			}
		}
		st.created = st.created[:0]
	}
	for _, n := range frontier {
		st.trie.Pin(n)
	}
	return frontier
}

// TestWarmExpandRoundAllocatesNothing guards the per-candidate path:
// with every adjacency list the round touches known — owned, or in the
// fetched cache the lock-free slots publish — expanding a frontier
// through a one-leaf unit that has verification edges allocates nothing
// after the first pass: no used-set, no undetermined-edge slices, no
// candidate buffers, and no trie nodes, which the trie recycles from the
// results the previous pass removed.
func TestWarmExpandRoundAllocatesNothing(t *testing.T) {
	g := gen.Community(3, 14, 0.4, 7)
	part := partition.KWay(g, 2, 3)
	e := hostedEngine(t, part, pattern.ByName("q1"), Config{})
	round := len(e.pl.Units) - 1
	if round == 0 || len(e.unitLeaves[round]) != 1 || len(e.verif[e.redPos[e.unitLeaves[round][0]]]) == 0 {
		t.Fatalf("plan %v: want a last round with one leaf and a verification edge", e.pl.Units)
	}
	m := e.machines[0]
	// A fully warm cache: nothing is left to the EVI.
	for x := 0; x < g.NumVertices(); x++ {
		if v := graph.VertexID(x); !m.view.owned(v) {
			if err := m.view.insertPinned(v, g.Adj(v)); err != nil {
				t.Fatal(err)
			}
		}
	}

	st := m.newGroupState()
	frontier := frontierOf(t, m, st, round)

	pass := func() {
		if err := m.expandRound(st, round, frontier); err != nil {
			t.Fatal(err)
		}
		for _, n := range st.created {
			st.trie.Remove(n)
		}
		st.created = st.created[:0]
	}
	before := st.DistNodes
	pass() // grows the scratch to its high-water mark
	linked := st.DistNodes - before
	if linked == 0 {
		t.Fatal("the round produced nothing; graph too sparse for the test")
	}
	if st.evi.Len() != 0 {
		t.Fatalf("%d undetermined edges under a fully warm cache", st.evi.Len())
	}
	// Eight passes a run: nodes that are not recycled cost one slab chunk
	// per 256, which a single pass does not fill.
	if allocs := testing.AllocsPerRun(5, func() {
		for range 8 {
			pass()
		}
	}); allocs != 0 {
		t.Errorf("8 passes of expandRound allocate %v linking %d trie nodes each, want 0", allocs, linked)
	}
}

// TestWarmFlushSegmentAllocatesOnlyItsMessages is the verify-plane twin
// of the test above: with a cold cache the round leaves the verification
// edges whose pull the cost rule declined to the EVI (the fetch phase
// here is the product's, pulls included), and a warm expansion and
// flushSegment — trie nodes, index, per-owner edge lists, survivor list,
// the deferred-pivot fetch — must allocate nothing beyond what the
// verifyE exchanges carry over LocalTransport: a request, a response and
// its bit slice each.
func TestWarmFlushSegmentAllocatesOnlyItsMessages(t *testing.T) {
	g := gen.Community(3, 14, 0.4, 7)
	part := partition.KWay(g, 3, 3)
	metrics := cluster.NewMetrics(part.M)
	// q5 ends in a round with a verification edge and has a deferred end
	// vertex, so the flush also runs the deferred-pivot fetch phase.
	e := hostedEngine(t, part, pattern.ByName("q5"), Config{Metrics: metrics, Transport: cluster.NewLocalTransport(metrics)})
	round := len(e.pl.Units) - 1
	m := e.machines[0]

	st := m.newGroupState()
	frontier := frontierOf(t, m, st, round)
	if err := m.fetchForeignPivots(st, round, frontier); err != nil {
		t.Fatal(err)
	}

	undetermined := 0
	pass := func() {
		if err := m.expandRound(st, round, frontier); err != nil {
			t.Fatal(err)
		}
		undetermined = st.evi.Len()
		if err := m.flushSegment(st, round); err != nil {
			t.Fatal(err)
		}
	}
	pass() // grows the scratch, fetches what emitResults needs
	if undetermined == 0 || st.PulledLists == 0 {
		t.Fatalf("%d edges left to the EVI, %d lists pulled; the test needs a cold cache the rule pulls some of and declines the rest", undetermined, st.PulledLists)
	}
	nodes, calls, found, live := st.DistNodes, metrics.MessagesByKind()["verifyE"], st.Distributed, st.trie.NodeCount()
	pass()
	nodes, calls, found = st.DistNodes-nodes, metrics.MessagesByKind()["verifyE"]-calls, st.Distributed-found
	if calls == 0 || found == 0 || len(e.deferred) == 0 {
		t.Fatalf("%d verifyE calls, %d embeddings a pass, %d deferred vertices; want all three", calls, found, len(e.deferred))
	}
	if st.trie.NodeCount() != live {
		t.Errorf("a pass left the trie at %d nodes, was %d: the segment was not fully resolved", st.trie.NodeCount(), live)
	}
	want := float64(3 * calls)
	if allocs := testing.AllocsPerRun(5, pass); allocs != want {
		t.Errorf("expandRound+flushSegment allocate %v/pass linking %d trie nodes, want %v: 3 per verifyE exchange (%d)", allocs, nodes, want, calls)
	}
}

// TestSMEEmbeddingsStayOnOwnedVertices pins Proposition 1 for the
// order SM-E now runs on: an embedding rooted at a C1 candidate maps
// every query vertex to an owned data vertex whatever the matching
// order, so rooting a connectivity-first order at the plan's start
// vertex reads no foreign adjacency list — and the owner test drops
// nothing the unrestricted enumeration from the same roots finds. Every
// catalogue order keeps its candidates owned by construction
// (ownedByConstruction), so SM-E runs them without the owner test.
func TestSMEEmbeddingsStayOnOwnedVertices(t *testing.T) {
	g := gen.Community(3, 40, 0.2, 5) // three blocks: most of each is interior
	part := partition.KWay(g, 3, 7)
	for _, p := range append(pattern.QuerySet(), append(pattern.CliqueQuerySet(), pattern.Triangle())...) {
		pl, err := plan.Compute(p)
		if err != nil {
			t.Fatal(err)
		}
		if order := localenum.GreedyOrderFrom(p, pl.Units[0].Piv); !ownedByConstruction(p, order) {
			t.Errorf("%s: SM-E's order %v keeps the owner test", p.Name, order)
		}
	}
	for _, p := range append(pattern.QuerySet()[:5], pattern.CliqueQuerySet()[:3]...) {
		var mu sync.Mutex
		foreign := 0
		e := hostedEngine(t, part, p, Config{
			Workers: 2,
			OnEmbedding: func(machine int, f []graph.VertexID) {
				mu.Lock()
				defer mu.Unlock()
				for _, v := range f {
					if part.Owner[v] != int32(machine) {
						foreign++
					}
				}
			},
		})
		var found, want int64
		for _, m := range e.machines {
			c1, _ := m.splitCandidates()
			if len(c1) == 0 {
				continue
			}
			if err := m.runSME(c1); err != nil {
				t.Fatal(err)
			}
			found += m.SME
			want += localenum.Count(g, p, localenum.Options{
				Order:           localenum.GreedyOrderFrom(p, e.pl.Units[0].Piv),
				StartCandidates: c1,
			})
		}
		if foreign != 0 {
			t.Errorf("%s: SM-E delivered %d foreign vertices", p.Name, foreign)
		}
		if found != want {
			t.Errorf("%s: SM-E found %d, unrestricted enumeration from C1 finds %d", p.Name, found, want)
		}
		if found == 0 {
			t.Errorf("%s: SM-E found nothing; the partition leaves no interior", p.Name)
		}
	}
}

// TestSMEOwnerTestOnlyWhereNeeded checks the rule behind smeOptions on
// random connected patterns and random connected orders from random
// start vertices. Where ownedByConstruction holds, an enumeration from
// the C1 roots of that start vertex offers no foreign vertex to an
// Allowed predicate that only watches, and counts what the owner test
// counts; where it fails, smeOptions keeps the owner test.
func TestSMEOwnerTestOnlyWhereNeeded(t *testing.T) {
	g := gen.Grid(24, 24) // deep interiors: C1 roots for spans up to 5
	part := partition.KWay(g, 3, 3)
	rng := rand.New(rand.NewSource(77))
	held, failed, strayed := 0, 0, 0
	for c := 0; c < 150; c++ {
		p := randomConnectedPattern(rng, 3+rng.Intn(6))
		order := randomConnectedOrder(rng, p)
		rule := ownedByConstruction(p, order)
		e := hostedEngine(t, part, p, Config{})
		span := p.Span(order[0])
		for _, m := range e.machines {
			if opts := m.smeOptions(order); (opts.Allowed == nil) != rule {
				t.Fatalf("case %d (%s, order %v): rule %v but owner test set %v", c, p, order, rule, opts.Allowed != nil)
			}
			var c1 []graph.VertexID
			for _, v := range part.Vertices(m.id) {
				if int(part.BD[v]) >= span {
					c1 = append(c1, v)
				}
			}
			if len(c1) == 0 {
				continue // no StartCandidates means every vertex
			}
			foreign := 0
			watch := func(v graph.VertexID) bool {
				if part.Owner[v] != int32(m.id) {
					foreign++
				}
				return true
			}
			owned := func(v graph.VertexID) bool { return part.Owner[v] == int32(m.id) }
			opts := localenum.Options{Order: order, Constraints: e.cons, StartCandidates: c1}
			opts.Allowed = watch
			got := localenum.Count(g, p, opts)
			opts.Allowed = owned
			want := localenum.Count(g, p, opts)
			if got != want {
				t.Fatalf("case %d (%s, order %v): %d embeddings unrestricted, %d owned", c, p, order, got, want)
			}
			switch {
			case rule && foreign > 0:
				t.Fatalf("case %d (%s, order %v): rule holds but %d foreign candidates met on machine %d", c, p, order, foreign, m.id)
			case !rule && foreign > 0:
				strayed++
			}
		}
		if rule {
			held++
		} else {
			failed++
		}
	}
	if held == 0 || failed == 0 || strayed == 0 {
		t.Errorf("rule held on %d cases, failed on %d, met foreign vertices %d times: the draw does not exercise both sides", held, failed, strayed)
	}
}

// randomConnectedOrder draws a matching order from a random start
// vertex in which every later vertex has an earlier neighbour.
func randomConnectedOrder(rng *rand.Rand, p *pattern.Pattern) []pattern.VertexID {
	start := pattern.VertexID(rng.Intn(p.N()))
	order := []pattern.VertexID{start}
	placed := make([]bool, p.N())
	placed[start] = true
	for len(order) < p.N() {
		var next []pattern.VertexID
		for _, u := range order {
			for _, w := range p.Adj(u) {
				if !placed[w] && !slices.Contains(next, w) {
					next = append(next, w)
				}
			}
		}
		u := next[rng.Intn(len(next))]
		placed[u] = true
		order = append(order, u)
	}
	return order
}
