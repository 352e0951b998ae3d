package etrie

import (
	"math/rand"
	"slices"
	"testing"

	"rads/internal/graph"
)

// eviModel drives the index and the reference in lockstep, each on its
// own trie of identically shaped leaves, and compares every answer.
// Both tries recycle removed leaves in the same order, so a
// registration that outlives its leaf aliases the same new leaf on
// both sides.
type eviModel struct {
	t          *testing.T
	rng        *rand.Rand
	got        *EVI
	want       *mapEVI
	gotT       *Trie
	wantT      *refTrie
	gotLeaves  []Node
	wantLeaves []*refNode
	span       int32 // vertex ids are drawn from [-2, span)
}

func newEVIModel(t *testing.T, seed int64, span int32) *eviModel {
	return &eviModel{
		t: t, rng: rand.New(rand.NewSource(seed)), span: span,
		got: NewEVI(), want: newMapEVI(),
		gotT: New(), wantT: &refTrie{},
	}
}

func (m *eviModel) edge() graph.Edge {
	// Unnormalised on purpose, and now and then a negative id or a loop.
	return graph.Edge{U: graph.VertexID(m.rng.Int31n(m.span+2) - 2), V: graph.VertexID(m.rng.Int31n(m.span+2) - 2)}
}

// leaf links one fresh root-level leaf into each trie.
func (m *eviModel) leaf() int {
	v := graph.VertexID(len(m.gotLeaves))
	g, w := m.gotT.Node(0, v), m.wantT.Node(nil, v)
	m.gotT.Link(g)
	m.wantT.Link(w)
	m.gotLeaves, m.wantLeaves = append(m.gotLeaves, g), append(m.wantLeaves, w)
	return len(m.gotLeaves) - 1
}

func (m *eviModel) add(e graph.Edge, leaf int) {
	m.got.Add(e, m.gotLeaves[leaf])
	m.want.Add(e, m.wantLeaves[leaf])
}

func (m *eviModel) fail(e graph.Edge) {
	if g, w := m.got.Fail(e, m.gotT), m.want.Fail(e, m.wantT); g != w {
		m.t.Fatalf("Fail(%v) removed %d, reference %d", e, g, w)
	}
}

func (m *eviModel) reset() {
	m.got.Reset()
	m.want.Reset()
}

func (m *eviModel) check() {
	m.t.Helper()
	if g, w := m.got.Len(), m.want.Len(); g != w {
		m.t.Fatalf("Len = %d, reference %d", g, w)
	}
	edges := m.want.Edges()
	if g := m.got.Edges(); !slices.Equal(g, edges) {
		m.t.Fatalf("Edges = %v, reference %v", g, edges)
	}
	probe := append(edges[:min(len(edges), 16):min(len(edges), 16)], m.edge(), m.edge())
	for _, e := range probe {
		g, w := candidates(m.got, m.gotT, e), m.want.Candidates(e)
		if len(g) != len(w) {
			m.t.Fatalf("Candidates(%v): %d leaves, reference %d", e, len(g), len(w))
		}
		for i := range g {
			if m.gotT.V(g[i]) != w[i].V { // same leaf number, same registration order
				m.t.Fatalf("Candidates(%v)[%d] = leaf %d, reference leaf %d", e, i, m.gotT.V(g[i]), w[i].V)
			}
		}
	}
	if g, w := m.gotT.NodeCount(), m.wantT.NodeCount(); g != w {
		m.t.Fatalf("trie holds %d nodes, reference %d", g, w)
	}
	for i := range m.gotLeaves {
		if m.gotT.Dead(m.gotLeaves[i]) != m.wantLeaves[i].Dead() {
			m.t.Fatalf("leaf %d dead = %v, reference %v", i, m.gotT.Dead(m.gotLeaves[i]), m.wantLeaves[i].Dead())
		}
	}
}

// TestEVIMatchesMapModel runs random operation sequences — duplicate
// registrations, unnormalised and negative edges, failing an edge never
// added, failing one twice, re-registering a failed edge, dead leaves
// under live edges — against the map reference.
func TestEVIMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		span := []int32{3, 12, 200}[seed%3] // few keys: long chains; many: table growth
		m := newEVIModel(t, seed, span)
		var recent []graph.Edge
		for op := 0; op < 600; op++ {
			switch r := m.rng.Intn(100); {
			case r < 55:
				e, l := m.edge(), m.leaf()
				m.add(e, l)
				for m.rng.Intn(3) == 0 { // the same EC under several edges, some twice
					if m.rng.Intn(2) == 0 {
						e = m.edge()
					}
					m.add(e, l)
				}
				recent = append(recent, e)
			case r < 60 && len(m.gotLeaves) > 0:
				// An older EC gains an edge: chains interleave.
				m.add(m.edge(), m.rng.Intn(len(m.gotLeaves)))
			case r < 80 && len(recent) > 0:
				e := recent[m.rng.Intn(len(recent))]
				if m.rng.Intn(2) == 0 {
					e = graph.Edge{U: e.V, V: e.U}
				}
				m.fail(e)
				if m.rng.Intn(4) == 0 {
					m.fail(e) // twice
				}
			case r < 88:
				m.fail(m.edge()) // most likely never added
			case r < 92:
				m.reset()
				recent = recent[:0]
			default:
				m.check()
			}
		}
		m.check()
	}
}

// TestEVISmallSegmentsAfterALargeOne: a 50 000-entry segment followed
// by three-entry ones — the shape an unbudgeted round leaves behind for
// the rounds after it.
func TestEVISmallSegmentsAfterALargeOne(t *testing.T) {
	m := newEVIModel(t, 99, 100) // ~5 000 distinct edges, ten registrations each
	for i := 0; i < 50_000; i++ {
		m.add(m.edge(), m.leaf())
	}
	m.check()
	large := m.want.Edges()
	for i := 0; i < 300; i++ {
		m.fail(large[m.rng.Intn(len(large))])
	}
	m.check()
	slots := len(m.got.slots)
	for seg := 0; seg < 50; seg++ {
		m.reset()
		if m.got.Len() != 0 || len(m.got.Edges()) != 0 {
			t.Fatalf("segment %d: index not empty after Reset", seg)
		}
		var es []graph.Edge
		for i := 0; i < 3; i++ {
			e := m.edge()
			es = append(es, e)
			m.add(e, m.leaf())
		}
		m.check()
		m.fail(es[seg%3])
		m.check()
	}
	if len(m.got.slots) != slots {
		t.Errorf("table went from %d to %d slots over small segments", slots, len(m.got.slots))
	}
	for i, s := range m.got.slots {
		if used := slices.Contains(m.got.used, int32(i)); (s.head != 0) != used {
			t.Fatalf("slot %d: head %d, listed as used: %v", i, s.head, used)
		}
	}
}

// eviSegment is one verify segment's worth of index traffic: n
// registrations of leaves over the given edges, Edges, a Fail for all
// but every keepEvery-th edge, Reset.
func eviSegment(e *EVI, t *Trie, leaves []Node, edges []graph.Edge, keepEvery int) {
	for i, n := range leaves {
		e.Add(edges[(i*7)%len(edges)], n)
	}
	for i, ed := range e.Edges() {
		if i%keepEvery != 0 {
			e.Fail(ed, t)
		}
	}
	e.Reset()
}

// recycle removes the leaves a segment left alive and links fresh ones
// in their place, so the next run of the cycle starts from the same
// trie shape — on the storage the trie recycled.
func recycle(t *Trie, leaves []Node) {
	for _, n := range leaves {
		if !t.Dead(n) {
			t.Remove(n)
		}
	}
	for i := range leaves {
		leaves[i] = t.Node(0, graph.VertexID(i))
		t.Link(leaves[i])
	}
}

func segmentFixture(nLeaves, nEdges int) (*Trie, []Node, []graph.Edge) {
	t := New()
	leaves := make([]Node, nLeaves)
	for i := range leaves {
		leaves[i] = t.Node(0, graph.VertexID(i))
		t.Link(leaves[i])
	}
	rng := rand.New(rand.NewSource(5))
	edges := make([]graph.Edge, nEdges)
	for i := range edges {
		edges[i] = graph.Edge{U: graph.VertexID(rng.Int31n(2400)), V: graph.VertexID(rng.Int31n(2400))}
	}
	return t, leaves, edges
}

// TestEVIWarmCycleAllocatesNothing: once its storage has grown to a
// segment's size, Add×n → Edges → Fail×k → Reset is allocation-free.
func TestEVIWarmCycleAllocatesNothing(t *testing.T) {
	tr, leaves, edges := segmentFixture(570, 230)
	evi := NewEVI()
	cycle := func() {
		eviSegment(evi, tr, leaves, edges, 33)
		recycle(tr, leaves)
	}
	cycle()
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Errorf("warm segment cycle allocates %v times", allocs)
	}
}
