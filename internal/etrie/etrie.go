// Package etrie implements the embedding trie of Section 5: a compact
// forest that stores intermediate enumeration results (embeddings and
// embedding candidates) as merged leaf-to-root paths, plus the edge
// verification index (EVI, Definition 5) that groups embedding
// candidates sharing an undetermined edge.
//
// Following Definition 11, a node stores only its data vertex, a parent
// pointer and a child counter. The parent pointer is a slab index here:
// a trie keeps its nodes in one pointer-free slab, so a node is 12 bytes
// and the garbage collector never scans it. The handle of a leaf node is
// the unique ID of the result it represents while the node is live (a
// removed node's slot is handed out again), retrieval walks parent
// indexes, and removal cascades: deleting a leaf decrements its parent's
// counter and recursively removes parents whose counter reaches zero.
package etrie

import (
	"fmt"
	"slices"

	"rads/internal/graph"
)

// Node is a handle to one embedding-trie node: 1 + the node's index in
// its trie's slab, 0 for none (the parent of a root). Nodes are created
// detached (Algorithm 2 line 14 creates N' before knowing whether any
// deeper expansion succeeds) and only counted once linked.
type Node uint32

// node is one slab slot. state holds the child counter, signed, in its
// high 30 bits and the linked and dead flags in its low two, so a
// counter an unmatched Unpin drives below zero stays below zero and
// never reads as a flag.
type node struct {
	v      graph.VertexID
	parent Node
	state  int32
}

const (
	linked = 1 << iota
	dead
	child // one unit of the child counter
)

// NodeBytes is the accounted in-memory footprint of one trie node:
// vertex (4) + parent index (4) + child counter and flags (4).
const NodeBytes = 12

// VertexBytes is the accounted footprint of one vertex in a plain
// embedding list, the uncompressed representation Table 3/4 compares
// against.
const VertexBytes = 4

// Trie is an embedding trie for results of a fixed query pattern.
// The zero value is not usable; call New.
//
// Nodes come from the trie's slab: Node hands out a removed node first
// and appends one otherwise, so a trie that builds and resolves segment
// after segment stops allocating once its slab holds its peak of live
// nodes.
type Trie struct {
	nodes     []node // the slab: Node n is nodes[n-1]
	nodeCount int
	free      Node // removed nodes, chained through parent
}

// New returns an empty trie.
func New() *Trie { return &Trie{} }

// Node creates a detached node mapping some query vertex to data
// vertex v, below parent (0 for a root). The node is not part of the
// trie until Link is called.
func (t *Trie) Node(parent Node, v graph.VertexID) Node {
	n := t.free
	if n == 0 {
		t.nodes = append(t.nodes, node{v: v, parent: parent})
		return Node(len(t.nodes))
	}
	s := &t.nodes[n-1]
	t.free = s.parent
	*s = node{v: v, parent: parent}
	return n
}

// V returns the data vertex of node n.
func (t *Trie) V(n Node) graph.VertexID { return t.nodes[n-1].v }

// Dead reports whether node n has been removed from the trie. The EVI
// may hold references to leaves that an earlier failed edge already
// removed; filtering must skip them. The answer holds only until the
// trie's next Node call (see Remove).
func (t *Trie) Dead(n Node) bool { return t.nodes[n-1].state&dead != 0 }

// Link inserts a detached node into the trie, incrementing its
// parent's child counter. Linking an already linked or dead node is a
// programming error and panics.
func (t *Trie) Link(n Node) {
	s := &t.nodes[n-1]
	if s.state&(linked|dead) != 0 {
		panic("etrie: Link on linked or dead node")
	}
	s.state |= linked
	if s.parent != 0 {
		t.nodes[s.parent-1].state += child
	}
	t.nodeCount++
}

// Remove deletes a linked node and cascades upward: every ancestor
// whose child counter drops to zero is removed too (Section 5.1,
// "Removal"). Removing a node that still has children panics — only
// results (leaves) may be removed directly.
//
// Every removed node goes back to the trie for reuse. A removed node
// reports Dead until the trie's next Node call, which may hand its
// slot out again; its parent is not kept. So a caller may test a node
// it holds for Dead only if no Node call on this trie happened since
// the node was last known live.
func (t *Trie) Remove(n Node) {
	for n != 0 {
		s := &t.nodes[n-1]
		if s.state&(linked|dead) != linked {
			panic("etrie: Remove on unlinked or dead node")
		}
		if c := s.state >> 2; c != 0 {
			panic(fmt.Sprintf("etrie: Remove on node with %d children", c))
		}
		s.state |= dead
		t.nodeCount--
		p := s.parent
		s.parent, t.free = t.free, n
		if p == 0 {
			return
		}
		ps := &t.nodes[p-1]
		ps.state -= child
		if ps.state >= child {
			return
		}
		n = p
	}
}

// Pin adds a guard reference to n, preventing removal cascades from
// deleting it while an enumeration loop is still expanding beneath it.
// A mid-round flush (rads memory control) may remove all of n's
// children while n is still the active expansion parent; the pin keeps
// n alive until Unpin.
func (t *Trie) Pin(n Node) {
	s := &t.nodes[n-1]
	if s.state&(linked|dead) != linked {
		panic("etrie: Pin on unlinked or dead node")
	}
	s.state += child
}

// Unpin drops the guard reference added by Pin. If no real children
// remain, the node's subtree has been fully resolved (emitted or
// filtered) and the node is removed, cascading upward as usual.
func (t *Trie) Unpin(n Node) {
	s := &t.nodes[n-1]
	if s.state&(linked|dead) != linked {
		panic("etrie: Unpin on unlinked or dead node")
	}
	s.state -= child
	if s.state>>2 == 0 {
		t.Remove(n)
	}
}

// NodeCount returns the number of live linked nodes.
func (t *Trie) NodeCount() int { return t.nodeCount }

// Bytes returns the accounted current footprint of the trie: its live
// nodes. The slab also keeps removed nodes for reuse, so the trie holds
// at most the storage of its peak of live nodes, rounded up by append's
// growth.
func (t *Trie) Bytes() int64 { return int64(t.nodeCount) * NodeBytes }

// Path returns the root-to-leaf data-vertex path identified by leaf
// ("Retrieval" in Section 5.1). The path has length level+1, where the
// root is level 0.
func (t *Trie) Path(leaf Node) []graph.VertexID {
	return t.AppendPath(nil, leaf)
}

// AppendPath appends the root-to-leaf path to dst and returns it,
// avoiding allocation in hot loops.
func (t *Trie) AppendPath(dst []graph.VertexID, leaf Node) []graph.VertexID {
	start := len(dst)
	for n := leaf; n != 0; {
		s := &t.nodes[n-1]
		dst = append(dst, s.v)
		n = s.parent
	}
	// Reverse the appended suffix in place.
	for i, j := start, len(dst)-1; i < j; i, j = i+1, j-1 {
		dst[i], dst[j] = dst[j], dst[i]
	}
	return dst
}

// EVI is the edge verification index of Definition 5: undetermined
// data edge -> IDs (trie leaves) of the embedding candidates that
// require it. If a key edge turns out not to exist, every EC listed
// under it is filtered out (Proposition 2).
//
// A budgeted region group pushes thousands of small segments through
// one index and an unbudgeted one registers one edge many times, so
// the container is built for both: an open-addressed table over the
// 64-bit edge key whose slots head intrusive chains through one
// append-only entry slice. Add is a probe and an append, Fail walks a
// chain, and Reset touches only the slots the segment used. The zero
// value is an empty index.
type EVI struct {
	slots   []eviSlot  // power-of-two table, linear probing
	used    []int32    // occupied slot indexes, in first-registration order
	entries []eviEntry // every registration of the segment; chains link through next
	live    int        // edges with a non-empty chain

	keys  []uint64 // scratch of Edges
	edges []graph.Edge
}

// eviSlot is one table slot. head and tail are 1-based indexes into
// entries; head 0 marks a free slot, eviFailed one whose edge was
// failed — still occupied for probing, listed under no edge until it is
// registered again.
type eviSlot struct {
	key        uint64
	head, tail int32
}

type eviEntry struct {
	leaf Node
	next int32
}

const (
	eviFailed   = -1
	eviMinSlots = 64
)

// eviKey packs a normalised edge so that unsigned key order is (U, V)
// order.
func eviKey(e graph.Edge) uint64 {
	e = e.Normalize()
	return uint64(uint32(e.U)^(1<<31))<<32 | uint64(uint32(e.V)^(1<<31))
}

func eviEdge(k uint64) graph.Edge {
	return graph.Edge{U: graph.VertexID(uint32(k>>32) ^ (1 << 31)), V: graph.VertexID(uint32(k) ^ (1 << 31))}
}

// NewEVI returns an empty index.
func NewEVI() *EVI { return &EVI{} }

// find returns the index of the slot holding key k, or of the free
// slot where it belongs. The table is never full and never empty when
// called.
func (e *EVI) find(k uint64) int {
	mask := uint64(len(e.slots) - 1)
	for i := (k * 0x9E3779B97F4A7C15) >> 32 & mask; ; i = (i + 1) & mask {
		if s := &e.slots[i]; s.head == 0 || s.key == k {
			return int(i)
		}
	}
}

// grow doubles the table (or creates it) and re-seats the occupied
// slots.
func (e *EVI) grow() {
	old := e.slots
	e.slots = make([]eviSlot, max(2*len(old), eviMinSlots))
	for j, i := range e.used {
		at := e.find(old[i].key)
		e.slots[at] = old[i]
		e.used[j] = int32(at)
	}
}

// Add registers leaf under undetermined edge e (normalised).
func (e *EVI) Add(edge graph.Edge, leaf Node) {
	if 2*(len(e.used)+1) > len(e.slots) {
		e.grow()
	}
	k := eviKey(edge)
	at := e.find(k)
	s := &e.slots[at]
	if len(e.entries) == cap(e.entries) {
		// Double: append's 1.25× steps would allocate five times what a
		// large segment ends up holding, and an index lives for one group.
		e.entries = slices.Grow(e.entries, max(len(e.entries), eviMinSlots))
	}
	e.entries = append(e.entries, eviEntry{leaf: leaf})
	id := int32(len(e.entries))
	switch s.head {
	case 0:
		s.key = k
		e.used = append(e.used, int32(at))
		fallthrough
	case eviFailed:
		s.head = id
		e.live++
	default:
		e.entries[s.tail-1].next = id
	}
	s.tail = id
}

// Len returns the number of distinct undetermined edges.
func (e *EVI) Len() int { return e.live }

// Edges returns the undetermined edges in deterministic (sorted) order;
// these form the payload of a verifyE request. Only the distinct keys
// are sorted, as packed integers. The slice is the index's own scratch,
// valid until the next Edges or Reset.
func (e *EVI) Edges() []graph.Edge {
	keys := slices.Grow(e.keys[:0], e.live)
	for _, i := range e.used {
		if s := &e.slots[i]; s.head > 0 {
			keys = append(keys, s.key)
		}
	}
	slices.Sort(keys)
	out := slices.Grow(e.edges[:0], len(keys))
	for _, k := range keys {
		out = append(out, eviEdge(k))
	}
	e.keys, e.edges = keys, out
	return out
}

// chain returns the slot of edge and the first entry registered under
// it; nil and 0 when the edge is not listed.
func (e *EVI) chain(edge graph.Edge) (*eviSlot, int32) {
	if len(e.slots) == 0 {
		return nil, 0
	}
	s := &e.slots[e.find(eviKey(edge))]
	if s.head <= 0 {
		return nil, 0
	}
	return s, s.head
}

// Fail removes every still-live EC that depends on edge from the trie
// (the edge was verified non-existent). Returns the number of ECs
// filtered.
func (e *EVI) Fail(edge graph.Edge, t *Trie) int {
	s, id := e.chain(edge)
	if s == nil {
		return 0
	}
	removed := 0
	for ; id != 0; id = e.entries[id-1].next {
		if n := e.entries[id-1].leaf; !t.Dead(n) {
			t.Remove(n)
			removed++
		}
	}
	s.head = eviFailed
	e.live--
	return removed
}

// Reset clears the index for the next round (Algorithm 4 line 11),
// keeping its storage and touching only what the finished segment
// used: a small segment after a large one does not pay for the large
// one.
func (e *EVI) Reset() {
	for _, i := range e.used {
		e.slots[i] = eviSlot{}
	}
	e.used = e.used[:0]
	e.entries = e.entries[:0]
	e.live = 0
}
