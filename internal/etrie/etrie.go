// Package etrie implements the embedding trie of Section 5: a compact
// forest that stores intermediate enumeration results (embeddings and
// embedding candidates) as merged leaf-to-root paths, plus the edge
// verification index (EVI, Definition 5) that groups embedding
// candidates sharing an undetermined edge.
//
// Following Definition 11, a node stores only its data vertex, a parent
// pointer and a child counter; the address of a leaf node is the unique
// ID of the result it represents, retrieval walks parent pointers, and
// removal cascades: deleting a leaf decrements its parent's counter and
// recursively removes parents whose counter reaches zero.
package etrie

import (
	"cmp"
	"fmt"
	"slices"

	"rads/internal/graph"
)

// Node is one embedding-trie node. Nodes are created detached
// (Algorithm 2 line 14 creates N' before knowing whether any deeper
// expansion succeeds) and only counted once linked.
type Node struct {
	V          graph.VertexID
	Parent     *Node
	childCount int32
	linked     bool
	dead       bool
}

// Dead reports whether the node has been removed from the trie. The
// EVI may hold references to leaves that an earlier failed edge already
// removed; filtering must skip them.
func (n *Node) Dead() bool { return n.dead }

// ChildCount returns the number of linked live children.
func (n *Node) ChildCount() int { return int(n.childCount) }

// NodeBytes is the accounted in-memory footprint of one trie node:
// vertex (4) + parent pointer (8) + child counter (4) + flags/padding.
const NodeBytes = 24

// VertexBytes is the accounted footprint of one vertex in a plain
// embedding list, the uncompressed representation Table 3/4 compares
// against.
const VertexBytes = 4

// Trie is an embedding trie for results of a fixed query pattern.
// The zero value is not usable; call New.
type Trie struct {
	depth     int // number of query vertices = levels
	nodeCount int
	peakNodes int
}

// New returns an empty trie for patterns with depth query vertices.
func New(depth int) *Trie {
	return &Trie{depth: depth}
}

// Depth returns the number of levels (query vertices) of full results.
func (t *Trie) Depth() int { return t.depth }

// Node creates a detached node mapping some query vertex to data
// vertex v, below parent (nil for a root). The node is not part of the
// trie until Link is called.
func (t *Trie) Node(parent *Node, v graph.VertexID) *Node {
	return &Node{V: v, Parent: parent}
}

// Link inserts a detached node into the trie, incrementing its
// parent's child counter. Linking an already linked or dead node is a
// programming error and panics.
func (t *Trie) Link(n *Node) {
	if n.linked || n.dead {
		panic("etrie: Link on linked or dead node")
	}
	n.linked = true
	if n.Parent != nil {
		n.Parent.childCount++
	}
	t.nodeCount++
	if t.nodeCount > t.peakNodes {
		t.peakNodes = t.nodeCount
	}
}

// Remove deletes a linked node and cascades upward: every ancestor
// whose child counter drops to zero is removed too (Section 5.1,
// "Removal"). Removing a node that still has children panics — only
// results (leaves) may be removed directly.
func (t *Trie) Remove(n *Node) {
	for n != nil {
		if !n.linked || n.dead {
			panic("etrie: Remove on unlinked or dead node")
		}
		if n.childCount != 0 {
			panic(fmt.Sprintf("etrie: Remove on node with %d children", n.childCount))
		}
		n.dead = true
		t.nodeCount--
		p := n.Parent
		if p == nil {
			return
		}
		p.childCount--
		if p.childCount > 0 {
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
func (t *Trie) Pin(n *Node) {
	if !n.linked || n.dead {
		panic("etrie: Pin on unlinked or dead node")
	}
	n.childCount++
}

// Unpin drops the guard reference added by Pin. If no real children
// remain, the node's subtree has been fully resolved (emitted or
// filtered) and the node is removed, cascading upward as usual.
func (t *Trie) Unpin(n *Node) {
	if !n.linked || n.dead {
		panic("etrie: Unpin on unlinked or dead node")
	}
	n.childCount--
	if n.childCount == 0 {
		t.Remove(n)
	}
}

// NodeCount returns the number of live linked nodes.
func (t *Trie) NodeCount() int { return t.nodeCount }

// PeakNodes returns the high-water mark of live nodes.
func (t *Trie) PeakNodes() int { return t.peakNodes }

// Bytes returns the accounted current footprint of the trie.
func (t *Trie) Bytes() int64 { return int64(t.nodeCount) * NodeBytes }

// PeakBytes returns the accounted peak footprint of the trie.
func (t *Trie) PeakBytes() int64 { return int64(t.peakNodes) * NodeBytes }

// Path returns the root-to-leaf data-vertex path identified by leaf
// ("Retrieval" in Section 5.1). The path has length level+1, where the
// root is level 0.
func (t *Trie) Path(leaf *Node) []graph.VertexID {
	return t.AppendPath(nil, leaf)
}

// AppendPath appends the root-to-leaf path to dst and returns it,
// avoiding allocation in hot loops.
func (t *Trie) AppendPath(dst []graph.VertexID, leaf *Node) []graph.VertexID {
	start := len(dst)
	for n := leaf; n != nil; n = n.Parent {
		dst = append(dst, n.V)
	}
	// Reverse the appended suffix in place.
	for i, j := start, len(dst)-1; i < j; i, j = i+1, j-1 {
		dst[i], dst[j] = dst[j], dst[i]
	}
	return dst
}

// Level returns the level of a node (root = 0).
func Level(n *Node) int {
	l := 0
	for n.Parent != nil {
		l++
		n = n.Parent
	}
	return l
}

// EVI is the edge verification index of Definition 5: undetermined
// data edge -> IDs (trie leaves) of the embedding candidates that
// require it. If a key edge turns out not to exist, every EC listed
// under it is filtered out (Proposition 2).
type EVI struct {
	m map[graph.Edge][]*Node
}

// NewEVI returns an empty index.
func NewEVI() *EVI { return &EVI{m: make(map[graph.Edge][]*Node)} }

// Add registers leaf under undetermined edge e (normalised).
func (e *EVI) Add(edge graph.Edge, leaf *Node) {
	k := edge.Normalize()
	e.m[k] = append(e.m[k], leaf)
}

// Len returns the number of distinct undetermined edges.
func (e *EVI) Len() int { return len(e.m) }

// Edges returns the undetermined edges in deterministic (sorted) order;
// these form the payload of a verifyE request.
func (e *EVI) Edges() []graph.Edge {
	out := make([]graph.Edge, 0, len(e.m))
	for k := range e.m {
		out = append(out, k)
	}
	slices.SortFunc(out, func(a, b graph.Edge) int {
		if c := cmp.Compare(a.U, b.U); c != 0 {
			return c
		}
		return cmp.Compare(a.V, b.V)
	})
	return out
}

// Candidates returns the live leaves registered under edge.
func (e *EVI) Candidates(edge graph.Edge) []*Node {
	var out []*Node
	for _, n := range e.m[edge.Normalize()] {
		if !n.Dead() {
			out = append(out, n)
		}
	}
	return out
}

// Fail removes every still-live EC that depends on edge from the trie
// (the edge was verified non-existent). Returns the number of ECs
// filtered.
func (e *EVI) Fail(edge graph.Edge, t *Trie) int {
	k := edge.Normalize()
	removed := 0
	for _, n := range e.m[k] {
		if !n.Dead() {
			t.Remove(n)
			removed++
		}
	}
	delete(e.m, k)
	return removed
}

// Reset clears the index for the next round (Algorithm 4 line 11),
// keeping the map's storage: a budgeted group flushes thousands of
// small segments through one index.
func (e *EVI) Reset() {
	clear(e.m)
}
