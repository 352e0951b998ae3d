package etrie

import (
	"cmp"
	"fmt"
	"slices"

	"rads/internal/graph"
)

// refNode and refTrie are the embedding trie as it was before the
// pointer-free slab: a node of 24 bytes holding its parent as a
// pointer, in 256-node chunks the garbage collector scans. They stay
// here as the reference FuzzTrieOps and the EVI model test compare the
// slab trie against. Both tries hand out a removed node first and a
// fresh one otherwise, so the n-th node either creates is the same node
// of the same forest.
type refNode struct {
	V          graph.VertexID
	Parent     *refNode
	childCount int32
	linked     bool
	dead       bool
}

func (n *refNode) Dead() bool { return n.dead }

type refTrie struct {
	nodeCount int
	free      *refNode  // removed nodes, chained through Parent
	slab      []refNode // unused tail of the newest chunk
}

func (t *refTrie) Node(parent *refNode, v graph.VertexID) *refNode {
	n := t.free
	if n != nil {
		t.free = n.Parent
	} else {
		if len(t.slab) == 0 {
			t.slab = make([]refNode, 256)
		}
		n, t.slab = &t.slab[0], t.slab[1:]
	}
	*n = refNode{V: v, Parent: parent}
	return n
}

func (t *refTrie) Link(n *refNode) {
	if n.linked || n.dead {
		panic("etrie: Link on linked or dead node")
	}
	n.linked = true
	if n.Parent != nil {
		n.Parent.childCount++
	}
	t.nodeCount++
}

func (t *refTrie) Remove(n *refNode) {
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
		n.Parent, t.free = t.free, n
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

func (t *refTrie) Pin(n *refNode) {
	if !n.linked || n.dead {
		panic("etrie: Pin on unlinked or dead node")
	}
	n.childCount++
}

func (t *refTrie) Unpin(n *refNode) {
	if !n.linked || n.dead {
		panic("etrie: Unpin on unlinked or dead node")
	}
	n.childCount--
	if n.childCount == 0 {
		t.Remove(n)
	}
}

func (t *refTrie) NodeCount() int { return t.nodeCount }

func (t *refTrie) AppendPath(dst []graph.VertexID, leaf *refNode) []graph.VertexID {
	start := len(dst)
	for n := leaf; n != nil; n = n.Parent {
		dst = append(dst, n.V)
	}
	for i, j := start, len(dst)-1; i < j; i, j = i+1, j-1 {
		dst[i], dst[j] = dst[j], dst[i]
	}
	return dst
}

// mapEVI is the index as it was before the open-addressed table: a Go
// map from normalised edge to the leaves registered under it, on the
// reference trie.
type mapEVI struct {
	m map[graph.Edge][]*refNode
}

func newMapEVI() *mapEVI { return &mapEVI{m: map[graph.Edge][]*refNode{}} }

func (e *mapEVI) Add(edge graph.Edge, leaf *refNode) {
	k := edge.Normalize()
	e.m[k] = append(e.m[k], leaf)
}

func (e *mapEVI) Len() int { return len(e.m) }

func (e *mapEVI) Edges() []graph.Edge {
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

func (e *mapEVI) Candidates(edge graph.Edge) []*refNode {
	var out []*refNode
	for _, n := range e.m[edge.Normalize()] {
		if !n.Dead() {
			out = append(out, n)
		}
	}
	return out
}

func (e *mapEVI) Fail(edge graph.Edge, t *refTrie) int {
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

func (e *mapEVI) Reset() { clear(e.m) }

// candidates returns the live leaves registered under edge in e.
func candidates(e *EVI, t *Trie, edge graph.Edge) []Node {
	var out []Node
	for _, id := e.chain(edge); id != 0; id = e.entries[id-1].next {
		if n := e.entries[id-1].leaf; !t.Dead(n) {
			out = append(out, n)
		}
	}
	return out
}
