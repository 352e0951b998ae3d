package etrie

import (
	"testing"

	"rads/internal/graph"
)

// buildChain links a root-to-leaf chain of the given data vertices and
// returns all nodes, root first.
func buildChain(t *Trie, vs ...graph.VertexID) []Node {
	var nodes []Node
	var parent Node
	for _, v := range vs {
		n := t.Node(parent, v)
		t.Link(n)
		nodes = append(nodes, n)
		parent = n
	}
	return nodes
}

func TestPinBlocksCascade(t *testing.T) {
	tr := New()
	chain := buildChain(tr, 0, 1, 2)
	root, mid, leaf := chain[0], chain[1], chain[2]

	tr.Pin(mid)
	tr.Remove(leaf)
	if tr.Dead(mid) {
		t.Fatal("pinned node removed by cascade")
	}
	if tr.Dead(root) {
		t.Fatal("cascade passed through a pinned node")
	}
	// Unpin with no children left removes mid and cascades to root.
	tr.Unpin(mid)
	if !tr.Dead(mid) || !tr.Dead(root) {
		t.Fatal("unpin did not resolve the empty subtree")
	}
	if tr.NodeCount() != 0 {
		t.Fatalf("node count %d after full removal", tr.NodeCount())
	}
}

func TestUnpinKeepsNodeWithSurvivors(t *testing.T) {
	tr := New()
	root := tr.Node(0, 0)
	tr.Link(root)
	tr.Pin(root)
	kid := tr.Node(root, 1)
	tr.Link(kid)
	tr.Unpin(root)
	if tr.Dead(root) {
		t.Fatal("unpin removed a node with a live child")
	}
	tr.Remove(kid)
	if !tr.Dead(root) {
		t.Fatal("removing the last child should now cascade")
	}
}

func TestPinUnpinInterleavedWithChildren(t *testing.T) {
	tr := New()
	root := tr.Node(0, 7)
	tr.Link(root)
	tr.Pin(root)
	// Children come and go while pinned; the pin must keep root alive
	// through a fully-drained interval.
	for i := 0; i < 3; i++ {
		k := tr.Node(root, graph.VertexID(i))
		tr.Link(k)
		tr.Remove(k)
		if tr.Dead(root) {
			t.Fatalf("iteration %d: pinned root died", i)
		}
	}
	tr.Unpin(root)
	if !tr.Dead(root) {
		t.Fatal("root should be removed at unpin with no children")
	}
}

func TestPinPanicsOnDeadNode(t *testing.T) {
	tr := New()
	n := tr.Node(0, 0)
	tr.Link(n)
	tr.Remove(n)
	defer func() {
		if recover() == nil {
			t.Error("Pin on dead node did not panic")
		}
	}()
	tr.Pin(n)
}

func TestUnpinPanicsOnUnlinkedNode(t *testing.T) {
	tr := New()
	n := tr.Node(0, 0)
	defer func() {
		if recover() == nil {
			t.Error("Unpin on unlinked node did not panic")
		}
	}()
	tr.Unpin(n)
}

func TestNodeCountStableUnderPin(t *testing.T) {
	tr := New()
	root := tr.Node(0, 0)
	tr.Link(root)
	before := tr.NodeCount()
	tr.Pin(root)
	if tr.NodeCount() != before {
		t.Error("pin changed node count")
	}
	kid := tr.Node(root, 1)
	tr.Link(kid)
	tr.Remove(kid)
	tr.Unpin(root)
	if tr.NodeCount() != 0 {
		t.Errorf("count %d after unpin removal", tr.NodeCount())
	}
}
