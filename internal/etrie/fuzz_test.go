package etrie

import (
	"math/rand"
	"slices"
	"testing"

	"rads/internal/graph"
)

// FuzzTrieOps drives the slab trie and its index, and the pointer
// reference (refTrie, mapEVI), through the same operation sequence: a
// byte picks an operation and the bytes after it its operands. After
// every operation both sides must agree on the node count, the index's
// edges and the Dead status of every handle still held, and at the end
// on the path of every handle. The slab side may panic only where the
// reference did, and the sequence ends there. Any held handle may be used, dead or recycled ones included:
// the two tries recycle in the same order, so a stale handle names the
// same node on both sides.
func FuzzTrieOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 1, 0, 0, 0, 5, 1, 1, 5, 1, 2, 3, 1, 6, 1, 2, 3, 1, 4, 1})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 64<<i%512)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		ops = ops[:min(len(ops), 512)] // every check walks every held path
		fz := &trieFuzz{t: t, got: New(), want: &refTrie{}, gotE: NewEVI(), wantE: newMapEVI()}
		for len(ops) > 0 {
			op := ops[0]
			ops = ops[1:]
			if !fz.step(op%8, &ops) {
				return // the reference is left half-way through its operation
			}
			fz.check()
		}
		fz.checkPaths()
	})
}

type trieFuzz struct {
	t     *testing.T
	got   *Trie
	want  *refTrie
	gotE  *EVI
	wantE *mapEVI
	gotH  []Node // every handle the slab side handed out, in order
	wantH []*refNode
}

// arg consumes one operand byte, 0 when the input ran out.
func arg(ops *[]byte) byte {
	if len(*ops) == 0 {
		return 0
	}
	b := (*ops)[0]
	*ops = (*ops)[1:]
	return b
}

// step runs one operation on both sides and reports whether the
// sequence goes on: false once the reference panicked.
func (fz *trieFuzz) step(op byte, ops *[]byte) bool {
	var g func()
	var w func()
	held := func() (Node, *refNode, bool) {
		if len(fz.gotH) == 0 {
			return 0, nil, false
		}
		i := int(arg(ops)) % len(fz.gotH)
		return fz.gotH[i], fz.wantH[i], true
	}
	edge := func() graph.Edge {
		return graph.Edge{U: graph.VertexID(arg(ops) % 16), V: graph.VertexID(arg(ops) % 16)}
	}
	switch op {
	case 0: // Node, below a held node or as a root
		var gp Node
		var wp *refNode
		if i := int(arg(ops)); len(fz.gotH) > 0 && i%4 != 0 {
			gp, wp = fz.gotH[i%len(fz.gotH)], fz.wantH[i%len(fz.wantH)]
		}
		v := graph.VertexID(arg(ops))
		w = func() { fz.wantH = append(fz.wantH, fz.want.Node(wp, v)) }
		g = func() { fz.gotH = append(fz.gotH, fz.got.Node(gp, v)) }
	case 1, 2, 3, 4:
		gn, wn, ok := held()
		if !ok {
			return true
		}
		gf := []func(Node){fz.got.Link, fz.got.Pin, fz.got.Unpin, fz.got.Remove}[op-1]
		wf := []func(*refNode){fz.want.Link, fz.want.Pin, fz.want.Unpin, fz.want.Remove}[op-1]
		w, g = func() { wf(wn) }, func() { gf(gn) }
	case 5:
		gn, wn, ok := held()
		if !ok {
			return true
		}
		e := edge()
		w, g = func() { fz.wantE.Add(e, wn) }, func() { fz.gotE.Add(e, gn) }
	case 6:
		e := edge()
		var gr, wr int
		w, g = func() { wr = fz.wantE.Fail(e, fz.want) }, func() { gr = fz.gotE.Fail(e, fz.got) }
		defer func() {
			if gr != wr {
				fz.t.Fatalf("Fail(%v) removed %d, reference %d", e, gr, wr)
			}
		}()
	default:
		w, g = fz.wantE.Reset, fz.gotE.Reset
	}
	if panics(w) {
		return false
	}
	if panics(g) {
		fz.t.Fatalf("operation %d panicked on the slab trie, not on the reference", op)
	}
	return true
}

func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

func (fz *trieFuzz) check() {
	t := fz.t
	if g, w := fz.got.NodeCount(), fz.want.NodeCount(); g != w {
		t.Fatalf("NodeCount = %d, reference %d", g, w)
	}
	if g, w := fz.gotE.Len(), fz.wantE.Len(); g != w {
		t.Fatalf("EVI.Len = %d, reference %d", g, w)
	}
	for i, gn := range fz.gotH {
		if g, w := fz.got.Dead(gn), fz.wantH[i].Dead(); g != w {
			t.Fatalf("handle %d: Dead = %v, reference %v", i, g, w)
		}
	}
}

func (fz *trieFuzz) checkPaths() {
	t := fz.t
	if g, w := fz.gotE.Edges(), fz.wantE.Edges(); !slices.Equal(g, w) {
		t.Fatalf("EVI.Edges = %v, reference %v", g, w)
	}
	for i, gn := range fz.gotH {
		wn := fz.wantH[i]
		// A parent handle that went stale can close a cycle (a detached
		// node's parent is recycled below it); the reference's walk would
		// never end, so paths are compared where it ends.
		steps := 0
		for n := wn; n != nil && steps <= len(fz.wantH); n = n.Parent {
			steps++
		}
		if steps > len(fz.wantH) {
			continue
		}
		if g, w := fz.got.Path(gn), fz.want.AppendPath(nil, wn); !slices.Equal(g, w) {
			t.Fatalf("handle %d: path %v, reference %v", i, g, w)
		}
	}
}
