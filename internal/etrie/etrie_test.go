package etrie

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"rads/internal/graph"
)

// buildPaths links the given root-to-leaf paths into a trie with full
// prefix sharing and returns the leaves.
func buildPaths(t *Trie, paths [][]graph.VertexID) []Node {
	type key struct {
		parent Node
		v      graph.VertexID
	}
	existing := make(map[key]Node)
	var leaves []Node
	for _, p := range paths {
		var cur Node
		for _, v := range p {
			k := key{cur, v}
			n, ok := existing[k]
			if !ok {
				n = t.Node(cur, v)
				t.Link(n)
				existing[k] = n
			}
			cur = n
		}
		leaves = append(leaves, cur)
	}
	return leaves
}

// TestSlabHoldsNoPointer: a trie node is the 12 bytes it is charged at,
// and neither a node nor an index entry holds anything the garbage
// collector would have to scan.
func TestSlabHoldsNoPointer(t *testing.T) {
	if got := unsafe.Sizeof(node{}); got != NodeBytes || NodeBytes != 12 {
		t.Errorf("a node takes %d B, NodeBytes is %d, want 12", got, NodeBytes)
	}
	if got := unsafe.Sizeof(eviEntry{}); got != 8 {
		t.Errorf("an index entry takes %d B, want 8", got)
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.Interface,
			reflect.String, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %s", path, typ.Kind())
		}
	}
	walk("node", reflect.TypeOf(node{}))
	walk("eviEntry", reflect.TypeOf(eviEntry{}))
}

func TestExample6Figure5(t *testing.T) {
	// Example 6: three ECs of P0 sharing prefixes:
	// (v0,v1,v2), (v0,v1,v9), (v0,v9,v11).
	tr := New()
	leaves := buildPaths(tr, [][]graph.VertexID{
		{0, 1, 2}, {0, 1, 9}, {0, 9, 11},
	})
	// Figure 5(a): 1 root + 2 level-1 nodes + 3 leaves = 6 nodes,
	// versus 9 vertices in list form.
	if tr.NodeCount() != 6 {
		t.Fatalf("NodeCount = %d, want 6", tr.NodeCount())
	}
	// "When the second EC is filtered out" -> Figure 5(b): 5 nodes.
	tr.Remove(leaves[1])
	if tr.NodeCount() != 5 {
		t.Fatalf("after removal NodeCount = %d, want 5", tr.NodeCount())
	}
	if !tr.Dead(leaves[1]) || tr.Dead(leaves[0]) || tr.Dead(leaves[2]) {
		t.Error("wrong leaves dead")
	}
	// Paths still retrievable for survivors.
	if got := tr.Path(leaves[0]); !reflect.DeepEqual(got, []graph.VertexID{0, 1, 2}) {
		t.Errorf("Path = %v", got)
	}
	if got := tr.Path(leaves[2]); !reflect.DeepEqual(got, []graph.VertexID{0, 9, 11}) {
		t.Errorf("Path = %v", got)
	}
}

func TestRemoveCascades(t *testing.T) {
	// Single chain: removing the leaf removes everything.
	tr := New()
	leaves := buildPaths(tr, [][]graph.VertexID{{5, 6, 7}})
	tr.Remove(leaves[0])
	if tr.NodeCount() != 0 {
		t.Fatalf("NodeCount = %d, want 0", tr.NodeCount())
	}
}

func TestRemoveStopsAtSharedAncestor(t *testing.T) {
	tr := New()
	leaves := buildPaths(tr, [][]graph.VertexID{{1, 2, 3}, {1, 2, 4}})
	tr.Remove(leaves[0])
	// Shared prefix (1,2) survives plus leaf 4.
	if tr.NodeCount() != 3 {
		t.Fatalf("NodeCount = %d, want 3", tr.NodeCount())
	}
	if got := tr.Path(leaves[1]); !reflect.DeepEqual(got, []graph.VertexID{1, 2, 4}) {
		t.Errorf("Path = %v", got)
	}
}

func TestLinkPanics(t *testing.T) {
	tr := New()
	n := tr.Node(0, 1)
	tr.Link(n)
	assertPanics(t, func() { tr.Link(n) })
}

func TestRemovePanicsOnInternalNode(t *testing.T) {
	tr := New()
	root := tr.Node(0, 1)
	tr.Link(root)
	child := tr.Node(root, 2)
	tr.Link(child)
	assertPanics(t, func() { tr.Remove(root) })
}

func TestRemovePanicsOnDetachedNode(t *testing.T) {
	tr := New()
	n := tr.Node(0, 1)
	assertPanics(t, func() { tr.Remove(n) })
}

// TestRemovedNodesAreRecycled pins the slab contract: a removed node
// stays Dead until the trie's next Node call, which hands its slot out
// again; the slab does not grow while removed nodes wait for reuse; and
// a warm Node/Link/Remove cycle allocates nothing.
func TestRemovedNodesAreRecycled(t *testing.T) {
	tr := New()
	leaves := buildPaths(tr, [][]graph.VertexID{{0, 1, 2}, {0, 1, 3}, {0, 4, 5}})
	tr.Remove(leaves[2]) // cascades: 5 and 4 go, the shared root stays
	if !tr.Dead(leaves[2]) || tr.Dead(leaves[0]) || tr.Dead(leaves[1]) {
		t.Fatal("wrong leaves dead")
	}
	if tr.NodeCount() != 4 || tr.Bytes() != 4*NodeBytes {
		t.Fatalf("NodeCount = %d, Bytes = %d after removing two nodes of six", tr.NodeCount(), tr.Bytes())
	}
	slots := len(tr.nodes)
	reused := map[Node]bool{}
	for i := 0; i < 2; i++ {
		n := tr.Node(0, graph.VertexID(10+i))
		if tr.Dead(n) || tr.V(n) != graph.VertexID(10+i) || tr.nodes[n-1].parent != 0 {
			t.Fatalf("recycled node %d handed out as %+v", i, tr.nodes[n-1])
		}
		reused[n] = true
	}
	if !reused[leaves[2]] || len(tr.nodes) != slots {
		t.Fatalf("two Node calls after two removals: removed leaf reused %v, slab grew by %d", reused[leaves[2]], len(tr.nodes)-slots)
	}
	if tr.Node(0, 12); len(tr.nodes) != slots+1 {
		t.Fatalf("with nothing left to recycle Node took %d slab slots, want 1", len(tr.nodes)-slots)
	}
	if got := tr.Path(leaves[0]); !reflect.DeepEqual(got, []graph.VertexID{0, 1, 2}) {
		t.Errorf("surviving Path = %v", got)
	}

	// Three levels of 4 × 16 × 8 nodes, linked then resolved leaf by leaf.
	cycle := New()
	var built []Node
	build := func() {
		built = built[:0]
		for a := 0; a < 4; a++ {
			na := cycle.Node(0, graph.VertexID(a))
			cycle.Link(na)
			for b := 0; b < 16; b++ {
				nb := cycle.Node(na, graph.VertexID(b))
				cycle.Link(nb)
				for c := 0; c < 8; c++ {
					nc := cycle.Node(nb, graph.VertexID(c))
					cycle.Link(nc)
					built = append(built, nc)
				}
			}
		}
		for _, n := range built {
			cycle.Remove(n)
		}
		if cycle.NodeCount() != 0 {
			t.Fatalf("NodeCount = %d after resolving every leaf", cycle.NodeCount())
		}
	}
	build()
	if allocs := testing.AllocsPerRun(10, build); allocs != 0 {
		t.Errorf("warm Node/Link/Remove cycle allocates %v times", allocs)
	}
}

func TestAppendPathReuse(t *testing.T) {
	tr := New()
	leaves := buildPaths(tr, [][]graph.VertexID{{7, 8, 9}})
	buf := make([]graph.VertexID, 0, 8)
	buf = tr.AppendPath(buf, leaves[0])
	if !reflect.DeepEqual(buf, []graph.VertexID{7, 8, 9}) {
		t.Errorf("AppendPath = %v", buf)
	}
	// Appending again extends, does not clobber.
	buf = tr.AppendPath(buf, leaves[0])
	if !reflect.DeepEqual(buf, []graph.VertexID{7, 8, 9, 7, 8, 9}) {
		t.Errorf("AppendPath 2nd = %v", buf)
	}
}

// Compression property: for any set of shared-prefix paths the trie
// never stores more nodes than the list form stores vertices, and the
// trie stores exactly the number of distinct prefixes.
func TestCompressionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		depth := 2 + rng.Intn(4)
		numPaths := 1 + rng.Intn(30)
		paths := make([][]graph.VertexID, 0, numPaths)
		prefixes := make(map[string]bool)
		listVertices := 0
		for i := 0; i < numPaths; i++ {
			p := make([]graph.VertexID, depth)
			for j := range p {
				p[j] = graph.VertexID(rng.Intn(3)) // small alphabet -> sharing
			}
			// Deduplicate full paths: a trie cannot hold duplicate results.
			key := ""
			for _, v := range p {
				key += string(rune('a' + v))
			}
			if prefixes["full:"+key] {
				continue
			}
			prefixes["full:"+key] = true
			paths = append(paths, p)
			listVertices += depth
			pk := ""
			for _, v := range p {
				pk += string(rune('a' + v))
				prefixes[pk] = true
			}
		}
		distinctPrefixes := 0
		for k := range prefixes {
			if len(k) > 5 && k[:5] == "full:" {
				continue
			}
			distinctPrefixes++
		}
		tr := New()
		buildPaths(tr, paths)
		if tr.NodeCount() != distinctPrefixes {
			t.Fatalf("trial %d: NodeCount = %d, want %d distinct prefixes", trial, tr.NodeCount(), distinctPrefixes)
		}
		if tr.NodeCount() > listVertices {
			t.Fatalf("trial %d: trie (%d) larger than list (%d)", trial, tr.NodeCount(), listVertices)
		}
	}
}

// Random insert/remove stress: node count returns to zero when all
// results are removed, and never goes negative.
func TestInsertRemoveStress(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		tr := New()
		var paths [][]graph.VertexID
		n := 1 + rng.Intn(40)
		seen := make(map[[4]graph.VertexID]bool)
		for i := 0; i < n; i++ {
			var p [4]graph.VertexID
			for j := range p {
				p[j] = graph.VertexID(rng.Intn(4))
			}
			if seen[p] {
				continue
			}
			seen[p] = true
			paths = append(paths, p[:])
		}
		leaves := buildPaths(tr, paths)
		rng.Shuffle(len(leaves), func(i, j int) { leaves[i], leaves[j] = leaves[j], leaves[i] })
		for _, lf := range leaves {
			tr.Remove(lf)
		}
		if tr.NodeCount() != 0 {
			t.Fatalf("trial %d: NodeCount = %d after removing all", trial, tr.NodeCount())
		}
	}
}

func TestEVIExample2(t *testing.T) {
	// Example 2: two ECs share undetermined edge (v1,v2); if it fails,
	// both are filtered.
	tr := New()
	leaves := buildPaths(tr, [][]graph.VertexID{{0, 1, 2}, {3, 1, 2}})
	evi := NewEVI()
	e := graph.Edge{U: 1, V: 2}
	evi.Add(e, leaves[0])
	evi.Add(e, leaves[1])
	if evi.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (shared edge)", evi.Len())
	}
	if got := evi.Fail(e, tr); got != 2 {
		t.Fatalf("Fail removed %d, want 2", got)
	}
	if tr.NodeCount() != 0 {
		t.Errorf("NodeCount = %d, want 0", tr.NodeCount())
	}
}

func TestEVINormalizesKeys(t *testing.T) {
	tr := New()
	leaves := buildPaths(tr, [][]graph.VertexID{{0, 1}})
	evi := NewEVI()
	evi.Add(graph.Edge{U: 9, V: 4}, leaves[0])
	if got := candidates(evi, tr, graph.Edge{U: 4, V: 9}); len(got) != 1 {
		t.Errorf("Candidates after reversed add = %v", got)
	}
}

func TestEVISkipsDeadLeaves(t *testing.T) {
	tr := New()
	leaves := buildPaths(tr, [][]graph.VertexID{{0, 1}, {0, 2}})
	evi := NewEVI()
	e1 := graph.Edge{U: 1, V: 2}
	e2 := graph.Edge{U: 3, V: 4}
	evi.Add(e1, leaves[0])
	evi.Add(e2, leaves[0]) // same EC depends on two undetermined edges
	evi.Add(e2, leaves[1])
	if got := evi.Fail(e1, tr); got != 1 {
		t.Fatalf("Fail(e1) = %d, want 1", got)
	}
	// leaves[0] now dead; failing e2 must not double-remove it.
	if got := evi.Fail(e2, tr); got != 1 {
		t.Fatalf("Fail(e2) = %d, want 1 (only the live leaf)", got)
	}
	if tr.NodeCount() != 0 {
		t.Errorf("NodeCount = %d", tr.NodeCount())
	}
}

func TestEVIEdgesSortedAndReset(t *testing.T) {
	evi := NewEVI()
	tr := New()
	leaves := buildPaths(tr, [][]graph.VertexID{{0, 1}})
	evi.Add(graph.Edge{U: 5, V: 2}, leaves[0])
	evi.Add(graph.Edge{U: 1, V: 9}, leaves[0])
	evi.Add(graph.Edge{U: 1, V: 3}, leaves[0])
	got := evi.Edges()
	want := []graph.Edge{{U: 1, V: 3}, {U: 1, V: 9}, {U: 2, V: 5}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Edges = %v, want %v", got, want)
	}
	evi.Reset()
	if evi.Len() != 0 {
		t.Errorf("Len after Reset = %d", evi.Len())
	}
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

// BenchmarkTrieInsertRemove measures raw embedding-trie insert/remove
// throughput on synthetic 4-level paths with heavy prefix sharing.
func BenchmarkTrieInsertRemove(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := New()
		var leaves []Node
		for a := 0; a < 16; a++ {
			na := tr.Node(0, graph.VertexID(a))
			tr.Link(na)
			for c := 0; c < 16; c++ {
				nc := tr.Node(na, graph.VertexID(c))
				tr.Link(nc)
				for d := 0; d < 4; d++ {
					nd := tr.Node(nc, graph.VertexID(d))
					tr.Link(nd)
					leaves = append(leaves, nd)
				}
			}
		}
		for _, lf := range leaves {
			tr.Remove(lf)
		}
		if tr.NodeCount() != 0 {
			b.Fatal("trie not empty")
		}
	}
}
