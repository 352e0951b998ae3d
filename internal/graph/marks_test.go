package graph

import (
	"math/rand"
	"testing"
)

// TestMarks pins the bitmap: Set, Clear and Has on single vertices, at
// word edges too; Mark and Unmark on lists; and a bitmap whose lists
// have all been unmarked is all zero again, with a vertex marked by two
// overlapping lists gone after either is unmarked.
func TestMarks(t *testing.T) {
	m := NewMarks(130)
	if len(m) != 3 {
		t.Fatalf("130 vertices take %d words, want 3", len(m))
	}
	for _, v := range []VertexID{0, 63, 64, 127, 129} {
		m.Set(v)
		if !m.Has(v) || m.Has(v^1) {
			t.Errorf("after Set(%d): Has(%d) %v, Has(%d) %v", v, v, m.Has(v), v^1, m.Has(v^1))
		}
		m.Clear(v)
		if m.Has(v) {
			t.Errorf("Clear(%d) left it set", v)
		}
	}
	rng := rand.New(rand.NewSource(5))
	a, b := randSorted(rng, 40, 130), randSorted(rng, 40, 130)
	m.Mark(a)
	m.Mark(b)
	for v := VertexID(0); v < 130; v++ {
		if want := ContainsSorted(a, v) || ContainsSorted(b, v); m.Has(v) != want {
			t.Fatalf("Has(%d) = %v after marking both lists, want %v", v, m.Has(v), want)
		}
	}
	m.Unmark(a)
	m.Unmark(b)
	for i, w := range m {
		if w != 0 {
			t.Fatalf("word %d is %#x after unmarking every list", i, w)
		}
	}
}

// TestProbeMarkedU32InPlace checks the dst-aliases-list contract of the
// probe, which the k-way paths fold through.
func TestProbeMarkedU32InPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	marks := NewMarks(500)
	for trial := 0; trial < 100; trial++ {
		list := randSorted(rng, 1+rng.Intn(80), 500)
		marked := randSorted(rng, 1+rng.Intn(300), 500)
		want := refIntersect([][]VertexID{list, marked}, false, 0)
		marks.Mark(marked)
		got := new(KernelTally).ProbeMarkedU32(list, list, marks)
		marks.Unmark(marked)
		if !(len(got) == 0 && len(want) == 0) && !equalVerts(got, want) {
			t.Fatalf("trial %d: in-place probe got %v, want %v", trial, got, want)
		}
	}
}
