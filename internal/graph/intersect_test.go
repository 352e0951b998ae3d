package graph

import (
	"math/rand"
	"sort"
	"testing"
)

// refIntersect is the trivially-correct reference: a map-based
// intersection of any number of ascending lists, optionally bounded
// below (strictly greater than lb).
func refIntersect(lists [][]VertexID, bounded bool, lb VertexID) []VertexID {
	if len(lists) == 0 {
		return nil
	}
	count := make(map[VertexID]int)
	for _, l := range lists {
		for _, v := range l {
			count[v]++
		}
	}
	var out []VertexID
	for v, c := range count {
		if c == len(lists) && (!bounded || v > lb) {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func randSorted(rng *rand.Rand, n, space int) []VertexID {
	seen := make(map[VertexID]bool)
	for len(seen) < n {
		seen[VertexID(rng.Intn(space))] = true
	}
	out := make([]VertexID, 0, n)
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalVerts(a, b []VertexID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestIntersectKernelsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		na, nb := rng.Intn(60), rng.Intn(600)
		a := randSorted(rng, na, 200)
		b := randSorted(rng, nb, 800)
		want := refIntersect([][]VertexID{a, b}, false, 0)
		if want == nil {
			want = []VertexID{}
		}
		for name, got := range map[string][]VertexID{
			"adaptive": IntersectSorted(nil, a, b),
			"merge":    IntersectSortedMerge(nil, a, b),
			"gallop":   IntersectSortedGallop(nil, a, b),
			"swapped":  IntersectSorted(nil, b, a),
		} {
			if !equalVerts(got, want) {
				t.Fatalf("trial %d %s: got %v, want %v (a=%v b=%v)", trial, name, got, want, a, b)
			}
		}
	}
}

func TestIntersectMany(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		k := 1 + rng.Intn(4)
		lists := make([][]VertexID, k)
		for i := range lists {
			lists[i] = randSorted(rng, 5+rng.Intn(60), 90)
		}
		wantAll := refIntersect(lists, false, 0)

		scratch := make([][]VertexID, k)
		copy(scratch, lists)
		gotAll := IntersectMany(nil, scratch...)

		if !(len(gotAll) == 0 && len(wantAll) == 0) && !equalVerts(gotAll, wantAll) {
			t.Fatalf("trial %d: IntersectMany got %v, want %v", trial, gotAll, wantAll)
		}
	}
	if got := IntersectMany[VertexID](make([]VertexID, 4)); len(got) != 0 {
		t.Errorf("zero lists: got %v, want empty", got)
	}
}

// TestIntersectInPlaceFold checks the documented aliasing contract:
// dst = IntersectSorted(dst, dst, b) folds without corrupting results,
// for both the merge and the gallop regime.
func TestIntersectInPlaceFold(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		cur := randSorted(rng, 10+rng.Intn(40), 300)
		small := randSorted(rng, 10+rng.Intn(40), 300) // comparable: merge
		huge := randSorted(rng, 900, 1000)             // skewed: gallop
		want := refIntersect([][]VertexID{cur, small, huge}, false, 0)

		dst := append([]VertexID(nil), cur...)
		dst = IntersectSorted(dst, dst, small)
		dst = IntersectSorted(dst, dst, huge)
		if !(len(dst) == 0 && len(want) == 0) && !equalVerts(dst, want) {
			t.Fatalf("trial %d: in-place fold got %v, want %v", trial, dst, want)
		}
	}
}

// TestIntersectGenericOverOtherTypes pins the genericity of the family
// the benchmark module still instantiates: any ordered element type.
func TestIntersectGenericOverOtherTypes(t *testing.T) {
	a := []int8{1, 3, 5, 7}
	b := []int8{2, 3, 4, 7, 9}
	got := IntersectSorted(nil, a, b)
	if len(got) != 2 || got[0] != 3 || got[1] != 7 {
		t.Fatalf("int8 intersection = %v, want [3 7]", got)
	}
}

// TestIntersectKernelsZeroAlloc is the allocation regression test of
// the kernels: with a warm destination of sufficient capacity, every
// kernel must run allocation-free.
func TestIntersectKernelsZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randSorted(rng, 64, 4096)
	b := randSorted(rng, 2048, 4096)
	dst := make([]VertexID, 0, 64)
	lists := [][]VertexID{a, b, b}
	scratch := make([][]VertexID, 3)

	cases := []struct {
		name string
		fn   func()
	}{
		{"IntersectSorted", func() { dst = IntersectSorted(dst, a, b) }},
		{"IntersectSortedMerge", func() { dst = IntersectSortedMerge(dst, a, b) }},
		{"IntersectSortedGallop", func() { dst = IntersectSortedGallop(dst, a, b) }},
		{"IntersectMany", func() {
			copy(scratch, lists)
			dst = IntersectMany(dst, scratch...)
		}},
	}
	for _, tc := range cases {
		tc.fn() // warm-up
		if allocs := testing.AllocsPerRun(100, tc.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}
