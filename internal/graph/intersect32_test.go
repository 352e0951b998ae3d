package graph

import (
	"math/rand"
	"sort"
	"testing"
)

// TestIntersectU32KernelsAgree is the parity check of the 32-bit CSR
// kernels against both the map-based reference and the generic kernels
// they specialise, across the size regimes the adaptive dispatch
// distinguishes.
func TestIntersectU32KernelsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	for trial := 0; trial < 300; trial++ {
		na, nb := rng.Intn(60), rng.Intn(900)
		a := randSorted(rng, na, 200)
		b := randSorted(rng, nb, 1200)
		want := refIntersect([][]VertexID{a, b}, false, 0)
		if want == nil {
			want = []VertexID{}
		}
		for name, got := range map[string][]VertexID{
			"adaptive":     IntersectSortedU32(nil, a, b),
			"merge":        IntersectSortedMergeU32(nil, a, b),
			"merge_swap":   IntersectSortedMergeU32(nil, b, a),
			"gallop":       IntersectSortedGallopU32(nil, a, b),
			"swapped":      IntersectSortedU32(nil, b, a),
			"generic":      IntersectSorted(nil, a, b),
			"kernels_flat": Kernels{flat: true}.IntersectManyFrom(nil, -1, a, b),
		} {
			if !equalVerts(got, want) {
				t.Fatalf("trial %d %s: got %v, want %v (a=%v b=%v)", trial, name, got, want, a, b)
			}
		}
	}
}

// TestIntersectU32FromParity pins the From variants to the generic ones
// over random lower bounds, including bounds outside the value space.
func TestIntersectU32FromParity(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		a := randSorted(rng, rng.Intn(50), 120)
		b := randSorted(rng, rng.Intn(50), 120)
		lb := VertexID(rng.Intn(140) - 10)
		want := IntersectSortedFrom(nil, a, b, lb)
		got := IntersectSortedFromU32(nil, a, b, lb)
		if !(len(got) == 0 && len(want) == 0) && !equalVerts(got, want) {
			t.Fatalf("trial %d: FromU32(lb=%d) got %v, want %v", trial, lb, got, want)
		}
	}
}

// TestIntersectManyU32Parity pins the k-way fold to the generic one on
// random list collections, bounded and unbounded.
func TestIntersectManyU32Parity(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(4)
		lists := make([][]VertexID, k)
		for i := range lists {
			lists[i] = randSorted(rng, 5+rng.Intn(60), 90)
		}
		lb := VertexID(rng.Intn(95) - 3)

		scratch := make([][]VertexID, k)
		copy(scratch, lists)
		want := IntersectMany(nil, scratch...)
		copy(scratch, lists)
		got := IntersectManyU32(nil, scratch...)
		if !(len(got) == 0 && len(want) == 0) && !equalVerts(got, want) {
			t.Fatalf("trial %d: ManyU32 got %v, want %v", trial, got, want)
		}

		copy(scratch, lists)
		wantLB := IntersectManyFrom(nil, lb, scratch...)
		copy(scratch, lists)
		gotLB := IntersectManyFromU32(nil, lb, scratch...)
		if !(len(gotLB) == 0 && len(wantLB) == 0) && !equalVerts(gotLB, wantLB) {
			t.Fatalf("trial %d: ManyFromU32(lb=%d) got %v, want %v", trial, lb, gotLB, wantLB)
		}
	}
	if got := IntersectManyU32(make([]VertexID, 4)); len(got) != 0 {
		t.Errorf("zero lists: got %v, want empty", got)
	}
}

// FuzzIntersectU32Parity fuzzes the parity of the adaptive 32-bit
// kernel (and its merge regime) against the generic kernel on sorted
// deduplicated slices decoded from raw bytes.
func FuzzIntersectU32Parity(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{2, 3, 4})
	f.Add([]byte{}, []byte{0, 0, 255})
	f.Add([]byte{7}, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Fuzz(func(t *testing.T, ra, rb []byte) {
		a := sortedFromBytes(ra)
		b := sortedFromBytes(rb)
		want := IntersectSorted(nil, a, b)
		for name, got := range map[string][]VertexID{
			"adaptive": IntersectSortedU32(nil, a, b),
			"merge":    IntersectSortedMergeU32(nil, a, b),
		} {
			if !(len(got) == 0 && len(want) == 0) && !equalVerts(got, want) {
				t.Fatalf("%s: got %v, want %v (a=%v b=%v)", name, got, want, a, b)
			}
		}
	})
}

func sortedFromBytes(raw []byte) []VertexID {
	seen := make(map[VertexID]bool, len(raw))
	for _, c := range raw {
		seen[VertexID(c)] = true
	}
	out := make([]VertexID, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestIntersectU32InPlaceFold checks the dst-aliases-a contract of the
// 32-bit kernels in the fold pattern the k-way path relies on, hitting
// both the merge and gallop regimes.
func TestIntersectU32InPlaceFold(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 100; trial++ {
		cur := randSorted(rng, 10+rng.Intn(40), 300)
		small := randSorted(rng, 10+rng.Intn(40), 300) // comparable: merge
		huge := randSorted(rng, 900, 1000)             // skewed: gallop
		want := refIntersect([][]VertexID{cur, small, huge}, false, 0)

		dst := append([]VertexID(nil), cur...)
		dst = IntersectSortedU32(dst, dst, small)
		dst = IntersectSortedU32(dst, dst, huge)
		if !(len(dst) == 0 && len(want) == 0) && !equalVerts(dst, want) {
			t.Fatalf("trial %d: in-place fold got %v, want %v", trial, dst, want)
		}
	}
}

// TestIntersectU32KernelsZeroAlloc is the allocation regression test of
// every 32-bit variant: with a warm destination of sufficient capacity
// (the merge kernel pre-sizes it to min(len(a), len(b))), each must run
// allocation-free.
func TestIntersectU32KernelsZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randSorted(rng, 64, 4096)
	b := randSorted(rng, 2048, 4096)
	dst := make([]VertexID, 0, 64)
	lists := [][]VertexID{a, b, b}
	scratch := make([][]VertexID, 3)
	kern := Kernels{flat: true}

	cases := []struct {
		name string
		fn   func()
	}{
		{"IntersectSortedU32", func() { dst = IntersectSortedU32(dst, a, b) }},
		{"IntersectSortedMergeU32", func() { dst = IntersectSortedMergeU32(dst, a, b) }},
		{"IntersectSortedGallopU32", func() { dst = IntersectSortedGallopU32(dst, a, b) }},
		{"IntersectSortedFromU32", func() { dst = IntersectSortedFromU32(dst, a, b, 1024) }},
		{"IntersectManyU32", func() {
			copy(scratch, lists)
			dst = IntersectManyU32(dst, scratch...)
		}},
		{"IntersectManyFromU32", func() {
			copy(scratch, lists)
			dst = IntersectManyFromU32(dst, 1024, scratch...)
		}},
		{"Kernels.IntersectManyFrom", func() {
			copy(scratch, lists)
			dst = kern.IntersectManyFrom(dst, 1024, scratch...)
		}},
	}
	for _, tc := range cases {
		tc.fn() // warm-up
		if allocs := testing.AllocsPerRun(100, tc.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

// flatStore is a minimal Store stub declaring the flat layout;
// plainStore is the same without the marker. They pin KernelsFor's
// dispatch rule without importing the real CSR (dataset depends on
// graph, not the reverse; dataset's tests assert CSR carries the
// marker).
type flatStore struct{ Store }

func (flatStore) FlatAdjacency() bool { return true }

type deniedFlatStore struct{ Store }

func (deniedFlatStore) FlatAdjacency() bool { return false }

func TestKernelsForDispatch(t *testing.T) {
	g := FromEdges(4, []Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if KernelsFor(g).Flat() {
		t.Error("plain Graph dispatched to the flat kernels")
	}
	if KernelsFor(nil).Flat() {
		t.Error("nil store dispatched to the flat kernels")
	}
	if !KernelsFor(flatStore{g}).Flat() {
		t.Error("FlatAdjacency store did not dispatch to the flat kernels")
	}
	if KernelsFor(deniedFlatStore{g}).Flat() {
		t.Error("FlatAdjacency()==false store dispatched to the flat kernels")
	}
}

// TestKernelsRouteCounters pins the observable difference between the
// two routes: the flat kernel set bumps the *_u32 selection counters,
// the generic set bumps the generic ones.
func TestKernelsRouteCounters(t *testing.T) {
	SetKernelCounting(true)
	defer SetKernelCounting(false)
	small := []VertexID{1, 2, 3}
	large := make([]VertexID, 100)
	for i := range large {
		large[i] = VertexID(i * 2)
	}

	before := KernelCounts()
	flat := Kernels{flat: true}
	flat.IntersectManyFrom(nil, -1, small, large) // gallop_u32: 100 >= 6*3
	flat.IntersectManyFrom(nil, -1, small, small) // merge_u32
	flat.IntersectManyFrom(nil, -1, small, small, small)
	d := KernelCountsDelta(before)
	if d["gallop_u32"] == 0 || d["merge_u32"] == 0 || d["kway_u32"] == 0 {
		t.Errorf("flat route delta %v, want all three *_u32 counters bumped", d)
	}
	if d["gallop"] != 0 || d["kway"] != 0 {
		t.Errorf("flat route delta %v leaked into generic counters", d)
	}

	before = KernelCounts()
	var gen Kernels
	gen.IntersectManyFrom(nil, -1, small, large)
	d = KernelCountsDelta(before)
	if d["gallop"] == 0 {
		t.Errorf("generic route delta %v, want gallop bumped", d)
	}
	if d["gallop_u32"] != 0 {
		t.Errorf("generic route delta %v leaked into u32 counters", d)
	}
}
