package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// TestIntersectU32KernelsAgree is the parity check of the kernels
// against the map-based reference, across the size regimes the
// adaptive selection distinguishes.
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
		marks := NewMarks(1200)
		marks.Mark(b)
		probed := new(KernelTally).ProbeMarkedU32(nil, a, marks)
		for name, got := range map[string][]VertexID{
			"probe":      probed,
			"adaptive":   IntersectSortedU32(nil, a, b),
			"merge":      IntersectSortedMergeU32(nil, a, b),
			"merge_swap": IntersectSortedMergeU32(nil, b, a),
			"gallop":     IntersectSortedGallopU32(nil, a, b),
			"swapped":    IntersectSortedU32(nil, b, a),
			"many_from":  new(KernelTally).IntersectManyFromU32(nil, -1, a, b),
		} {
			if !equalVerts(got, want) {
				t.Fatalf("trial %d %s: got %v, want %v (a=%v b=%v)", trial, name, got, want, a, b)
			}
		}
	}
}

// TestIntersectU32FromParity pins the bounded pairwise step to the
// reference over random lower bounds, including bounds outside the
// value space.
func TestIntersectU32FromParity(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		a := randSorted(rng, rng.Intn(50), 120)
		b := randSorted(rng, rng.Intn(50), 120)
		lb := VertexID(rng.Intn(140) - 10)
		want := refIntersect([][]VertexID{a, b}, true, lb)
		got := new(KernelTally).IntersectManyFromU32(nil, lb, a, b)
		if !(len(got) == 0 && len(want) == 0) && !equalVerts(got, want) {
			t.Fatalf("trial %d: FromU32(lb=%d) got %v, want %v", trial, lb, got, want)
		}
	}
}

// TestIntersectManyU32Parity pins the k-way fold to the reference on
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
		want := refIntersect(lists, false, 0)
		copy(scratch, lists)
		got := IntersectManyU32(nil, scratch...)
		if !(len(got) == 0 && len(want) == 0) && !equalVerts(got, want) {
			t.Fatalf("trial %d: ManyU32 got %v, want %v", trial, got, want)
		}

		wantLB := refIntersect(lists, true, lb)
		copy(scratch, lists)
		gotLB := new(KernelTally).IntersectManyFromU32(nil, lb, scratch...)
		if !(len(gotLB) == 0 && len(wantLB) == 0) && !equalVerts(gotLB, wantLB) {
			t.Fatalf("trial %d: ManyFromU32(lb=%d) got %v, want %v", trial, lb, gotLB, wantLB)
		}
	}
	if got := IntersectManyU32(make([]VertexID, 4)); len(got) != 0 {
		t.Errorf("zero lists: got %v, want empty", got)
	}
}

// FuzzIntersectU32Parity fuzzes the parity of the adaptive kernel (and
// each of its regimes) against the reference on sorted deduplicated
// slices decoded from raw bytes.
func FuzzIntersectU32Parity(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{2, 3, 4})
	f.Add([]byte{}, []byte{0, 0, 255})
	f.Add([]byte{7}, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	marks := NewMarks(256)
	f.Fuzz(func(t *testing.T, ra, rb []byte) {
		a := sortedFromBytes(ra)
		b := sortedFromBytes(rb)
		want := refIntersect([][]VertexID{a, b}, false, 0)
		marks.Mark(b)
		probed := new(KernelTally).ProbeMarkedU32(nil, a, marks)
		marks.Unmark(b)
		for name, got := range map[string][]VertexID{
			"adaptive": IntersectSortedU32(nil, a, b),
			"merge":    IntersectSortedMergeU32(nil, a, b),
			"gallop":   IntersectSortedGallopU32(nil, a, b),
			"probe":    probed,
		} {
			if !(len(got) == 0 && len(want) == 0) && !equalVerts(got, want) {
				t.Fatalf("%s: got %v, want %v (a=%v b=%v)", name, got, want, a, b)
			}
		}
		for i, w := range marks {
			if w != 0 {
				t.Fatalf("marks word %d is %#x after Unmark (b=%v)", i, w, b)
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
// kernels in the fold pattern the k-way path relies on, hitting
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
// every variant, tallied or not: with a warm destination of sufficient
// capacity (the merge kernel pre-sizes it to min(len(a), len(b))), each
// must run allocation-free.
func TestIntersectU32KernelsZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randSorted(rng, 64, 4096)
	b := randSorted(rng, 2048, 4096)
	dst := make([]VertexID, 0, 64)
	lists := [][]VertexID{a, b, b}
	scratch := make([][]VertexID, 3)
	marks := NewMarks(4096)
	var tally KernelTally

	cases := []struct {
		name string
		fn   func()
	}{
		{"IntersectSortedU32", func() { dst = IntersectSortedU32(dst, a, b) }},
		{"IntersectSortedMergeU32", func() { dst = IntersectSortedMergeU32(dst, a, b) }},
		{"IntersectSortedGallopU32", func() { dst = IntersectSortedGallopU32(dst, a, b) }},
		{"KernelTally.IntersectSortedU32", func() { dst = tally.IntersectSortedU32(dst, a, b) }},
		{"IntersectManyU32", func() {
			copy(scratch, lists)
			dst = IntersectManyU32(dst, scratch...)
		}},
		{"KernelTally.IntersectManyFromU32", func() {
			copy(scratch, lists)
			dst = tally.IntersectManyFromU32(dst, 1024, scratch...)
		}},
		{"KernelTally.ProbeMarkedU32", func() {
			marks.Mark(b)
			dst = tally.ProbeMarkedU32(dst, a, marks)
			marks.Unmark(b)
		}},
	}
	for _, tc := range cases {
		tc.fn() // warm-up
		if allocs := testing.AllocsPerRun(100, tc.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

// TestKernelTally pins what a tally counts: every pairwise step under
// the regime the size skew selects (gallop from gallopRatioU32 up, merge
// below), and one k-way per fold of three or more lists. The free
// functions count nowhere; the process totals move only when a finished
// run's tally is added to them.
func TestKernelTally(t *testing.T) {
	small := []VertexID{1, 2, 3}
	at := make([]VertexID, gallopRatioU32*len(small))
	for i := range at {
		at[i] = VertexID(i * 2)
	}
	below := at[:len(at)-1]

	var tally KernelTally
	tally.IntersectSortedU32(nil, small, at)
	if want := (KernelTally{Gallop: 1}); tally != want {
		t.Errorf("skew at the ratio: %+v, want %+v", tally, want)
	}
	tally.IntersectSortedU32(nil, below, small) // either argument order
	if want := (KernelTally{Gallop: 1, Merge: 1}); tally != want {
		t.Errorf("skew below the ratio: %+v, want %+v", tally, want)
	}
	tally.IntersectManyFromU32(nil, -1, small, at)
	if want := (KernelTally{Gallop: 2, Merge: 1}); tally != want {
		t.Errorf("two lists are no k-way: %+v, want %+v", tally, want)
	}
	tally.IntersectManyFromU32(nil, 0, small, small, at, small)
	if want := (KernelTally{Gallop: 3, Merge: 3, KWay: 1}); tally != want {
		t.Errorf("four lists: %+v, want %+v (one k-way, three pairwise steps)", tally, want)
	}
	marks := NewMarks(len(at) * 2)
	marks.Mark(at)
	tally.ProbeMarkedU32(nil, small, marks) // whatever the lengths
	if want := (KernelTally{Gallop: 3, Merge: 3, KWay: 1, Probe: 1}); tally != want {
		t.Errorf("a probe: %+v, want %+v", tally, want)
	}

	before := KernelCounts()
	SetKernelCounting(true) // no switch left to flip
	IntersectSortedU32(nil, small, at)
	IntersectManyU32(nil, small, small, at)
	if d := KernelCountsDelta(before); d != nil {
		t.Errorf("untallied calls moved the process totals: %v", d)
	}
	tally.AddToProcessTotals()
	d := KernelCountsDelta(before)
	if !reflect.DeepEqual(d, tally.Map()) {
		t.Errorf("process totals moved by %v, want %v", d, tally.Map())
	}
}
