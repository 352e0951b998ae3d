// Adaptive sorted-set intersection kernels.
//
// Neighbourhood intersection is the hot operation of every enumeration
// engine in this repository: candidate generation intersects the
// adjacency lists of all already-matched neighbours, and symmetry
// breaking restricts candidates to an interval. These kernels are the
// one family product code calls — RADS's local enumerator and R-Meef
// rounds, Crystal's bud candidates, the triangle counter — over rows
// of the one flat neighbour array, so there is nothing to dispatch on.
//
// Three regimes, chosen adaptively:
//
//   - linear merge for comparably sized lists (branch-predictable,
//     cache-friendly);
//   - galloping (exponential search, as in Timsort and HUGE's
//     leapfrog-style intersections) when one list is much shorter than
//     the other: O(|small| * log |large|) instead of O(|small|+|large|),
//     the decisive regime on power-law graphs where a candidate list
//     meets a hub's adjacency list;
//   - k-way folding that orders lists by length so the running result
//     stays as small as possible from the first pairwise step.
//
// The kernels are written against the concrete element type rather
// than cmp.Ordered: a generic instantiation shares code across
// same-shape types through a runtime dictionary, the concrete merge
// inlines clean and pre-sizes its destination, and measured ~5-7%
// faster than the generic merge on real CSR rows.
//
// All kernels write into a caller-provided destination slice and
// allocate only when its capacity is insufficient, so steady-state
// enumeration loops run allocation-free. The destination may alias the
// first input list (dst = IntersectSortedU32(dst, dst, b) folds in
// place): every kernel writes output position w only after all reads
// of input positions < w are complete.
package graph

// gallopRatioU32 is the size skew at which the gallop overtakes the
// merge kernel. Swept with a fixed 157-entry row against real CSR rows
// of a power-law graph at 1x-64x its degree: the merge wins through 4x
// skew (393-440 ns vs gallop's 480 ns at 4x) and gallop wins from 8x
// up (570-580 ns vs 744-851 ns), stable across reruns. 6 splits the
// measured band. Two traps when re-sweeping: a subsampled hub row
// spreads its values thin and flatters gallop with skips enumeration
// never sees, and a row intersected with itself at ratio 1 flatters
// merge (equal elements halve its step count) — use distinct real
// rows.
const gallopRatioU32 = 6

// KernelTally counts the adaptive selections made through it: pairwise
// intersections that merged, pairwise intersections that galloped, and
// folds of three or more lists (whose pairwise steps count as well).
// It is a plain value owned by whoever runs the intersections — one
// per localenum.Enumerator, one per R-Meef region group — so counting costs an increment, with no atomic and no shared cache
// line, and the sums folded upward (Add) are exact per query.
type KernelTally struct {
	Merge, Gallop, KWay int64
}

// Add folds o into t.
func (t *KernelTally) Add(o KernelTally) {
	t.Merge += o.Merge
	t.Gallop += o.Gallop
	t.KWay += o.KWay
}

// Map returns the tally under the label values of
// rads_kernel_selections_total, the keys of Profile.Kernels.
func (t KernelTally) Map() map[string]int64 {
	return map[string]int64{"merge_u32": t.Merge, "gallop_u32": t.Gallop, "kway_u32": t.KWay}
}

// IntersectSortedU32 writes the intersection of two ascending VertexID
// slices into dst (truncated first) and returns it. It gallops when
// one list is at least gallopRatioU32 times longer than the other and
// runs the pre-sized merge otherwise. dst may alias a.
func (t *KernelTally) IntersectSortedU32(dst, a, b []VertexID) []VertexID {
	small, large := a, b
	if len(small) > len(large) {
		small, large = large, small
	}
	if len(large) >= gallopRatioU32*len(small) {
		t.Gallop++
		return IntersectSortedGallopU32(dst, small, large)
	}
	t.Merge++
	// Merge cost is symmetric, so a and b stay in caller order.
	return IntersectSortedMergeU32(dst, a, b)
}

// IntersectSortedU32 is the adaptive pairwise kernel for callers that
// keep no tally.
func IntersectSortedU32(dst, a, b []VertexID) []VertexID {
	var t KernelTally
	return t.IntersectSortedU32(dst, a, b)
}

// IntersectSortedMergeU32 is the linear-merge intersection: the
// destination is pre-sized to the largest possible result, so the loop
// body is three predictable branches and an indexed store — no append
// growth checks, no gcshape dictionary (see the file comment). dst may
// alias a or b: the write cursor w advances only on a match, which
// also advances both read cursors, so w <= min(i, j) holds throughout
// and every store lands at an index both inputs have already passed.
//
// A branchless speculative-store variant (store the left element every
// iteration, advance all three cursors by comparison results) was
// measured and dropped: its serial load→compare→increment chain ran
// 2-3x slower than this branch-predicted loop at 5, 50 and 95 %
// overlap.
func IntersectSortedMergeU32(dst, a, b []VertexID) []VertexID {
	need := len(a)
	if len(b) < need {
		need = len(b)
	}
	if cap(dst) < need {
		dst = make([]VertexID, need)
	}
	dst = dst[:need]
	i, j, w := 0, 0, 0
	for i < len(a) && j < len(b) {
		va, vb := a[i], b[j]
		if va < vb {
			i++
		} else if vb < va {
			j++
		} else {
			dst[w] = va
			w++
			i++
			j++
		}
	}
	return dst[:w]
}

// IntersectSortedGallopU32 intersects by iterating the small list and
// exponentially searching the large one from a monotonically advancing
// lower bound — O(|small| * log(|large|/|small|)) comparisons, the
// winning regime when |small| << |large| (a refined candidate list
// against a hub's adjacency list). dst may alias small or large.
func IntersectSortedGallopU32(dst, small, large []VertexID) []VertexID {
	dst = dst[:0]
	lo := 0
	for _, v := range small {
		j := expSearchU32(large, lo, v)
		if j == len(large) {
			break
		}
		if large[j] == v {
			dst = append(dst, v)
			lo = j + 1
		} else {
			lo = j
		}
	}
	return dst
}

// expSearchU32 returns the smallest index j in [lo, len(a)] with
// a[j] >= v: doubling steps from lo, then a branch-light binary search
// over the final window.
func expSearchU32(a []VertexID, lo int, v VertexID) int {
	if lo >= len(a) || a[lo] >= v {
		return lo
	}
	// Invariant: a[i] < v.
	i, step := lo, 1
	for i+step < len(a) && a[i+step] < v {
		i += step
		step <<= 1
	}
	hi := i + step
	if hi > len(a) {
		hi = len(a)
	}
	lo2, hi2 := i+1, hi
	for lo2 < hi2 {
		mid := int(uint(lo2+hi2) >> 1)
		if a[mid] < v {
			lo2 = mid + 1
		} else {
			hi2 = mid
		}
	}
	return lo2
}

// IntersectManyFromU32 intersects any number of ascending lists into
// dst, keeping the elements strictly greater than lb < math.MaxInt32 —
// a symmetry-breaking constraint (candidate > f[other]) becomes a
// binary search instead of a per-element filter; lb < 0 (no vertex is
// negative) keeps everything. It folds pairwise from the two shortest
// upward so the running result is as small as possible at every step.
// lists is reordered in place (ascending length) — callers pass
// scratch. Zero lists intersect to the empty set. dst must NOT alias
// any of the lists: the length sort can move an aliased list to a late
// fold position, where writing the running result into dst would
// clobber it before it is read.
func (t *KernelTally) IntersectManyFromU32(dst []VertexID, lb VertexID, lists ...[]VertexID) []VertexID {
	if len(lists) == 0 {
		return dst[:0]
	}
	if len(lists) > 2 {
		t.KWay++
	}
	// Insertion sort by length: k is the pattern degree (tiny), and
	// sort.Slice would allocate in the steady-state loop.
	for i := 1; i < len(lists); i++ {
		for j := i; j > 0 && len(lists[j]) < len(lists[j-1]); j-- {
			lists[j], lists[j-1] = lists[j-1], lists[j]
		}
	}
	// Only the first pairwise step needs the bound: everything folded
	// into its result afterwards can only shrink it.
	first := lists[0]
	if lb >= 0 {
		first = first[SearchSorted(first, lb+1):]
	}
	if len(lists) == 1 {
		return append(dst[:0], first...)
	}
	second := lists[1]
	if lb >= 0 {
		second = second[SearchSorted(second, lb+1):]
	}
	dst = t.IntersectSortedU32(dst, first, second)
	for i := 2; i < len(lists) && len(dst) > 0; i++ {
		// The running result folds in place: dst aliases the adaptive
		// kernel's first input, which its contract permits.
		dst = t.IntersectSortedU32(dst, dst, lists[i])
	}
	return dst
}

// IntersectManyU32 is the unbounded k-way fold for callers that keep
// no tally.
func IntersectManyU32(dst []VertexID, lists ...[]VertexID) []VertexID {
	var t KernelTally
	return t.IntersectManyFromU32(dst, -1, lists...)
}
