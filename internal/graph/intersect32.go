// Width-specialised intersection kernels for the flat CSR layout.
//
// The generic kernels in intersect.go serve any cmp.Ordered element —
// the right surface for the synthetic in-memory Graph, whose tests run
// them over int8 and strings. The CSR store (internal/dataset)
// guarantees more: every Adj call returns a slice of one flat 32-bit
// neighbour array, so the hot loop can commit to the 4-byte element
// width. The kernels here exploit that:
//
//   - IntersectSortedMergeU32 is the linear merge monomorphised to the
//     4-byte width, with a pre-sized destination so the steady-state
//     loop has neither append growth checks nor gcshape dictionary
//     indirection (generic instantiation shares code across same-shape
//     types through a runtime dictionary; the concrete kernel inlines
//     clean) — measured ~5-7% faster than the generic merge on real
//     CSR rows;
//   - IntersectSortedGallopU32 is the galloping kernel monomorphised
//     to the flat neighbour slice, with the exponential and binary
//     search windows inlined on uint-indexed 32-bit loads;
//   - the From / Many variants mirror the generic surface so callers
//     switch wholesale.
//
// VertexID is a non-negative 32-bit integer (dense IDs), so signed and
// unsigned comparisons agree — "uint32-specialised" here means the
// 4-byte element width and the flat-array layout, not a type change.
//
// Dispatch is by provenance, not per call: KernelsFor(store) returns a
// Kernels value that routes to this file when the store declares the
// flat layout (FlatAdjacency) and to the generic kernels otherwise, so
// synthetic graphs keep their proven path and CSR-backed enumeration
// gets the specialised one. All kernels follow the package contract:
// output goes into caller scratch, allocation only on insufficient
// capacity, and the destination may alias the first input.
package graph

// gallopRatioU32 is the size skew at which the specialised gallop
// overtakes the merge kernel on the flat 32-bit layout. Swept with a
// fixed 157-entry row against real CSR rows of a power-law graph at
// 1x-64x its degree: the merge wins through 4x skew (393-440 ns vs
// gallop's 480 ns at 4x) and gallop wins from 8x up (570-580 ns vs
// 744-851 ns), stable across reruns. 6 splits the measured band. Two
// traps when re-sweeping: a subsampled hub row spreads its values thin
// and flatters gallop with skips enumeration never sees, and a row
// intersected with itself at ratio 1 flatters merge (equal elements
// halve its step count) — use distinct real rows. The generic kernels
// keep their own bench-derived default (gallopRatioGeneric = 8 in
// intersect.go) — the constants are per element width, not shared.
const gallopRatioU32 = 6

// IntersectSortedU32 writes the intersection of two ascending VertexID
// slices into dst (truncated first) and returns it — the 32-bit
// counterpart of IntersectSorted, dispatched via KernelsFor when both
// inputs come from a flat CSR store. It gallops when one list is at
// least gallopRatioU32 times longer than the other and runs the
// pre-sized merge otherwise. dst may alias a.
func IntersectSortedU32(dst, a, b []VertexID) []VertexID {
	small, large := a, b
	if len(small) > len(large) {
		small, large = large, small
	}
	if len(large) >= gallopRatioU32*len(small) {
		countGallopU32()
		return IntersectSortedGallopU32(dst, small, large)
	}
	countMergeU32()
	// Merge cost is symmetric, so a and b stay in caller order.
	return IntersectSortedMergeU32(dst, a, b)
}

// IntersectSortedMergeU32 is the linear-merge intersection on the flat
// 32-bit layout: the destination is pre-sized to the largest possible
// result, so the loop body is three predictable branches and an
// indexed store — no append growth checks, no gcshape dictionary (the
// concrete instantiation is what buys the measured edge over the
// generic merge; see the package comment). dst may alias a or b: the
// write cursor w advances only on a match, which also advances both
// read cursors, so w <= min(i, j) holds throughout and every store
// lands at an index both inputs have already passed.
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
// lower bound — the generic gallop monomorphised to the flat 32-bit
// neighbour slice. dst may alias small or large.
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

// searchSortedAfterU32 returns the smallest index i with a[i] > v, or
// len(a) — the 32-bit twin of searchSortedAfter.
func searchSortedAfterU32(a []VertexID, v VertexID) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// IntersectSortedFromU32 is IntersectSortedU32 restricted to elements
// strictly greater than lb: both lists are first advanced past lb with
// a binary search (the symmetry-breaking skip). dst may alias a.
func IntersectSortedFromU32(dst, a, b []VertexID, lb VertexID) []VertexID {
	a = a[searchSortedAfterU32(a, lb):]
	b = b[searchSortedAfterU32(b, lb):]
	return IntersectSortedU32(dst, a, b)
}

// IntersectManyU32 intersects any number of ascending lists into dst,
// folding pairwise from the two shortest upward on the 32-bit kernels.
// lists is reordered in place (callers pass scratch); dst must NOT
// alias any list.
func IntersectManyU32(dst []VertexID, lists ...[]VertexID) []VertexID {
	return intersectManyU32(dst, lists, false, 0)
}

// IntersectManyFromU32 is IntersectManyU32 restricted to elements
// strictly greater than lb. lists is reordered in place.
func IntersectManyFromU32(dst []VertexID, lb VertexID, lists ...[]VertexID) []VertexID {
	return intersectManyU32(dst, lists, true, lb)
}

func intersectManyU32(dst []VertexID, lists [][]VertexID, bounded bool, lb VertexID) []VertexID {
	if len(lists) == 0 {
		return dst[:0]
	}
	if len(lists) > 2 {
		countKWayU32()
	}
	for i := 1; i < len(lists); i++ {
		for j := i; j > 0 && len(lists[j]) < len(lists[j-1]); j-- {
			lists[j], lists[j-1] = lists[j-1], lists[j]
		}
	}
	if bounded {
		first := lists[0]
		first = first[searchSortedAfterU32(first, lb):]
		if len(lists) == 1 {
			return append(dst[:0], first...)
		}
		dst = IntersectSortedFromU32(dst, first, lists[1], lb)
	} else {
		if len(lists) == 1 {
			return append(dst[:0], lists[0]...)
		}
		dst = IntersectSortedU32(dst, lists[0], lists[1])
	}
	for i := 2; i < len(lists) && len(dst) > 0; i++ {
		// The running result folds in place: dst aliases the adaptive
		// kernel's first input, which its contract permits.
		dst = IntersectSortedU32(dst, dst, lists[i])
	}
	return dst
}

// FlatAdjacency is the opt-in marker a Store implements when every Adj
// slice is a view of one flat 32-bit neighbour array (dataset.CSR).
// KernelsFor uses it to route intersection through the specialised
// kernels above; stores with per-vertex allocations (the in-memory
// Graph) stay on the generic path.
type FlatAdjacency interface {
	// FlatAdjacency reports whether the store's Adj slices alias one
	// contiguous 32-bit neighbour array.
	FlatAdjacency() bool
}

// Kernels routes intersection calls to the kernel family matched to a
// store's layout: the 32-bit specialised kernels for flat CSR stores,
// the generic adaptive kernels otherwise. It is a value (one bool), so
// callers resolve it once at construction and pay a single predictable
// branch per intersection — no indirect calls, no per-call type
// assertions in the hot loop.
type Kernels struct {
	flat bool
}

// KernelsFor returns the kernel set matched to s's layout. A nil store
// gets the generic set.
func KernelsFor(s Store) Kernels {
	if f, ok := s.(FlatAdjacency); ok && f.FlatAdjacency() {
		return Kernels{flat: true}
	}
	return Kernels{}
}

// Flat reports whether this set routes to the 32-bit CSR kernels.
func (k Kernels) Flat() bool { return k.flat }

// IntersectManyFrom folds k lists shortest-first above a strict lower
// bound. lists is reordered in place; dst must not alias any list.
func (k Kernels) IntersectManyFrom(dst []VertexID, lb VertexID, lists ...[]VertexID) []VertexID {
	if k.flat {
		return IntersectManyFromU32(dst, lb, lists...)
	}
	return IntersectManyFrom(dst, lb, lists...)
}
