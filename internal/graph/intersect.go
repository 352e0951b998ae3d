// Sorted-slice search helpers, and the generic intersection family.
//
// SearchSorted and ContainsSorted serve every package that probes an
// adjacency list. The intersection functions below them are NOT what
// enumeration runs on: product code intersects through the concrete
// 4-byte kernels of intersect32.go. The generic IntersectSorted and
// IntersectMany (with their merge and gallop bodies) remain only
// because the nested benchmark module compiles against them for its
// "generic" micro rows; they have no product caller, are not counted,
// and go when those rows do.
package graph

import "cmp"

// gallopRatioGeneric is the size skew at which the generic adaptive
// kernel gallops instead of merging. It differs from gallopRatioU32
// (intersect32.go, where the sweep behind both is recorded) because
// the crossover depends on the element width and the merge body.
const gallopRatioGeneric = 8

// SearchSorted returns the smallest index i with a[i] >= v, or len(a).
func SearchSorted[V cmp.Ordered](a []V, v V) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// ContainsSorted reports whether ascending slice a contains v.
func ContainsSorted[V cmp.Ordered](a []V, v V) bool {
	i := SearchSorted(a, v)
	return i < len(a) && a[i] == v
}

// IntersectSorted writes the intersection of two ascending slices into
// dst (truncated first) and returns it, galloping when one list is at
// least gallopRatioGeneric times longer than the other and merging
// linearly otherwise. dst may alias a. Kept for the benchmark module
// (see the file comment).
func IntersectSorted[V cmp.Ordered](dst, a, b []V) []V {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(b) >= gallopRatioGeneric*len(a) {
		return IntersectSortedGallop(dst, a, b)
	}
	return IntersectSortedMerge(dst, a, b)
}

// IntersectSortedMerge is the plain linear-merge intersection — optimal
// when the lists are of comparable size. dst may alias a or b.
func IntersectSortedMerge[V cmp.Ordered](dst, a, b []V) []V {
	dst = dst[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// IntersectSortedGallop intersects by iterating the small list and
// exponentially searching the large one from a monotonically advancing
// lower bound — O(|small| * log(|large|/|small|)) comparisons, the
// winning regime when |small| << |large| (a refined candidate list
// against a hub's adjacency list). dst may alias small or large.
func IntersectSortedGallop[V cmp.Ordered](dst, small, large []V) []V {
	dst = dst[:0]
	lo := 0
	for _, v := range small {
		j := expSearch(large, lo, v)
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

// expSearch returns the smallest index j in [lo, len(a)] with a[j] >= v,
// doubling the step from lo before binary searching the final window —
// cheap when successive probes land close together.
func expSearch[V cmp.Ordered](a []V, lo int, v V) int {
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
	// Binary search in (i, hi].
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

// IntersectMany intersects any number of ascending lists into dst,
// folding pairwise from the two shortest upward. lists is reordered in
// place (ascending length) and dst must not alias any of them. Kept for
// the benchmark module (see the file comment).
func IntersectMany[V cmp.Ordered](dst []V, lists ...[]V) []V {
	if len(lists) == 0 {
		return dst[:0]
	}
	for i := 1; i < len(lists); i++ {
		for j := i; j > 0 && len(lists[j]) < len(lists[j-1]); j-- {
			lists[j], lists[j-1] = lists[j-1], lists[j]
		}
	}
	if len(lists) == 1 {
		return append(dst[:0], lists[0]...)
	}
	dst = IntersectSorted(dst, lists[0], lists[1])
	for i := 2; i < len(lists) && len(dst) > 0; i++ {
		dst = IntersectSorted(dst, dst, lists[i])
	}
	return dst
}
