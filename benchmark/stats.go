package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func minMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return lo, hi
}

// percentileLadder are the percentiles a timing may be reported at.
var percentileLadder = []float64{0.5, 0.75, 0.9, 0.95, 0.99, 0.999}

// tailQuantile picks the highest ladder percentile, no higher than
// want, that still has at least ten of the n samples beyond it. With
// fewer than twenty samples nothing above the median qualifies and the
// median itself is returned: a tail read off a handful of samples is a
// maximum, not a percentile.
//
// Each workload passes as want the percentile its nominal window
// supports (see tailOf), so that the percentile does not flip between
// two runs whose sample counts straddle a threshold; the rule only
// lowers it when a run is too short to support even that.
func tailQuantile(n int, want float64) float64 {
	best := 0.5
	for _, q := range percentileLadder {
		if q > want {
			break
		}
		if float64(n)*(1-q) >= 10-1e-9 { // 1-0.9 is a hair under 0.1
			best = q
		}
	}
	return best
}

// tailOf is the percentile behind lat_tail_ms, per workload, at the
// nominal 25 s window: ~65 000 requests leave ~650 beyond p99 (p99.9 is
// a layer metric, too jumpy to gate); ~240 census passes leave ~60
// beyond p75 — p90 has its ten too, but it read 98 to 131 ms over ten
// runs whose medians read 95 to 107 (quartile spread 24 %), so it is
// not gated either; the ~33 (enum_local) and ~27 (enum_tcp) enumeration
// passes support nothing above the median, so there lat_tail_ms repeats
// lat_p50_ms and -compare judges the pair once.
var tailOf = map[string]float64{
	"enum_local": 0.5,
	"enum_tcp":   0.5,
	"serve_http": 0.99,
	"census_k4":  0.75,
}

// quartileSpread is the distance between the first and third quartile
// of xs as a share of their median, with the quartiles computed the
// way Python's statistics.quantiles(xs, n=4) does (exclusive method) —
// the figure the acceptance driver judges steadiness by. It needs at
// least two values; fewer report 0.
func quartileSpread(xs []float64) float64 {
	m := len(xs)
	if m < 2 {
		return 0
	}
	s := sorted(xs)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		} else if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (cut(3) - cut(1)) / math.Abs(med)
}
