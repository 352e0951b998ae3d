package pattern

import (
	"bytes"
	"strconv"
)

// CanonicalKey returns a string that is equal for two patterns exactly
// when they are isomorphic as unlabeled graphs. The resident query
// service uses it to key its result cache: embedding *counts* are
// isomorphism-invariant, so isomorphic motif queries submitted under
// different vertex labelings share one cache entry.
//
// The key is the lexicographically greatest flattening of the strict
// lower triangle of the adjacency matrix over all vertex orderings,
// found by branch-and-bound with prefix pruning and twin elimination.
// Worst case is factorial, but patterns are tiny (the paper's largest
// query has 6 vertices) and twins collapse the symmetric blowups
// (stars, cliques), so in practice this is microseconds.
//
// Note the key deliberately ignores Name: "triangle" and "k3" share a
// key.
func (p *Pattern) CanonicalKey() string {
	n := p.n
	if n == 0 {
		return "0:"
	}
	// The search reads adjacency as an n×n matrix: one load per probe,
	// where HasEdge scans a list.
	edge := make([]bool, n*n)
	for u, nbrs := range p.adj {
		for _, v := range nbrs {
			edge[u*n+int(v)] = true
		}
	}
	// twin reports whether u and v are twins: adj(u)\{v} == adj(v)\{u}.
	// Twins (adjacent or not) are swapped by an automorphism fixing all
	// other vertices, so they are interchangeable in any vertex ordering.
	twin := func(u, v int) bool {
		ru, rv := edge[u*n:u*n+n], edge[v*n:v*n+n]
		for w := range ru {
			if ru[w] != rv[w] && w != u && w != v {
				return false
			}
		}
		return true
	}
	var best []byte
	cur := make([]byte, 0, n*(n-1)/2)
	perm := make([]int, 0, n)
	used := make([]bool, n)
	// tried holds, level after level, the candidates each open level
	// has tried so far; a level's own run starts where its parent's
	// ended and is cut back when the level returns.
	tried := make([]int, 0, n*(n+1)/2)
	var rec func()
	rec = func() {
		i := len(perm)
		if i == n {
			if best == nil || bytes.Compare(cur, best) > 0 {
				best = append(best[:0], cur...)
			}
			return
		}
		from := len(tried)
		for v := 0; v < n; v++ {
			if used[v] {
				continue
			}
			// Twin elimination: if an already-tried candidate u is
			// interchangeable with v, the subtree under v repeats the
			// one under u.
			isTwin := false
			for _, u := range tried[from:] {
				if twin(u, v) {
					isTwin = true
					break
				}
			}
			if isTwin {
				continue
			}
			tried = append(tried, v)
			mark := len(cur)
			row := edge[v*n : v*n+n]
			for _, u := range perm {
				if row[u] {
					cur = append(cur, '1')
				} else {
					cur = append(cur, '0')
				}
			}
			// Prefix pruning: a branch whose partial string already
			// falls below the incumbent cannot recover (lexicographic
			// order on equal-length strings is prefix-monotone).
			if best == nil || bytes.Compare(cur, best[:len(cur)]) >= 0 {
				perm = append(perm, v)
				used[v] = true
				rec()
				perm = perm[:len(perm)-1]
				used[v] = false
			}
			cur = cur[:mark]
		}
		tried = tried[:from]
	}
	rec()
	return strconv.Itoa(n) + ":" + string(best)
}
