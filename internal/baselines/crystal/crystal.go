// Package crystal reimplements the approach of Qiao et al. [PVLDB
// 2017] ("Subgraph matching: on compression and computation") as the
// paper's index-based baseline. The data graph is preprocessed into a
// clique index; a query is decomposed into a core (a minimum vertex
// cover) plus crystals: the non-core vertices — necessarily an
// independent set — hang off the core and are represented compactly as
// candidate sets ("bud" compression) instead of being expanded.
//
// Faithfully preserved cost profile (Sections 7 and 8 of the paper):
//   - a heavy precomputed clique index, many times the graph's size
//     (Table 2), makes clique-shaped queries nearly free;
//   - intermediate results are compressed, so no huge shuffles;
//   - queries whose core is not clique-like pay full exploration cost;
//   - there is no memory control: expansion buffers grow unchecked.
//
// Simplification: core embeddings are enumerated from the
// index-holding machine's full view of the graph (the original relies
// on replicated index shards); communication is modelled as one
// shuffle of the compressed results, matching the original's single
// core-crystal join round.
package crystal

import (
	"sort"

	"rads/internal/baselines/common"
	"rads/internal/graph"
	"rads/internal/localenum"
	"rads/internal/partition"
	"rads/internal/pattern"
)

// Index is the precomputed clique index: all cliques of the data graph
// up to MaxSize, keyed by size. Built offline, like the paper's
// on-disk index files (Table 2 reports their size).
type Index struct {
	MaxSize int
	Cliques map[int][][]graph.VertexID
}

// BuildIndex enumerates every clique of size 2..maxSize. Each clique
// is stored once with ascending vertices.
func BuildIndex(g *graph.Graph, maxSize int) *Index {
	idx := &Index{MaxSize: maxSize, Cliques: make(map[int][][]graph.VertexID)}
	var cur []graph.VertexID
	var grow func(cand []graph.VertexID)
	grow = func(cand []graph.VertexID) {
		if len(cur) >= 2 {
			idx.Cliques[len(cur)] = append(idx.Cliques[len(cur)], append([]graph.VertexID(nil), cur...))
		}
		if len(cur) == maxSize {
			return
		}
		for i, v := range cand {
			var next []graph.VertexID
			for _, w := range cand[i+1:] {
				if g.HasEdge(v, w) {
					next = append(next, w)
				}
			}
			cur = append(cur, v)
			grow(next)
			cur = cur[:len(cur)-1]
		}
	}
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		vv := graph.VertexID(v)
		var cand []graph.VertexID
		for _, w := range g.Adj(vv) {
			if w > vv {
				cand = append(cand, w)
			}
		}
		cur = append(cur[:0], vv)
		grow(cand)
		cur = cur[:0]
	}
	return idx
}

// Bytes returns the accounted index size (Table 2's "Index File Size").
func (idx *Index) Bytes() int64 {
	var n int64
	for size, cs := range idx.Cliques {
		n += int64(len(cs)) * int64(size) * 4
	}
	return n
}

// Count returns the number of indexed cliques of the given size.
func (idx *Index) Count(size int) int { return len(idx.Cliques[size]) }

// Core computes the query core: the smallest *connected* vertex cover,
// preferring denser (more clique-like) covers among equals — the
// "crystal-friendly" choice. The original handles disconnected covers
// by joining crystal components; requiring connectivity instead is a
// documented simplification that keeps core enumeration tractable and
// preserves the core+bud structure.
func Core(p *pattern.Pattern) []pattern.VertexID {
	n := p.N()
	var best []pattern.VertexID
	bestKey := -1
	for mask := 1; mask < 1<<n; mask++ {
		if best != nil && popcount(mask) > len(best) {
			continue
		}
		// Check cover.
		ok := true
		for _, e := range p.Edges() {
			if mask&(1<<e[0]) == 0 && mask&(1<<e[1]) == 0 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		var vs []pattern.VertexID
		for v := 0; v < n; v++ {
			if mask&(1<<v) != 0 {
				vs = append(vs, pattern.VertexID(v))
			}
		}
		if sub, _ := p.InducedSubgraph(vs); !sub.IsConnected() {
			continue
		}
		// Prefer smaller covers; among equals prefer more induced edges
		// (denser cores are closer to cliques).
		edges := 0
		for i := range vs {
			for j := i + 1; j < len(vs); j++ {
				if p.HasEdge(vs[i], vs[j]) {
					edges++
				}
			}
		}
		if best == nil || len(vs) < len(best) || (len(vs) == len(best) && edges > bestKey) {
			best, bestKey = vs, edges
		}
	}
	return best
}

func popcount(x int) int {
	c := 0
	for ; x != 0; x &= x - 1 {
		c++
	}
	return c
}

// isClique reports whether vs induces a clique in p.
func isClique(p *pattern.Pattern, vs []pattern.VertexID) bool {
	for i := range vs {
		for j := i + 1; j < len(vs); j++ {
			if !p.HasEdge(vs[i], vs[j]) {
				return false
			}
		}
	}
	return true
}

// compressed is one compressed result: a core embedding plus one
// candidate set per bud vertex.
type compressed struct {
	core []graph.VertexID
	buds [][]graph.VertexID
}

// Run enumerates p with the Crystal strategy. The index is built on
// the fly if cfg.Index is nil (real deployments precompute it — the
// harness does too, so benchmarks charge only query time).
func Run(part *partition.Partition, p *pattern.Pattern, cfg Config) (*common.Result, error) {
	rt := common.NewRuntime(part.M, cfg.Config)
	defer rt.Close()
	g := part.G

	idx := cfg.Index
	if idx == nil {
		idx = BuildIndex(g, IndexSizeFor(p))
	}

	core := Core(p)
	inCore := make([]bool, p.N())
	for _, u := range core {
		inCore[u] = true
	}
	var buds []pattern.VertexID
	for u := 0; u < p.N(); u++ {
		if !inCore[u] {
			buds = append(buds, pattern.VertexID(u))
		}
	}
	check := common.NewConstraintChecker(p)

	// Phase 1: core embeddings per machine, anchored at local vertices.
	// When the core induces a clique the index supplies them directly
	// ("the triangle crystal can be directly loaded from index without
	// any computation"); otherwise backtracking exploration runs.
	corePat, oldIDs := p.InducedSubgraph(core)
	coreEmb := make([][][]graph.VertexID, part.M) // per machine: rows laid out like `core`
	coreChargers := make([]*common.Charger, part.M)
	err := rt.Superstep(func(id int) error {
		charger := rt.NewCharger(id, len(core))
		coreChargers[id] = charger
		if isClique(p, core) && len(core) >= 2 {
			// Index fast path: each stored clique of size |core| yields
			// embeddings for every vertex assignment; anchor ownership
			// dedupes across machines (smallest clique vertex's owner).
			for _, cl := range idx.Cliques[len(core)] {
				if int(part.Owner[cl[0]]) != id {
					continue
				}
				var cerr error
				permuteInto(cl, len(core), func(assign []graph.VertexID) {
					if cerr == nil {
						cerr = charger.Add(1)
					}
					coreEmb[id] = append(coreEmb[id], append([]graph.VertexID(nil), assign...))
				})
				if cerr != nil {
					return cerr
				}
			}
			return charger.Flush()
		}
		// Exploration path: enumerate the induced core pattern with the
		// anchor vertex owned locally.
		var cerr error
		localenum.Enumerate(g, corePat, localenum.Options{
			Constraints: []pattern.OrderConstraint{}, // constraints applied at assembly
			StartCandidates: func() []graph.VertexID {
				return part.Vertices(id)
			}(),
		}, func(f []graph.VertexID) bool {
			if cerr = charger.Add(1); cerr != nil {
				return false
			}
			coreEmb[id] = append(coreEmb[id], append([]graph.VertexID(nil), f...))
			return true
		})
		if cerr != nil {
			return cerr
		}
		return charger.Flush()
	})
	if err != nil {
		return nil, err
	}

	// Phase 2: attach bud candidate sets (compressed), shuffle the
	// compressed results once (the core-crystal join round), expand and
	// count.
	totals := make([]int64, part.M)
	err = rt.Superstep(func(id int) error {
		f := make([]graph.VertexID, p.N())
		lists := make([][]graph.VertexID, 0, p.N())
		var comp []compressed
		var compBytes int64
		for _, ce := range coreEmb[id] {
			for i := range f {
				f[i] = -1
			}
			ok := true
			// corePat order: position i corresponds to oldIDs[i].
			used := make(map[graph.VertexID]bool, p.N())
			for i, u := range oldIDs {
				f[u] = ce[i]
				if used[ce[i]] {
					ok = false
					break
				}
				used[ce[i]] = true
			}
			if !ok || !check.Check(f) {
				continue
			}
			c := compressed{core: append([]graph.VertexID(nil), ce...)}
			for _, b := range buds {
				cands := budCandidates(g, p, f, b, used, lists)
				if len(cands) == 0 {
					c.buds = nil
					ok = false
					break
				}
				c.buds = append(c.buds, cands)
				compBytes += int64(len(cands)) * 4
			}
			if ok {
				comp = append(comp, c)
			}
		}
		if err := rt.Budget.Charge(id, compBytes); err != nil {
			return err
		}
		defer rt.Budget.Release(id, compBytes)
		// Model the single core-crystal join shuffle: compressed rows
		// move once, hashed by the first core vertex. Nobody receives
		// them (they count as traffic; the expansion below already
		// produces the final counts), so they are never charged.
		rows := make([]common.Row, len(comp))
		for i, c := range comp {
			rows[i] = append(common.Row(nil), c.core...)
			for _, bc := range c.buds {
				rows[i] = append(rows[i], graph.VertexID(len(bc)))
				rows[i] = append(rows[i], bc...)
			}
		}
		if err := rt.Send(id, rows, func(row common.Row) int { return int(row[0]) % part.M }); err != nil {
			return err
		}

		// Expansion: backtracking over bud assignments with injectivity
		// and constraints — this buffer is Crystal's memory Achilles
		// heel; charge it.
		for _, c := range comp {
			for i := range f {
				f[i] = -1
			}
			used := make(map[graph.VertexID]bool, p.N())
			for i, u := range oldIDs {
				f[u] = c.core[i]
				used[c.core[i]] = true
			}
			cnt, expBytes := expandBuds(p, buds, c.buds, f, used, check)
			if err := rt.Budget.Charge(id, expBytes); err != nil {
				return err
			}
			rt.Budget.Release(id, expBytes)
			totals[id] += cnt
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var total int64
	for id := 0; id < part.M; id++ {
		coreChargers[id].ReleaseAll()
		total += totals[id]
	}
	return rt.Result(total, 1), nil
}

// Config extends the common baseline config with the prebuilt index.
type Config struct {
	common.Config
	Index *Index
}

// IndexSizeFor returns the index depth a query requires: the size of
// its largest clique (at least 3 so triangles are always available).
// It is the single source of truth for how deep an index must be
// built — preparers (the engine-API wiring) must use it so a
// preprepared index is never shallower than Run assumes.
func IndexSizeFor(p *pattern.Pattern) int {
	mc := p.MaxCliqueSize()
	if mc < 3 {
		return 3
	}
	return mc
}

// budCandidates intersects the adjacency lists of the bud's (all-core)
// neighbours through the shared k-way kernel (which orders the lists
// by length and gallops on skew — the decisive case when a bud hangs
// off a hub), then drops used and low-degree vertices.
func budCandidates(g *graph.Graph, p *pattern.Pattern, f []graph.VertexID, bud pattern.VertexID, used map[graph.VertexID]bool, lists [][]graph.VertexID) []graph.VertexID {
	lists = lists[:0]
	for _, w := range p.Adj(bud) {
		lists = append(lists, g.Adj(f[w]))
	}
	cands := graph.IntersectManyU32(nil, lists...)
	kept := cands[:0]
	for _, v := range cands {
		if !used[v] && g.Degree(v) >= p.Degree(bud) {
			kept = append(kept, v)
		}
	}
	return kept
}

// expandBuds counts injective, constraint-satisfying assignments of
// the buds from their candidate sets, returning the count and the
// accounted size of the expansion buffer.
func expandBuds(p *pattern.Pattern, buds []pattern.VertexID, cands [][]graph.VertexID, f []graph.VertexID, used map[graph.VertexID]bool, check *common.ConstraintChecker) (int64, int64) {
	var cnt int64
	var rec func(i int)
	rec = func(i int) {
		if i == len(buds) {
			cnt++
			return
		}
		b := buds[i]
		for _, v := range cands[i] {
			if used[v] {
				continue
			}
			f[b] = v
			if check.Check(f) {
				used[v] = true
				rec(i + 1)
				used[v] = false
			}
			f[b] = -1
		}
	}
	rec(0)
	expBytes := cnt * int64(p.N()) * 4 // materialized embeddings
	return cnt, expBytes
}

// SortCore is a test helper exposing the deterministic core order.
func SortCore(core []pattern.VertexID) []pattern.VertexID {
	sort.Slice(core, func(i, j int) bool { return core[i] < core[j] })
	return core
}

// permuteInto calls fn with every permutation of cl (length k); fn
// must copy the slice if it retains it.
func permuteInto(cl []graph.VertexID, k int, fn func([]graph.VertexID)) {
	assign := make([]graph.VertexID, k)
	used := make([]bool, k)
	var rec func(i int)
	rec = func(i int) {
		if i == k {
			fn(assign)
			return
		}
		for j := 0; j < k; j++ {
			if used[j] {
				continue
			}
			used[j] = true
			assign[i] = cl[j]
			rec(i + 1)
			used[j] = false
		}
	}
	rec(0)
}
