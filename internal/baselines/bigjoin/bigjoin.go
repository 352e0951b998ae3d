// Package bigjoin reimplements the BigJoin algorithm of Ammar et al.
// [PVLDB 2018] as characterized in the paper's related work: a
// worst-case-optimal dataflow that extends partial bindings one query
// vertex at a time, where for each level the candidate proposals come
// from one matched neighbour and every other matched neighbour filters
// the proposals by intersection. Bindings are shuffled between
// machines at each hop — like PSgL and unlike RADS, the intermediate
// results themselves travel.
//
// Simplification: proposals come from the first matched neighbour in
// the matching order rather than the minimum-degree one (the WCO bound
// needs the min; the communication structure, which is what the
// evaluation compares, is identical).
package bigjoin

import (
	"rads/internal/baselines/common"
	"rads/internal/graph"
	"rads/internal/partition"
	"rads/internal/pattern"
)

// Run enumerates p with the BigJoin strategy.
func Run(part *partition.Partition, p *pattern.Pattern, cfg common.Config) (*common.Result, error) {
	rt := common.NewRuntime(part.M, cfg)
	defer rt.Close()
	g, n := part.G, p.N()
	lv := common.NewLevels(p)
	cur, err := lv.Seed(rt, part)
	if err != nil {
		return nil, err
	}

	// hop moves every current row, of the given width, to the owner of
	// row[at]; there step takes the arrivals and sets the machine's cur.
	hop := func(width, at int, step func(id int, rows []common.Row) error) error {
		err := rt.Superstep(func(id int) error {
			rt.ReleaseRows(id, len(cur[id]), width)
			return rt.Send(id, cur[id], common.ByOwner(part, at))
		})
		if err != nil {
			return err
		}
		return rt.Superstep(func(id int) error {
			rows, err := rt.Receive(id, width)
			if err != nil {
				return err
			}
			return step(id, rows)
		})
	}
	// filter hops the rows to the owner of row[at], which keeps those
	// passing keep.
	filter := func(width, at int, keep func(common.Row) bool) error {
		return hop(width, at, func(id int, rows []common.Row) error {
			kept := rows[:0]
			for _, row := range rows {
				if keep(row) {
					kept = append(kept, row)
				}
			}
			rt.ReleaseRows(id, len(rows)-len(kept), width)
			cur[id] = kept
			return nil
		})
	}

	for k := 1; k < n; k++ {
		u := lv.Order[k]
		// Hop to the proposer's owner and extend.
		err := hop(k, lv.Anchor[k], func(id int, rows []common.Row) error {
			charger := rt.NewCharger(id, k+1)
			next, err := lv.Expand(g, rows, k, charger)
			if err == nil {
				err = charger.Flush()
			}
			if err != nil {
				charger.ReleaseAll()
				return err
			}
			rt.ReleaseRows(id, len(rows), k)
			cur[id] = next
			return nil
		})
		if err != nil {
			return nil, err
		}
		// Each remaining matched neighbour filters by intersection: the
		// bindings travel to its owner, which probes its own adjacency
		// list through the shared sorted-search kernel (the filter
		// machine owns row[at], so membership is tested against that
		// list specifically — the distributed semantics, not HasEdge's
		// shorter-list shortcut).
		for _, at := range lv.Checks[k] {
			if err := filter(k+1, at, func(row common.Row) bool {
				return graph.ContainsSorted(g.Adj(row[at]), row[k])
			}); err != nil {
				return nil, err
			}
		}
		// Degree filter at the new vertex's owner.
		if err := filter(k+1, k, func(row common.Row) bool {
			return g.Degree(row[k]) >= p.Degree(u)
		}); err != nil {
			return nil, err
		}
	}
	return rt.Finish(cur, n, n), nil
}
