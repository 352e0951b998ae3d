// Package psgl reimplements PSgL [Shao et al., SIGMOD 2014], the
// Pregel-based parallel subgraph listing baseline of the paper's
// evaluation. PSgL maps query vertices one at a time following a
// breadth-first traversal and expands partial matches by routing them
// between the machines that own the involved data vertices.
//
// The implementation preserves the system's cost profile exactly as
// the paper characterizes it (Section 8): every expansion step
// shuffles the full set of partial matches across the cluster, partial
// matches are stored uncompressed, and there is no memory control.
package psgl

import (
	"rads/internal/baselines/common"
	"rads/internal/partition"
	"rads/internal/pattern"
)

// Run enumerates p over the partitioned graph with the PSgL strategy
// and returns the uniform baseline result. Each level is three
// supersteps: rows travel to the owner of their anchor vertex, which
// expands them; every candidate travels to its own owner, which checks
// its degree and its edges to all other matched neighbours in one hop.
func Run(part *partition.Partition, p *pattern.Pattern, cfg common.Config) (*common.Result, error) {
	rt := common.NewRuntime(part.M, cfg)
	defer rt.Close()
	g, n := part.G, p.N()
	lv := common.NewLevels(p)

	// cur[id]: verified partial matches of width k held at machine id
	// (each row lives at the owner of its most recent vertex).
	cur, err := lv.Seed(rt, part)
	if err != nil {
		return nil, err
	}
	for k := 1; k < n; k++ {
		u := lv.Order[k]
		err := rt.Superstep(func(id int) error {
			rt.ReleaseRows(id, len(cur[id]), k)
			return rt.Send(id, cur[id], common.ByOwner(part, lv.Anchor[k]))
		})
		if err != nil {
			return nil, err
		}
		err = rt.Superstep(func(id int) error {
			rows, err := rt.Receive(id, k)
			if err != nil {
				return err
			}
			defer rt.ReleaseRows(id, len(rows), k)
			charger := rt.NewCharger(id, k+1)
			defer charger.ReleaseAll()
			next, err := lv.Expand(g, rows, k, charger)
			if err != nil {
				return err
			}
			return rt.Send(id, next, common.ByOwner(part, k))
		})
		if err != nil {
			return nil, err
		}
		err = rt.Superstep(func(id int) error {
			rows, err := rt.Receive(id, k+1)
			if err != nil {
				return err
			}
			defer rt.ReleaseRows(id, len(rows), k+1)
			kept := rows[:0]
		verify:
			for _, row := range rows {
				if g.Degree(row[k]) < p.Degree(u) {
					continue
				}
				for _, at := range lv.Checks[k] {
					if !g.HasEdge(row[k], row[at]) {
						continue verify
					}
				}
				kept = append(kept, row)
			}
			cur[id] = kept
			return rt.ChargeRows(id, len(kept), k+1)
		})
		if err != nil {
			return nil, err
		}
	}
	return rt.Finish(cur, n, n), nil
}
