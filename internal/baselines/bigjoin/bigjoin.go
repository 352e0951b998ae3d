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
	"time"

	"rads/internal/baselines/common"
	"rads/internal/graph"
	"rads/internal/localenum"
	"rads/internal/partition"
	"rads/internal/pattern"
)

// Run enumerates p with the BigJoin strategy.
func Run(part *partition.Partition, p *pattern.Pattern, cfg common.Config) (*common.Result, error) {
	start := time.Now()
	rt := common.NewRuntime(part.M, cfg)
	defer rt.Close()
	g := part.G
	n := p.N()
	order := localenum.GreedyOrder(p)
	pos := make([]int, n)
	for i, u := range order {
		pos[u] = i
	}
	// For each level k: proposer position and filter positions.
	proposer := make([]int, n)
	filters := make([][]int, n)
	for k := 1; k < n; k++ {
		u := order[k]
		proposer[k] = -1
		for _, w := range p.Adj(u) {
			if pos[w] < k {
				if proposer[k] < 0 || pos[w] < proposer[k] {
					proposer[k] = pos[w]
				}
			}
		}
		for _, w := range p.Adj(u) {
			if pos[w] < k && pos[w] != proposer[k] {
				filters[k] = append(filters[k], pos[w])
			}
		}
	}
	check := common.NewConstraintChecker(p)
	res := &common.Result{Rounds: n}
	cur := make([][]common.Row, part.M)
	interRows := make([]int64, part.M)
	f := make([][]graph.VertexID, part.M)
	for i := range f {
		f[i] = make([]graph.VertexID, n)
	}

	// Level 0.
	u0 := order[0]
	err := rt.Superstep(func(id int) error {
		for _, v := range part.Vertices(id) {
			if g.Degree(v) >= p.Degree(u0) {
				cur[id] = append(cur[id], common.Row{v})
			}
		}
		return rt.ChargeRows(id, len(cur[id]), 1)
	})
	if err != nil {
		return nil, err
	}

	hop := 0
	// route shuffles every current row to the owner of row[at] and
	// replaces cur with the drained inboxes.
	route := func(width int, at int) error {
		hop++
		err := rt.Superstep(func(id int) error {
			batches := make(map[int][]common.Row)
			for _, row := range cur[id] {
				to := int(part.Owner[row[at]])
				batches[to] = append(batches[to], row)
			}
			rt.ReleaseRows(id, len(cur[id]), width)
			cur[id] = nil
			return rt.Shuffle(id, hop, batches)
		})
		if err != nil {
			return err
		}
		return rt.Superstep(func(id int) error {
			cur[id] = rt.Inbox(id).Drain()
			interRows[id] += int64(len(cur[id]))
			return rt.ChargeRows(id, len(cur[id]), width)
		})
	}

	for k := 1; k < n; k++ {
		u := order[k]
		// Hop to the proposer's owner and extend.
		if err := route(k, proposer[k]); err != nil {
			return nil, err
		}
		err := rt.Superstep(func(id int) error {
			fv := f[id]
			charger := rt.NewCharger(id, k+1)
			var out []common.Row
			for _, row := range cur[id] {
				va := row[proposer[k]]
				for i := range fv {
					fv[i] = -1
				}
				for i, v := range row {
					fv[order[i]] = v
				}
				for _, v := range g.Adj(va) {
					if rowContains(row, v) {
						continue
					}
					fv[u] = v
					if !check.Check(fv) {
						continue
					}
					next := make(common.Row, k+1)
					copy(next, row)
					next[k] = v
					if err := charger.Add(1); err != nil {
						charger.ReleaseAll()
						return err
					}
					out = append(out, next)
				}
				fv[u] = -1
			}
			if err := charger.Flush(); err != nil {
				charger.ReleaseAll()
				return err
			}
			rt.ReleaseRows(id, len(cur[id]), k)
			cur[id] = out
			return nil
		})
		if err != nil {
			return nil, err
		}
		// Each remaining matched neighbour filters by intersection: the
		// bindings travel to its owner, which probes its own adjacency
		// list through the shared sorted-search kernel (the filter
		// machine owns row[fp], so membership is tested against that
		// list specifically — the distributed semantics, not HasEdge's
		// shorter-list shortcut).
		for _, fp := range filters[k] {
			if err := route(k+1, fp); err != nil {
				return nil, err
			}
			err := rt.Superstep(func(id int) error {
				kept := cur[id][:0]
				for _, row := range cur[id] {
					if graph.ContainsSorted(g.Adj(row[fp]), row[k]) {
						kept = append(kept, row)
					}
				}
				rt.ReleaseRows(id, len(cur[id])-len(kept), k+1)
				cur[id] = kept
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
		// Degree filter at the new vertex's owner.
		if err := route(k+1, k); err != nil {
			return nil, err
		}
		err = rt.Superstep(func(id int) error {
			kept := cur[id][:0]
			for _, row := range cur[id] {
				if g.Degree(row[k]) >= p.Degree(u) {
					kept = append(kept, row)
				}
			}
			rt.ReleaseRows(id, len(cur[id])-len(kept), k+1)
			cur[id] = kept
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	for id := 0; id < part.M; id++ {
		res.Total += int64(len(cur[id]))
		res.IntermediateRows += interRows[id]
		rt.ReleaseRows(id, len(cur[id]), n)
	}
	res.ElapsedSeconds = time.Since(start).Seconds()
	res.CommBytes = rt.Metrics.TotalBytes()
	res.CommMessages = rt.Metrics.TotalMessages()
	if cfg.Budget != nil {
		res.PeakMemBytes = cfg.Budget.MaxPeak()
	}
	return res, nil
}

func rowContains(row common.Row, v graph.VertexID) bool {
	for _, x := range row {
		if x == v {
			return true
		}
	}
	return false
}
