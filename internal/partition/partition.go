// Package partition splits a data graph across m machines, mirroring
// Section 2 of the paper ("Graph Partition & Storage"): every vertex is
// owned by exactly one machine; an edge resides in a machine if either
// endpoint does; a vertex is a *border vertex* of its machine if any
// neighbour is owned elsewhere.
//
// The paper partitions with METIS ("multilevel k-way"). METIS is not
// available here, so KWay implements a BFS region-growing partitioner
// with boundary refinement that, like METIS, yields contiguous parts
// with few border vertices — which is the only property RADS depends on
// (border distances drive the SM-E split of Proposition 1). Hash gives
// the opposite, locality-free regime for ablation.
package partition

import (
	"fmt"
	"math/rand"
	"sync"

	"rads/internal/graph"
)

// Partition records the assignment of every vertex of a data graph to
// one of m machines, plus the derived per-machine structures RADS needs.
type Partition struct {
	G     *graph.Graph
	M     int     // number of machines
	Owner []int32 // Owner[v] = machine owning v

	verts  [][]graph.VertexID // vertices per machine
	border [][]graph.VertexID // border vertices per machine (V^b_Gt)

	bdMu sync.Mutex
	bd   []map[graph.VertexID]int32 // memoized BorderDistances per machine
}

// New builds a Partition from an ownership vector. It validates that
// every owner is in [0, m).
func New(g *graph.Graph, m int, owner []int32) (*Partition, error) {
	if len(owner) != g.NumVertices() {
		return nil, fmt.Errorf("partition: owner length %d != vertices %d", len(owner), g.NumVertices())
	}
	p := &Partition{G: g, M: m, Owner: owner}
	p.verts = make([][]graph.VertexID, m)
	for v, o := range owner {
		if o < 0 || int(o) >= m {
			return nil, fmt.Errorf("partition: vertex %d has owner %d outside [0,%d)", v, o, m)
		}
		p.verts[o] = append(p.verts[o], graph.VertexID(v))
	}
	p.border = make([][]graph.VertexID, m)
	for v := 0; v < g.NumVertices(); v++ {
		o := owner[v]
		for _, u := range g.Adj(graph.VertexID(v)) {
			if owner[u] != o {
				p.border[o] = append(p.border[o], graph.VertexID(v))
				break
			}
		}
	}
	return p, nil
}

// Vertices returns the vertices owned by machine t (sorted ascending).
func (p *Partition) Vertices(t int) []graph.VertexID { return p.verts[t] }

// Border returns the border vertices of machine t (Definition: a vertex
// with at least one neighbour owned elsewhere).
func (p *Partition) Border(t int) []graph.VertexID { return p.border[t] }

// IsBorder reports whether v is a border vertex of its owner.
func (p *Partition) IsBorder(v graph.VertexID) bool {
	o := p.Owner[v]
	for _, u := range p.G.Adj(v) {
		if p.Owner[u] != o {
			return true
		}
	}
	return false
}

// BorderDistances computes BD_{Gt}(v) of Definition 1 for every vertex
// of machine t: the minimum hop distance *within the subgraph G_t* from
// v to any border vertex of t. Vertices of other machines get -1; a
// machine with no border vertices gets distance = +inf, represented as
// the sentinel NoBorder.
//
// The result is memoized: border distances depend only on the (fixed)
// ownership vector, and a resident service runs many queries against
// one partition, so each machine's BFS is paid once. Callers share the
// returned map and must treat it as read-only.
func (p *Partition) BorderDistances(t int) map[graph.VertexID]int32 {
	p.bdMu.Lock()
	if p.bd == nil {
		p.bd = make([]map[graph.VertexID]int32, p.M)
	}
	if d := p.bd[t]; d != nil {
		p.bdMu.Unlock()
		return d
	}
	p.bdMu.Unlock()
	d := p.computeBorderDistances(t)
	p.bdMu.Lock()
	p.bd[t] = d
	p.bdMu.Unlock()
	return d
}

// InstallBorderDistances seeds machine t's memoized border-distance
// map without running the BFS — snapshot warm starts restore the
// distances persisted at partition time so a worker (or a restarted
// service) never re-derives them. The caller hands over ownership of
// d, which is treated as read-only from here on.
func (p *Partition) InstallBorderDistances(t int, d map[graph.VertexID]int32) {
	p.bdMu.Lock()
	if p.bd == nil {
		p.bd = make([]map[graph.VertexID]int32, p.M)
	}
	p.bd[t] = d
	p.bdMu.Unlock()
}

func (p *Partition) computeBorderDistances(t int) map[graph.VertexID]int32 {
	// BFS restricted to edges whose both endpoints are owned by t:
	// the paper defines BD over the partition G_t, whose vertex set is
	// the vertices owned by t.
	dist := make(map[graph.VertexID]int32, len(p.verts[t]))
	for _, v := range p.verts[t] {
		dist[v] = NoBorder
	}
	queue := make([]graph.VertexID, 0, len(p.border[t]))
	for _, v := range p.border[t] {
		dist[v] = 0
		queue = append(queue, v)
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		du := dist[u]
		for _, w := range p.G.Adj(u) {
			if p.Owner[w] != int32(t) {
				continue
			}
			if dist[w] == NoBorder {
				dist[w] = du + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// NoBorder is the border distance of a vertex in a machine that has no
// border vertices at all (a whole connected component owned locally) or
// that cannot reach any border vertex within its partition. Such
// vertices always satisfy Proposition 1.
const NoBorder int32 = 1 << 30

// EdgeCut returns the number of edges whose endpoints are owned by
// different machines — the standard partition quality metric.
func (p *Partition) EdgeCut() int64 {
	var cut int64
	p.G.Edges(func(u, v graph.VertexID) bool {
		if p.Owner[u] != p.Owner[v] {
			cut++
		}
		return true
	})
	return cut
}

// Balance returns max part size / ideal part size (1.0 = perfect).
func (p *Partition) Balance() float64 {
	max := 0
	for _, vs := range p.verts {
		if len(vs) > max {
			max = len(vs)
		}
	}
	ideal := float64(p.G.NumVertices()) / float64(p.M)
	if ideal == 0 {
		return 1
	}
	return float64(max) / ideal
}

// Hash assigns vertex v to machine v % m: no locality at all. This is
// the control partitioner for ablations.
func Hash(g *graph.Graph, m int) *Partition {
	owner := make([]int32, g.NumVertices())
	for v := range owner {
		owner[v] = int32(v % m)
	}
	p, err := New(g, m, owner)
	if err != nil {
		panic(err) // unreachable: owners are in range by construction
	}
	return p
}

// KWay partitions g into m contiguous parts by multi-seed BFS region
// growing followed by boundary refinement, a light-weight stand-in for
// METIS multilevel k-way. Deterministic given seed.
func KWay(g *graph.Graph, m int, seed int64) *Partition {
	n := g.NumVertices()
	owner := make([]int32, n)
	for i := range owner {
		owner[i] = -1
	}
	rng := rand.New(rand.NewSource(seed))

	// Pick m seeds spread out: first random, then repeatedly the vertex
	// farthest from all chosen seeds (k-center heuristic).
	seeds := make([]graph.VertexID, 0, m)
	if n > 0 {
		first := graph.VertexID(rng.Intn(n))
		seeds = append(seeds, first)
		dist := graph.BFS(g, first)
		for len(seeds) < m {
			far, fd := graph.VertexID(0), int32(-1)
			for v, d := range dist {
				if d > fd {
					far, fd = graph.VertexID(v), d
				}
			}
			if fd <= 0 {
				// Disconnected or tiny graph: fall back to random seeds.
				far = graph.VertexID(rng.Intn(n))
			}
			seeds = append(seeds, far)
			nd := graph.BFS(g, far)
			for v := range dist {
				if nd[v] >= 0 && (dist[v] < 0 || nd[v] < dist[v]) {
					dist[v] = nd[v]
				}
			}
		}
	}

	// Balanced BFS growth: round-robin over parts, each part grows one
	// frontier vertex per turn, capped at ceil(n/m) vertices.
	cap := (n + m - 1) / m
	size := make([]int, m)
	frontier := make([][]graph.VertexID, m)
	for i, s := range seeds {
		if owner[s] == -1 {
			owner[s] = int32(i)
			size[i]++
			frontier[i] = append(frontier[i], s)
		}
	}
	assigned := 0
	for _, o := range owner {
		if o >= 0 {
			assigned++
		}
	}
	for assigned < n {
		progressed := false
		for t := 0; t < m; t++ {
			if size[t] >= cap {
				continue
			}
			// Pop frontier vertices until one yields an unassigned neighbour.
			for len(frontier[t]) > 0 {
				u := frontier[t][0]
				grew := false
				for _, w := range g.Adj(u) {
					if owner[w] == -1 {
						owner[w] = int32(t)
						size[t]++
						frontier[t] = append(frontier[t], w)
						assigned++
						progressed = true
						grew = true
						break
					}
				}
				if grew {
					break
				}
				frontier[t] = frontier[t][1:]
			}
		}
		if !progressed {
			// Leftovers (other components / capped parts): assign each
			// remaining vertex to the least-loaded part.
			for v := range owner {
				if owner[v] == -1 {
					t := argmin(size)
					owner[v] = int32(t)
					size[t]++
					assigned++
				}
			}
		}
	}

	refine(g, owner, m, 2)
	p, err := New(g, m, owner)
	if err != nil {
		panic(err) // unreachable
	}
	return p
}

// refine runs `passes` sweeps of greedy boundary refinement: move a
// vertex to the neighbouring part holding most of its neighbours when
// that reduces the edge cut without unbalancing parts beyond 15%.
func refine(g *graph.Graph, owner []int32, m, passes int) {
	n := g.NumVertices()
	size := make([]int, m)
	for _, o := range owner {
		size[o]++
	}
	maxSize := int(float64(n)/float64(m)*1.15) + 1
	gainCount := make(map[int32]int, 8)
	for pass := 0; pass < passes; pass++ {
		moved := 0
		for v := 0; v < n; v++ {
			o := owner[v]
			clear(gainCount)
			for _, u := range g.Adj(graph.VertexID(v)) {
				gainCount[owner[u]]++
			}
			best, bestCnt := o, gainCount[o]
			for t, c := range gainCount {
				if c > bestCnt || (c == bestCnt && t < best) {
					best, bestCnt = t, c
				}
			}
			if best != o && size[best] < maxSize && size[o] > 1 {
				owner[v] = best
				size[o]--
				size[best]++
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
}

func argmin(xs []int) int {
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}
