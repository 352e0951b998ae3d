// Package partition splits a data graph across m machines, mirroring
// Section 2 of the paper ("Graph Partition & Storage"): every vertex is
// owned by exactly one machine; an edge resides in a machine if either
// endpoint does; a vertex is a *border vertex* of its machine if any
// neighbour is owned elsewhere. New derives each vertex's border
// distance (Definition 1) from the graph and the ownership vector alone,
// in one O(|V|+|E|) pass, into the dense array BD: a machine that holds
// its owned rows and the owner vector can compute its own.
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

	"rads/internal/graph"
)

// Partition records the assignment of every vertex of a data graph to
// one of m machines, plus the derived per-machine structures RADS needs.
type Partition struct {
	G     *graph.Graph
	M     int     // number of machines
	Owner []int32 // Owner[v] = machine owning v

	// BD[v] is BD_{G_t}(v) of Definition 1 for t = Owner[v]: the
	// minimum hop distance within G_t, the subgraph induced by t's
	// vertices, from v to a border vertex of t (one with a neighbour
	// owned elsewhere). A vertex that reaches no border vertex inside
	// its part gets NoBorder. It is computed once by New and read-only
	// from then on.
	BD []int32

	verts [][]graph.VertexID // vertices per machine
}

// New builds a Partition from an ownership vector. It validates that
// every owner is in [0, m) and computes the border distances.
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
	p.BD = borderDistances(g, owner)
	return p, nil
}

// borderDistances runs one breadth-first search seeded with every
// border vertex at distance 0. An edge between two parts joins two
// border vertices, so the search never steps into another part, and
// each vertex gets the distance a search over its own part alone would
// give it.
func borderDistances(g *graph.Graph, owner []int32) []int32 {
	n := g.NumVertices()
	bd := make([]int32, n)
	queue := make([]graph.VertexID, 0, n)
	for v := range bd {
		bd[v] = NoBorder
		o := owner[v]
		for _, u := range g.Adj(graph.VertexID(v)) {
			if owner[u] != o {
				bd[v] = 0
				queue = append(queue, graph.VertexID(v))
				break
			}
		}
	}
	for i := 0; i < len(queue); i++ {
		u := queue[i]
		for _, w := range g.Adj(u) {
			if bd[w] == NoBorder {
				bd[w] = bd[u] + 1
				queue = append(queue, w)
			}
		}
	}
	return bd
}

// Vertices returns the vertices owned by machine t (sorted ascending).
func (p *Partition) Vertices(t int) []graph.VertexID { return p.verts[t] }

// BorderDistances does nothing: New computes every border distance
// into BD. Kept because the benchmark module calls it.
func (*Partition) BorderDistances(int) {}

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
