package graph

// Store is the read-only graph access surface every enumeration
// component consumes: partitioning, the local enumerator, the adaptive
// intersection kernels' callers and all registered engines are written
// against it, never against a concrete representation.
//
// Two implementations exist: *Graph (sorted adjacency lists, the seed
// in-memory store built by generators and the text readers) and
// dataset.CSR (the compact on-disk-loadable CSR store for real
// graphs). Both keep adjacency sorted ascending — every kernel in this
// repository depends on that invariant — and both return Adj slices
// owned by the store, which callers must not modify.
type Store interface {
	// NumVertices returns the number of vertices; IDs are dense in
	// [0, NumVertices).
	NumVertices() int
	// NumEdges returns the number of undirected edges.
	NumEdges() int64
	// Degree returns the degree of v.
	Degree(v VertexID) int
	// Adj returns the sorted adjacency list of v, owned by the store.
	Adj(v VertexID) []VertexID
	// HasEdge reports whether the undirected edge (u,v) exists.
	HasEdge(u, v VertexID) bool
	// AvgDegree returns 2m/n (0 for the empty graph).
	AvgDegree() float64
	// MaxDegree returns the maximum vertex degree.
	MaxDegree() int
	// Edges calls fn once per undirected edge with u < v, stopping
	// early if fn returns false.
	Edges(fn func(u, v VertexID) bool)
}

// *Graph is the reference Store implementation.
var _ Store = (*Graph)(nil)

// BFS runs a breadth-first search over any Store from src and returns
// the hop distance to every vertex; unreachable vertices get -1. The
// free-function twin of (*Graph).BFSFrom, for representation-agnostic
// callers (the KWay partitioner seeds and grows regions through it).
func BFS(g Store, src VertexID) []int32 {
	dist := make([]int32, g.NumVertices())
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]VertexID, 0, 64)
	dist[src] = 0
	queue = append(queue, src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Adj(u) {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// CountTrianglesOf counts triangles in any Store with the standard
// forward algorithm (each triangle counted once, at its lowest-ranked
// corner under a degree-then-ID order), O(m^1.5). It is the one
// triangle counter of the repository — (*Graph).CountTriangles
// delegates here — and the oracle the dataset smoke check compares
// engine counts against.
func CountTrianglesOf(g Store) int64 {
	n := g.NumVertices()
	// Rank vertices by (degree, id): forward edges point from lower to
	// higher rank, so each triangle is counted exactly once.
	rank := func(v VertexID) uint64 {
		return uint64(g.Degree(v))<<32 | uint64(uint32(v))
	}
	fwd := make([][]VertexID, n)
	for u := 0; u < n; u++ {
		uu := VertexID(u)
		ru := rank(uu)
		for _, v := range g.Adj(uu) {
			if rank(v) > ru {
				fwd[u] = append(fwd[u], v)
			}
		}
	}
	var total int64
	var buf []VertexID
	for u := range fwd {
		for _, v := range fwd[u] {
			buf = IntersectSortedU32(buf, fwd[u], fwd[v])
			total += int64(len(buf))
		}
	}
	return total
}
