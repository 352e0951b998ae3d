package graph

// BFS runs a breadth-first search from src and returns the hop distance
// to every vertex; unreachable vertices get -1.
func BFS(g *Graph, src VertexID) []int32 {
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

// ApproxDiameter estimates the graph diameter with k rounds of the
// double-sweep heuristic: BFS from a start vertex, then BFS again from
// the farthest vertex found, repeating from the new farthest vertex.
// Exact diameters of the paper's datasets (Table 1) are reported with
// the same style of estimate; exact all-pairs BFS is infeasible there
// and unnecessary here.
func (g *Graph) ApproxDiameter(k int) int {
	if g.NumVertices() == 0 {
		return 0
	}
	// Start from the max-degree vertex: most likely to be central.
	start := VertexID(0)
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(VertexID(v)) > g.Degree(start) {
			start = VertexID(v)
		}
	}
	best := 0
	cur := start
	for i := 0; i < k; i++ {
		dist := BFS(g, cur)
		far, fd := cur, int32(0)
		for v, d := range dist {
			if d > fd {
				far, fd = VertexID(v), d
			}
		}
		if int(fd) <= best {
			break
		}
		best = int(fd)
		cur = far
	}
	return best
}

// ConnectedComponents returns a component label for every vertex and
// the number of components.
func (g *Graph) ConnectedComponents() ([]int32, int) {
	comp := make([]int32, g.NumVertices())
	for i := range comp {
		comp[i] = -1
	}
	next := int32(0)
	queue := make([]VertexID, 0, 64)
	for s := range comp {
		if comp[s] >= 0 {
			continue
		}
		comp[s] = next
		queue = append(queue[:0], VertexID(s))
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range g.Adj(u) {
				if comp[v] < 0 {
					comp[v] = next
					queue = append(queue, v)
				}
			}
		}
		next++
	}
	return comp, int(next)
}
