package graph

// Marks is a bitmap over data-vertex IDs: one bit per vertex, |V|/8
// bytes. The enumerators keep two kinds of them. One holds the vertices
// of the partial embedding, set and cleared one at a time. The other
// holds a whole adjacency list that stays fixed while the levels below
// it run — a "mark source" — so that each of those levels tests
// membership in it with one load (ProbeMarkedU32) instead of re-merging
// the list. Marking and unmarking a list cost one store per element, so
// a mark pays when the list is probed at least twice before it is
// unmarked.
//
// A Marks is plain memory: whoever marks a list unmarks the same list,
// and a Marks whose lists have all been unmarked is all zero again.
type Marks []uint64

// NewMarks returns an all-zero bitmap over the vertex IDs [0, n).
func NewMarks(n int) Marks { return make(Marks, (n+63)/64) }

// Set marks one vertex.
func (m Marks) Set(v VertexID) { m[v>>6] |= 1 << (uint(v) & 63) }

// Clear unmarks one vertex.
func (m Marks) Clear(v VertexID) { m[v>>6] &^= 1 << (uint(v) & 63) }

// Has reports whether v is marked.
func (m Marks) Has(v VertexID) bool { return m[v>>6]&(1<<(uint(v)&63)) != 0 }

// Mark marks every vertex of list.
func (m Marks) Mark(list []VertexID) {
	for _, v := range list {
		m[v>>6] |= 1 << (uint(v) & 63)
	}
}

// Unmark unmarks every vertex of list.
func (m Marks) Unmark(list []VertexID) {
	for _, v := range list {
		m[v>>6] &^= 1 << (uint(v) & 63)
	}
}
