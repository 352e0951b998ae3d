package graph

// Store names the one graph store. Product code says *Graph; the alias
// remains only because the frozen benchmark module compiles against
// the name, and goes when that module is next changed.
type Store = *Graph
