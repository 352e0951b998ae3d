package main

import (
	"math/rand"
	"time"

	"rads/internal/graph"
)

var kernelSink int // keeps the micro loops' results alive

// kernelMicros times the pairwise and the k-way intersection kernel
// over a seeded sample of wedge triples (u-v-w paths) of the store:
// adj(u) ∩ adj(v) for the pairwise call, adj(u) ∩ adj(v) ∩ adj(w) for
// the k-way one — the row shapes enumeration feeds them. flavour "u32"
// calls the kernels graph.KernelsFor picks for a flat CSR store,
// "generic" the ones a map-backed graph gets.
func kernelMicros(r *run, g graph.Store, flavour string) {
	// Counting is process-wide and service.Open (the serve_http replay)
	// leaves it on: an atomic add per call, +47 % on the pairwise loop.
	// Both flavours are timed with it off.
	graph.SetKernelCounting(false)
	rng := rand.New(rand.NewSource(r.opt.seed))
	type triple struct{ a, b, c []graph.VertexID }
	sample := make([]triple, 0, r.cfg.microPairs)
	for len(sample) < r.cfg.microPairs {
		v := graph.VertexID(rng.Intn(g.NumVertices()))
		adj := g.Adj(v)
		if len(adj) < 2 {
			continue
		}
		u, w := adj[rng.Intn(len(adj))], adj[rng.Intn(len(adj))]
		sample = append(sample, triple{g.Adj(u), adj, g.Adj(w)})
	}
	pair, many := graph.IntersectSortedU32, graph.IntersectManyU32
	if flavour == "generic" {
		pair, many = graph.IntersectSorted[graph.VertexID], graph.IntersectMany[graph.VertexID]
	}
	dst := make([]graph.VertexID, 0, g.MaxDegree())
	loop := func(name string, call func(t triple) int) {
		var ns []float64
		id := r.rec.start(0, 0, "graph."+name)
		for rep := 0; rep < 9; rep++ {
			t0 := time.Now()
			for _, t := range sample {
				kernelSink += call(t)
			}
			ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(len(sample)))
		}
		r.rec.end(id)
		r.putQ("graph."+name+"_"+flavour+"_ns", ns, 0.5)
	}
	loop("intersect", func(t triple) int { return len(pair(dst[:0], t.a, t.b)) })
	loop("kway", func(t triple) int { return len(many(dst[:0], t.a, t.b, t.c)) })
}
