package main

import (
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"rads/internal/census"
	"rads/internal/graph"
)

// censusK is the subgraph size of census_k4.
const censusK = 4

func runCensus(r *run) error {
	fx, err := timeSetups(r, func(parent int, dir string) (*csrFixture, error) {
		return buildCSRFixture(r, parent, dir, false)
	}, func(*csrFixture) {})
	if err != nil {
		return err
	}
	fx.describe(r)

	// Oracles: ESU against brute force on a seeded induced sub-fixture
	// small enough for the exponential check, and the Workers=1 twin on
	// the whole graph, which every timed pass must then agree with.
	sub := inducedSample(fx.csr, r.cfg.bruteN, r.opt.seed)
	r.attempted.Add(1)
	res, err := census.Run(r.ctx, sub, census.Config{K: censusK, Workers: workers})
	if err != nil {
		return err
	}
	if brute := census.BruteForce(sub, censusK); !reflect.DeepEqual(res.Histogram, brute) {
		r.failf("census on the %d-vertex sub-fixture: ESU %v, brute force %v", sub.NumVertices(), res.Histogram, brute)
	}
	r.attempted.Add(1)
	twin, err := census.Run(r.ctx, fx.csr, census.Config{K: censusK, Workers: 1})
	if err != nil {
		return err
	}
	r.fixture["subgraphs"] = twin.Subgraphs

	pass := func(parent int) float64 {
		r.attempted.Add(1)
		var res *census.Result
		var err error
		t0 := time.Now()
		r.rec.do(parent, 0, "census.Run", func(int) {
			res, err = census.Run(r.ctx, fx.csr, census.Config{K: censusK, Workers: workers})
		})
		secs := time.Since(t0).Seconds()
		switch {
		case err != nil:
			r.failf("census: %v", err)
		case !reflect.DeepEqual(res.Histogram, twin.Histogram):
			r.failf("census: %d subgraphs at %d workers, %d at one", res.Subgraphs, workers, twin.Subgraphs)
		}
		return secs
	}
	// VmHWM restarts here, so that peak_mem_mb and census.rss_mb are the
	// runtime, the opened store and what census.Run holds — not the
	// set-up repetitions, the brute-force oracle and the twin above, under
	// whose peak a memory regression in census.Run would disappear.
	scope := "whole process"
	if resetPeakRSS() {
		scope = "census passes"
	}
	r.fixture["peak_mem_scope"] = scope
	pass(0) // warm

	if !r.opt.trace {
		attempted, failed := r.attempted.Load(), r.failed.Load()
		secs, elapsed := passesFor(r, r.opt.seconds, func() float64 { return pass(0) })
		reportLatency(r, secs, attempted, failed, elapsed)
		r.put("peak_mem_mb", peakRSSMiB(0))
		return nil
	}

	plain, _ := passesFor(r, r.opt.seconds/3, func() float64 { return pass(0) })
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	id := r.rec.start(0, 0, "benchmark.tracedPasses")
	traced, _ := passesFor(r, r.opt.seconds/3, func() float64 { return pass(id) })
	r.rec.end(id)
	runtime.ReadMemStats(&ms1)
	one, _ := passesFor(r, r.opt.seconds/3, func() float64 {
		r.attempted.Add(1)
		t0 := time.Now()
		res, err := census.Run(r.ctx, fx.csr, census.Config{K: censusK, Workers: 1})
		if err != nil || !reflect.DeepEqual(res.Histogram, twin.Histogram) {
			r.failf("census at one worker: %v", err)
		}
		return time.Since(t0).Seconds()
	})
	r.put("obs.trace_overhead_ratio", median(traced)/median(plain))
	r.put("census.subgraphs_per_s", float64(twin.Subgraphs)/median(traced))
	r.putQ("census.w1_pass_s", one, 0.5)
	r.put("census.speedup_w2", median(one)/median(traced))
	r.put("census.alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20)/float64(len(traced)))
	r.put("census.rss_mb", peakRSSMiB(0))
	return nil
}

// inducedSample is the subgraph of g induced by n seeded-random
// vertices grown from a random start by breadth-first search, so that
// it is connected enough to hold every 4-vertex class.
func inducedSample(g graph.Store, n int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	if n > g.NumVertices() {
		n = g.NumVertices()
	}
	local := make(map[graph.VertexID]graph.VertexID, n)
	queue := []graph.VertexID{graph.VertexID(rng.Intn(g.NumVertices()))}
	local[queue[0]] = 0
	for len(queue) > 0 && len(local) < n {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.Adj(v) {
			if _, seen := local[w]; !seen && len(local) < n {
				local[w] = graph.VertexID(len(local))
				queue = append(queue, w)
			}
		}
	}
	b := graph.NewBuilder(len(local))
	for v, lv := range local {
		for _, w := range g.Adj(v) {
			if lw, ok := local[w]; ok && lv < lw {
				b.AddEdge(lv, lw)
			}
		}
	}
	return b.Build()
}
