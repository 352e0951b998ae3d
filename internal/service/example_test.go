package service_test

import (
	"context"
	"fmt"

	"rads/internal/gen"
	"rads/internal/localenum"
	"rads/internal/pattern"
	"rads/internal/service"
)

// The service in one pass: open it once over a data graph, submit
// queries to RADS and to a baseline engine, and let the result cache
// answer a relabeled motif without running an engine.
func ExampleService() {
	// A data graph of 10 communities of 30 vertices each, partitioned
	// once across 4 machines and kept resident for every query.
	g := gen.Community(10, 30, 0.2, 42)
	svc, err := service.Open(g, service.Config{Machines: 4})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer svc.Close()

	ctx := context.Background()
	submit := func(q service.Query) (service.Result, error) {
		h, err := svc.Submit(ctx, q)
		if err != nil {
			return service.Result{}, err
		}
		return h.Result(ctx)
	}

	// Triangles with RADS, the default engine.
	tri := pattern.Triangle()
	res, err := submit(service.Query{Pattern: tri})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("RADS: %d triangles\n", res.Total)

	// The same motif on SEED; NoCache bypasses the result cache so the
	// engine really runs.
	seed, err := submit(service.Query{Pattern: tri, Engine: "SEED", NoCache: true})
	if err != nil {
		fmt.Println(err)
		return
	}
	if seed.Total == res.Total {
		fmt.Println("SEED agrees")
	} else {
		fmt.Printf("SEED disagrees: %d\n", seed.Total)
	}

	// The cache keys on the canonical form: a path of three, then the
	// same motif with a different centre vertex, answered from cache.
	for _, p := range []*pattern.Pattern{
		pattern.New("vee", 3, 0, 1, 1, 2),
		pattern.New("vee-relabeled", 3, 1, 0, 0, 2),
	} {
		r, err := submit(service.Query{Pattern: p})
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("%s: %d embeddings, cache hit: %v\n", p.Name, r.Total, r.CacheHit)
	}

	// The single-machine enumerator is the oracle every engine answers to.
	fmt.Println("oracle agrees:", localenum.Count(g, tri, localenum.Options{}) == res.Total)

	st := svc.Stats()
	fmt.Printf("%d submitted, %d engine runs, %d cache hits\n", st.Submitted, st.EngineRuns, st.CacheHits)
	// Output:
	// RADS: 392 triangles
	// SEED agrees
	// vee: 6137 embeddings, cache hit: false
	// vee-relabeled: 6137 embeddings, cache hit: true
	// oracle agrees: true
	// 4 submitted, 3 engine runs, 1 cache hits
}
