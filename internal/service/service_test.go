package service_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rads/internal/engine"
	"rads/internal/engine/enginetest"
	"rads/internal/gen"
	"rads/internal/graph"
	"rads/internal/localenum"
	"rads/internal/pattern"
	"rads/internal/service"
)

func testGraph() *graph.Graph { return gen.Community(8, 25, 0.2, 42) }

func openService(t *testing.T, cfg service.Config) *service.Service {
	t.Helper()
	svc, err := service.Open(testGraph(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc
}

// blockingEngine is a test engine that parks until released, tracking
// how many invocations run concurrently.
type blockingEngine struct {
	running, maxRunning, calls atomic.Int64
	started                    chan struct{}
	release                    chan struct{}
}

func newBlockingEngine(n int) *blockingEngine {
	return &blockingEngine{started: make(chan struct{}, n), release: make(chan struct{})}
}

// engine wraps the fake for Service.Register under the name "block".
func (b *blockingEngine) engine() engine.Engine {
	return enginetest.Func{EngineName: "block", RunFunc: b.run}
}

func (b *blockingEngine) run(ctx context.Context, req engine.Request) (engine.Result, error) {
	b.calls.Add(1)
	cur := b.running.Add(1)
	defer b.running.Add(-1)
	for {
		m := b.maxRunning.Load()
		if cur <= m || b.maxRunning.CompareAndSwap(m, cur) {
			break
		}
	}
	b.started <- struct{}{}
	select {
	case <-b.release:
		return engine.Result{Total: 1}, nil
	case <-ctx.Done():
		return engine.Result{}, ctx.Err()
	}
}

func TestCountsMatchOracleAcrossEngines(t *testing.T) {
	g := testGraph()
	svc, err := service.Open(g, service.Config{Machines: 4, MaxConcurrent: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	patterns := []*pattern.Pattern{pattern.Triangle(), pattern.Path(3), pattern.Cycle(4)}
	engines := []string{"RADS", "PSgL", "SEED"}
	for _, p := range patterns {
		want := localenum.Count(g, p, localenum.Options{})
		for _, eng := range engines {
			h, err := svc.Submit(context.Background(), service.Query{Pattern: p, Engine: eng, NoCache: true})
			if err != nil {
				t.Fatalf("%s/%s: %v", eng, p.Name, err)
			}
			res, err := h.Result(context.Background())
			if err != nil {
				t.Fatalf("%s/%s: %v", eng, p.Name, err)
			}
			if res.Total != want {
				t.Errorf("%s/%s: got %d embeddings, oracle says %d", eng, p.Name, res.Total, want)
			}
		}
	}
}

// TestAdmissionCap floods one Service with more queries than the
// concurrency cap and asserts (under -race) that the cap holds, queued
// queries eventually complete, and nothing is lost.
func TestAdmissionCap(t *testing.T) {
	const cap, n = 2, 9
	svc := openService(t, service.Config{MaxConcurrent: cap, MaxQueued: n})
	eng := newBlockingEngine(n)
	if err := svc.Register(eng.engine()); err != nil {
		t.Fatal(err)
	}

	handles := make([]*service.Handle, n)
	for i := range handles {
		h, err := svc.Submit(context.Background(), service.Query{
			Pattern: pattern.Triangle(), Engine: "block", NoCache: true,
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		handles[i] = h
	}

	// Exactly cap queries must reach the engine; the rest stay queued.
	for i := 0; i < cap; i++ {
		select {
		case <-eng.started:
		case <-time.After(5 * time.Second):
			t.Fatalf("query %d never started", i)
		}
	}
	if got := svc.Stats().Queued; got != n-cap {
		t.Fatalf("queued = %d, want %d", got, n-cap)
	}

	// Release everyone; the queue must drain completely.
	close(eng.release)
	var wg sync.WaitGroup
	for i, h := range handles {
		wg.Add(1)
		go func(i int, h *service.Handle) {
			defer wg.Done()
			if _, err := h.Result(context.Background()); err != nil {
				t.Errorf("query %d: %v", i, err)
			}
		}(i, h)
	}
	wg.Wait()
	if got := eng.maxRunning.Load(); got > cap {
		t.Errorf("observed %d concurrent engine runs, cap is %d", got, cap)
	}
	if got := eng.calls.Load(); got != n {
		t.Errorf("engine ran %d times, want %d", got, n)
	}
}

// TestQueuedQueryCancellation cancels a query that is still waiting
// for admission and asserts it aborts cleanly without running.
func TestQueuedQueryCancellation(t *testing.T) {
	svc := openService(t, service.Config{MaxConcurrent: 1})
	eng := newBlockingEngine(4)
	if err := svc.Register(eng.engine()); err != nil {
		t.Fatal(err)
	}

	blocker, err := svc.Submit(context.Background(), service.Query{
		Pattern: pattern.Triangle(), Engine: "block", NoCache: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	<-eng.started // the slot is now held

	ctx, cancel := context.WithCancel(context.Background())
	queued, err := svc.Submit(ctx, service.Query{
		Pattern: pattern.Triangle(), Engine: "block", NoCache: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := queued.Result(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled queued query returned %v, want context.Canceled", err)
	}
	if got := eng.calls.Load(); got != 1 {
		t.Fatalf("engine ran %d times; the cancelled query must never run", got)
	}

	close(eng.release)
	if _, err := blocker.Result(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestOverloadRejection fills the queue past MaxQueued and asserts
// Submit fails fast with ErrOverloaded instead of queueing unboundedly.
func TestOverloadRejection(t *testing.T) {
	svc := openService(t, service.Config{MaxConcurrent: 1, MaxQueued: 1})
	eng := newBlockingEngine(4)
	if err := svc.Register(eng.engine()); err != nil {
		t.Fatal(err)
	}
	submit := func() (*service.Handle, error) {
		return svc.Submit(context.Background(), service.Query{
			Pattern: pattern.Triangle(), Engine: "block", NoCache: true,
		})
	}
	h1, err := submit()
	if err != nil {
		t.Fatal(err)
	}
	<-eng.started
	h2, err := submit()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := submit(); !errors.Is(err, service.ErrOverloaded) {
		t.Fatalf("third submit returned %v, want ErrOverloaded", err)
	}
	close(eng.release)
	for _, h := range []*service.Handle{h1, h2} {
		if _, err := h.Result(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestResultCache asserts that a second submission of an isomorphic
// pattern is served from cache without engine work, and that a
// different pattern misses.
func TestResultCache(t *testing.T) {
	g := testGraph()
	svc, err := service.Open(g, service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// path3 centered at vertex 1 vs an isomorphic relabeling centered
	// at vertex 0 — different labeled forms, same canonical form.
	p1 := pattern.New("vee", 3, 0, 1, 1, 2)
	p2 := pattern.New("vee-relabeled", 3, 1, 0, 0, 2)
	if pattern.Format(p1) == pattern.Format(p2) {
		t.Fatal("test patterns must differ as labeled graphs")
	}
	if !p1.IsIsomorphicTo(p2) {
		t.Fatal("test patterns must be isomorphic")
	}

	h1, err := svc.Submit(context.Background(), service.Query{Pattern: p1})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := h1.Result(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r1.CacheHit {
		t.Fatal("first submission must not be a cache hit")
	}
	runsAfterFirst := svc.Stats().EngineRuns

	h2, err := svc.Submit(context.Background(), service.Query{Pattern: p2})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := h2.Result(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !r2.CacheHit {
		t.Fatal("isomorphic resubmission must hit the cache")
	}
	if r2.Total != r1.Total {
		t.Fatalf("cached count %d != original %d", r2.Total, r1.Total)
	}
	if got := svc.Stats().EngineRuns; got != runsAfterFirst {
		t.Fatalf("cache hit ran the engine (%d runs, want %d)", got, runsAfterFirst)
	}

	// A genuinely different pattern misses and runs the engine.
	h3, err := svc.Submit(context.Background(), service.Query{Pattern: pattern.Triangle()})
	if err != nil {
		t.Fatal(err)
	}
	r3, err := h3.Result(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r3.CacheHit {
		t.Fatal("different pattern must miss the cache")
	}
	if got := svc.Stats().EngineRuns; got != runsAfterFirst+1 {
		t.Fatalf("cache miss must run the engine (%d runs, want %d)", got, runsAfterFirst+1)
	}
	if want := localenum.Count(g, pattern.Triangle(), localenum.Options{}); r3.Total != want {
		t.Fatalf("triangle count %d, oracle says %d", r3.Total, want)
	}
}

// TestStreamedEmbeddings runs a streaming query and validates every
// delivered embedding is a genuine triangle.
func TestStreamedEmbeddings(t *testing.T) {
	g := testGraph()
	svc, err := service.Open(g, service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	h, err := svc.Submit(context.Background(), service.Query{Pattern: pattern.Triangle(), Stream: true})
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for f := range h.Embeddings() {
		if len(f) != 3 {
			t.Fatalf("embedding has %d vertices, want 3", len(f))
		}
		if !g.HasEdge(f[0], f[1]) || !g.HasEdge(f[1], f[2]) || !g.HasEdge(f[0], f[2]) {
			t.Fatalf("%v is not a triangle in the data graph", f)
		}
		n++
	}
	res, err := h.Result(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != n {
		t.Fatalf("streamed %d embeddings but result says %d", n, res.Total)
	}
	if want := localenum.Count(g, pattern.Triangle(), localenum.Options{}); n != want {
		t.Fatalf("streamed %d triangles, oracle says %d", n, want)
	}
}

func TestCloseFailsQueuedAndRejectsNew(t *testing.T) {
	svc, err := service.Open(testGraph(), service.Config{MaxConcurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng := newBlockingEngine(4)
	if err := svc.Register(eng.engine()); err != nil {
		t.Fatal(err)
	}
	blocker, err := svc.Submit(context.Background(), service.Query{
		Pattern: pattern.Triangle(), Engine: "block", NoCache: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	<-eng.started
	queued, err := svc.Submit(context.Background(), service.Query{
		Pattern: pattern.Triangle(), Engine: "block", NoCache: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	closed := make(chan error, 1)
	go func() { closed <- svc.Close() }()
	// The queued query must fail with ErrClosed; the running one is
	// allowed to finish once released.
	if _, err := queued.Result(context.Background()); !errors.Is(err, service.ErrClosed) {
		t.Fatalf("queued query after Close returned %v, want ErrClosed", err)
	}
	close(eng.release)
	if _, err := blocker.Result(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(context.Background(), service.Query{Pattern: pattern.Triangle()}); !errors.Is(err, service.ErrClosed) {
		t.Fatalf("submit after Close returned %v, want ErrClosed", err)
	}
}

func TestUnknownEngineAndBadPattern(t *testing.T) {
	svc := openService(t, service.Config{})
	if _, err := svc.Submit(context.Background(), service.Query{Pattern: pattern.Triangle(), Engine: "nope"}); err == nil {
		t.Fatal("unknown engine must fail")
	}
	disconnected := pattern.New("disc", 4, 0, 1, 2, 3)
	if _, err := svc.Submit(context.Background(), service.Query{Pattern: disconnected}); err == nil {
		t.Fatal("disconnected pattern must fail")
	}
	if _, err := svc.Submit(context.Background(), service.Query{}); err == nil {
		t.Fatal("nil pattern must fail")
	}
}
