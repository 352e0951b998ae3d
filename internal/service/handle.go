package service

import (
	"context"
	"time"

	"rads/internal/graph"
	"rads/internal/obs"
	"rads/internal/pattern"
)

// Query is one request against the resident graph.
type Query struct {
	// Pattern is the motif to enumerate. Required and must be
	// connected.
	Pattern *pattern.Pattern
	// Engine names the registered engine to run ("" = the service's
	// default, normally RADS).
	Engine string
	// Stream delivers every embedding through Handle.Embeddings
	// instead of just counting. Streaming queries bypass the result
	// cache and are only supported by engines that can emit embeddings
	// (RADS among the built-ins).
	Stream bool
	// NoCache bypasses the result cache in both directions.
	NoCache bool
}

// Result is the terminal outcome of a query.
type Result struct {
	// QueryID is the service-assigned id; /debug/trace?id= looks up
	// the retained profile by it.
	QueryID   uint64        `json:"query_id,omitempty"`
	Pattern   string        `json:"pattern"`
	Canonical string        `json:"canonical,omitempty"`
	Engine    string        `json:"engine"`
	Total     int64         `json:"total"`
	TreeNodes int64         `json:"tree_nodes,omitempty"`
	Seconds   float64       `json:"seconds"`
	CommMB    float64       `json:"comm_mb"`
	PeakMB    float64       `json:"peak_mb,omitempty"`
	OOM       bool          `json:"oom,omitempty"`
	CacheHit  bool          `json:"cache_hit"`
	Queued    time.Duration `json:"-"`
	// Profile is the run's execution profile (phase times, per-machine
	// breakdown; nil for cache hits and pre-observability engines).
	Profile *obs.Profile `json:"profile,omitempty"`
}

// Handle is the streamed result of a Submit: a query in flight. It
// completes exactly once; all methods are safe to call from any
// goroutine.
type Handle struct {
	query  Query
	engine string
	id     uint64

	emb  chan []graph.VertexID // non-nil iff query.Stream
	done chan struct{}
	res  Result
	err  error
}

func newHandle(q Query, engine string) *Handle {
	h := &Handle{query: q, engine: engine, done: make(chan struct{})}
	if q.Stream {
		h.emb = make(chan []graph.VertexID, 64)
	}
	return h
}

// Engine returns the resolved engine name serving this query (the
// service default if the query named none).
func (h *Handle) Engine() string { return h.engine }

// ID returns the service-assigned query id, usable against
// /debug/trace?id= while the profile is retained.
func (h *Handle) ID() uint64 { return h.id }

// Embeddings returns the stream of embeddings for a Stream query (each
// slice indexed by query vertex). The channel closes when the query
// finishes; it is nil for count-only queries. Consumers must drain it
// promptly — the engine blocks on a full buffer.
func (h *Handle) Embeddings() <-chan []graph.VertexID { return h.emb }

// Done closes when the query completes (successfully or not).
func (h *Handle) Done() <-chan struct{} { return h.done }

// Result blocks until the query completes or ctx is cancelled, then
// returns the outcome. For Stream queries, callers should drain
// Embeddings first (or concurrently).
func (h *Handle) Result(ctx context.Context) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-h.done:
		return h.res, h.err
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
}

func (h *Handle) complete(res Result) {
	h.res = res
	if h.emb != nil {
		close(h.emb)
	}
	close(h.done)
}

func (h *Handle) fail(err error) {
	h.err = err
	if h.emb != nil {
		close(h.emb)
	}
	close(h.done)
}
