// Package service is the resident query layer: a long-lived,
// concurrency-safe front end over the enumeration engines.
//
// A batch entry point pays the full setup cost per query — load the
// data graph, partition it, compute border distances, plan the
// pattern, run, exit. RADS itself is deliberately stateful across
// rounds (cached adjacency, region groups), and a serving system
// should be stateful across *queries*: load and partition once, keep
// the per-machine state resident, and amortize it over millions of
// requests.
//
// A Service owns:
//
//   - the partitioned data graph, with per-machine border distances
//     precomputed (they drive the SM-E split of Proposition 1);
//   - an artifact cache: prepared per-engine state (RADS execution
//     plans, Crystal clique indexes) memoized per pattern through the
//     engine API's Prepare;
//   - a result cache keyed by the pattern's canonical form, so any
//     relabeling of an already-answered motif is O(1);
//   - an admission gate (internal/admission): at most MaxConcurrent
//     queries run at once, excess load queues up to MaxQueued, and
//     beyond that Submit fails fast with ErrOverloaded instead of
//     falling over;
//   - engine routing over the process-wide engine registry (RADS and
//     the baseline engines), extensible via Register.
//
// Submit returns a Handle immediately; results stream through it.
package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rads/internal/admission"
	"rads/internal/cluster"
	"rads/internal/engine"
	"rads/internal/graph"
	"rads/internal/obs"
	"rads/internal/partition"
	"rads/internal/rads"
)

// Errors returned by Submit.
var (
	ErrClosed     = errors.New("service: closed")
	ErrOverloaded = errors.New("service: overloaded, queue full")
)

// DefaultPartitionSeed seeds the KWay partitioner of Open. Exported so
// out-of-process tooling (radserve's snapshot writer) partitions
// identically to service.Open — a snapshot
// and a cold start must agree on the vertex-to-machine assignment.
const DefaultPartitionSeed = 7

// profileCap sizes the recent-profile and slow-query rings.
const profileCap = 128

// MaxPatternVertices bounds accepted query patterns. The paper's
// largest query has 6 vertices and its running example 10; beyond
// that enumeration is intractable anyway, and 10 keeps pre-admission
// canonicalization (exponential worst case; measured <= ~5ms on
// dense random 10-vertex patterns) too cheap to weaponize over HTTP.
const MaxPatternVertices = 10

// Config tunes a Service. The zero value gets sensible defaults.
type Config struct {
	// Machines is the number of simulated machines the graph is
	// partitioned across (default 4). Ignored by OpenPartitioned.
	Machines int
	// MaxConcurrent caps queries running at once (default 4).
	MaxConcurrent int
	// MaxQueued caps queries waiting for admission; Submit returns
	// ErrOverloaded beyond it (default 64).
	MaxQueued int
	// QueryBudgetBytes is the per-machine memory budget granted to each
	// query (0 = unlimited). Queries that exceed it report OOM in
	// their Result rather than failing the service.
	QueryBudgetBytes int64
	// CacheEntries is the result-cache capacity (default 256;
	// negative disables caching).
	CacheEntries int
	// DefaultEngine answers queries that don't name one (default RADS).
	DefaultEngine string
	// SlowQuery is the latency above which a completed query's profile
	// is also kept in the slow-query ring and reported through
	// OnSlowQuery (0 disables slow-query tracking).
	SlowQuery time.Duration
	// OnSlowQuery, when set, is called synchronously with the profile
	// of every query slower than SlowQuery (radserve logs these).
	OnSlowQuery func(*obs.Profile)
	// Events, when set, receives the service's journal entries (slow
	// queries); nil records nothing (obs.EventLog is
	// nil-tolerant).
	Events *obs.EventLog
}

func (c Config) withDefaults() Config {
	if c.Machines <= 0 {
		c.Machines = 4
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.DefaultEngine == "" {
		c.DefaultEngine = "RADS"
	}
	return c
}

// Service is the resident query service. It is safe for concurrent
// Submit calls.
type Service struct {
	cfg   Config
	part  *partition.Partition
	start time.Time

	// Partition-quality numbers are immutable; computed once at Open
	// so /stats polling never rescans the graph's edges.
	edgeCut int64
	balance float64

	gate *admission.Gate // MaxConcurrent slots, MaxQueued waiters

	mu      sync.Mutex // guards engines
	engines map[string]engine.Engine
	cache   *resultCache

	// artifacts memoizes prepared per-engine state for the resident
	// partition (RADS plans per labeled pattern, Crystal clique indexes
	// per canonical form).
	artifacts *engine.ArtifactCache

	// Cumulative communication across all served queries.
	commBytes      atomic.Int64
	commMessages   atomic.Int64
	kindMu         sync.Mutex
	commByKind     map[string]int64
	commMsgsByKind map[string]int64

	// Observability: a per-service registry (so several services in one
	// process never collide), pre-resolved hot-path families, and the
	// recent/slow profile rings behind /debug/trace.
	reg             *obs.Registry
	obsQueryLatency obs.HistogramVec // by engine
	obsWaitLatency  *obs.Histogram
	obsQueries      obs.CounterVec   // by outcome
	obsTransport    obs.HistogramVec // by message kind
	obsSteals       *obs.Counter
	profiles        *obs.ProfileRing
	slow            *obs.ProfileRing
	queryIDs        atomic.Uint64

	// Counters surfaced by Stats.
	submitted   atomic.Int64
	completed   atomic.Int64
	failed      atomic.Int64
	cancelled   atomic.Int64
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	engineRuns  atomic.Int64
	treeNodes   atomic.Int64
}

// Open loads g into a new Service: partitions it across cfg.Machines
// with the KWay partitioner and warms the per-machine resident state.
func Open(g *graph.Graph, cfg Config) (*Service, error) {
	if g == nil || g.NumVertices() == 0 {
		return nil, errors.New("service: empty data graph")
	}
	cfg = cfg.withDefaults()
	return OpenPartitioned(partition.KWay(g, cfg.Machines, DefaultPartitionSeed), cfg)
}

// OpenPartitioned builds a Service over an existing partition (callers
// that partitioned the graph themselves, e.g. with Hash for ablations).
func OpenPartitioned(part *partition.Partition, cfg Config) (*Service, error) {
	if part == nil || part.M <= 0 {
		return nil, errors.New("service: nil or empty partition")
	}
	cfg = cfg.withDefaults()
	cfg.Machines = part.M
	s := &Service{
		cfg:            cfg,
		part:           part,
		start:          time.Now(),
		edgeCut:        part.EdgeCut(),
		balance:        part.Balance(),
		gate:           admission.New(cfg.MaxConcurrent, cfg.MaxQueued),
		engines:        make(map[string]engine.Engine),
		cache:          newResultCache(cfg.CacheEntries),
		artifacts:      engine.NewArtifactCache(0),
		commByKind:     make(map[string]int64),
		commMsgsByKind: make(map[string]int64),
		profiles:       obs.NewProfileRing(profileCap),
		slow:           obs.NewProfileRing(profileCap),
	}
	s.initObs()
	// Route to every engine in the process-wide registry (RADS and the
	// five baselines via rads/internal/engine/all).
	for _, name := range engine.Names() {
		s.engines[name], _ = engine.Lookup(name)
	}
	return s, nil
}

// initObs builds the service's metrics registry. Write-path families
// (latencies, outcome counters) are pre-resolved; everything already
// counted by an existing atomic — cache hits, comm bytes, kernel
// selections — surfaces through polled families read at scrape time,
// so the query path pays nothing extra for them.
func (s *Service) initObs() {
	reg := obs.NewRegistry()
	s.reg = reg
	s.obsQueryLatency = reg.HistogramVec("rads_query_seconds",
		"Query execution latency by engine.", "engine", nil)
	s.obsWaitLatency = reg.Histogram("rads_admission_wait_seconds",
		"Time queries waited in the admission queue before running.", nil)
	s.obsQueries = reg.CounterVec("rads_queries_total",
		"Queries finished by outcome.", "outcome")
	s.obsTransport = reg.HistogramVec("rads_transport_latency_seconds",
		"Machine-to-machine exchange latency by message kind.", "kind", nil)
	s.obsSteals = reg.Counter("rads_steals_total",
		"Region groups stolen via shareR across all queries.")
	reg.CounterFunc("rads_cache_hits_total",
		"Result-cache hits.", s.cacheHits.Load)
	reg.CounterFunc("rads_cache_misses_total",
		"Result-cache misses.", s.cacheMisses.Load)
	reg.CounterFunc("rads_tree_nodes_total",
		"Successful partial matches (search-tree nodes) across all runs.",
		s.treeNodes.Load)
	reg.GaugeFunc("rads_queries_running",
		"Queries currently executing.", func() float64 {
			return float64(s.gate.Running())
		})
	reg.GaugeFunc("rads_queries_queued",
		"Queries waiting for an admission slot.", func() float64 {
			return float64(s.gate.Queued())
		})
	reg.CounterVecFunc("rads_transport_bytes_total",
		"Simulated network bytes by message kind.", "kind", func() map[string]int64 {
			s.kindMu.Lock()
			defer s.kindMu.Unlock()
			out := make(map[string]int64, len(s.commByKind))
			for k, v := range s.commByKind {
				out[k] = v
			}
			return out
		})
	reg.CounterVecFunc("rads_transport_messages_total",
		"Simulated network messages by message kind.", "kind", func() map[string]int64 {
			s.kindMu.Lock()
			defer s.kindMu.Unlock()
			out := make(map[string]int64, len(s.commMsgsByKind))
			for k, v := range s.commMsgsByKind {
				out[k] = v
			}
			return out
		})
	// Every RADS machine run in this process adds its exact tally to
	// these totals when it ends.
	reg.CounterVecFunc("rads_kernel_selections_total",
		"Adaptive intersection kernel selections.", "kernel", graph.KernelCounts)
}

// Metrics exposes the service's metrics registry (radserve mounts it
// at /metrics).
func (s *Service) Metrics() *obs.Registry { return s.reg }

// RecentProfiles returns up to n recent query profiles, newest first.
func (s *Service) RecentProfiles(n int) []*obs.Profile { return s.profiles.Recent(n) }

// SlowProfiles returns up to n slow-query profiles, newest first
// (empty unless Config.SlowQuery is set).
func (s *Service) SlowProfiles(n int) []*obs.Profile { return s.slow.Recent(n) }

// FindProfile returns the retained profile of query id, or nil if it
// has aged out of both rings.
func (s *Service) FindProfile(id uint64) *obs.Profile {
	if p := s.profiles.Find(id); p != nil {
		return p
	}
	return s.slow.Find(id)
}

// Partition exposes the resident partition (read-only by convention).
func (s *Service) Partition() *partition.Partition { return s.part }

// Register adds (or replaces) an engine under its own name; queries
// name engines by these keys. Its declared capabilities gate admission
// (unsupported options are rejected at Submit) and its prepared
// artifacts route through the service's artifact cache, exactly as for
// the built-ins. Cluster-mode radserve uses this to swap the
// in-process RADS engine for the remote coordinator.
func (s *Service) Register(e engine.Engine) error {
	if e == nil || e.Name() == "" {
		return errors.New("service: engine needs a name")
	}
	if s.gate.Closed() {
		return ErrClosed
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.engines[e.Name()] = e
	return nil
}

// Submit enqueues q and returns its Handle immediately. The context
// governs the query's whole lifetime: cancelling it aborts the query
// whether it is still queued or already running (engines that support
// cancellation stop mid-run). Submit itself never blocks on admission.
func (s *Service) Submit(ctx context.Context, q Query) (*Handle, error) {
	if q.Pattern == nil {
		return nil, errors.New("service: query has no pattern")
	}
	if n := q.Pattern.N(); n > MaxPatternVertices {
		return nil, fmt.Errorf("service: pattern %s has %d vertices (max %d)", q.Pattern.Name, n, MaxPatternVertices)
	}
	if !q.Pattern.IsConnected() {
		return nil, fmt.Errorf("service: pattern %s is not connected", q.Pattern.Name)
	}
	engineName := q.Engine
	if engineName == "" {
		engineName = s.cfg.DefaultEngine
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// Canonicalization is skipped entirely for queries the cache can
	// never serve (an empty key disables cache ops downstream).
	var key string
	if s.cache != nil && !q.NoCache && !q.Stream {
		key = q.Pattern.CanonicalKey()
	}

	if s.gate.Closed() {
		return nil, ErrClosed
	}
	s.mu.Lock()
	e, ok := s.engines[engineName]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("service: unknown engine %q", engineName)
	}
	// Reject unsupported options up front from the engine's declared
	// capabilities, instead of failing mid-run.
	if q.Stream && !e.Capabilities().Streaming {
		return nil, fmt.Errorf("service: engine %s cannot stream embeddings: %w", engineName, engine.ErrUnsupported)
	}
	s.submitted.Add(1)

	h := newHandle(q, engineName)
	h.id = s.queryIDs.Add(1)

	// Fast path: answered motif under any labeling. Streaming queries
	// skip the cache — embeddings are not cached, only counts.
	if key != "" {
		if s.completeFromCache(h, key, 0) {
			return h, nil
		}
		s.cacheMisses.Add(1)
	}

	// Admission: a free slot right now, else a seat in the bounded
	// queue, else fail fast.
	tk, err := s.gate.Enter()
	switch {
	case errors.Is(err, admission.ErrFull):
		return nil, fmt.Errorf("%w (%d waiting)", ErrOverloaded, s.cfg.MaxQueued)
	case err != nil:
		return nil, ErrClosed
	}
	go s.serve(ctx, h, e, key, tk)
	return h, nil
}

// completeFromCache answers h from the result cache when key is
// present, after queued spent waiting for admission. The cached result
// keeps the engine that actually produced it (Seconds/CommMB are that
// run's numbers); CacheHit tells the caller the requested engine never
// ran, and Queued is this request's wait, not the original run's.
func (s *Service) completeFromCache(h *Handle, key string, queued time.Duration) bool {
	res, ok := s.cache.get(key)
	if !ok {
		return false
	}
	s.cacheHits.Add(1)
	s.completed.Add(1)
	res.Pattern = h.query.Pattern.Name
	res.CacheHit = true
	res.Queued = queued
	s.recordProfile(&obs.Profile{
		ID: h.id, Query: res.Pattern, Engine: res.Engine,
		CacheHit: true, QueuedSeconds: queued.Seconds(),
	}, 0)
	s.obsQueries.With("cache_hit").Inc()
	h.complete(res)
	return true
}

// serve runs one admitted-or-queued query to completion.
func (s *Service) serve(ctx context.Context, h *Handle, e engine.Engine, key string, tk *admission.Ticket) {
	defer tk.Release()
	enqueued := time.Now()
	// Wait for a slot, the client giving up, or shutdown.
	if err := tk.Wait(ctx); err != nil {
		if errors.Is(err, admission.ErrClosed) {
			s.failed.Add(1)
			h.fail(ErrClosed)
		} else {
			s.cancelled.Add(1)
			h.fail(fmt.Errorf("service: query %q cancelled while queued: %w", h.query.Pattern.Name, err))
		}
		return
	}
	queuedFor := time.Since(enqueued)
	s.obsWaitLatency.Observe(queuedFor.Seconds())

	// Re-check the cache: an identical motif may have completed while
	// this query waited in the queue. This lookup supersedes the miss
	// recorded at Submit — compensate it so hits+misses tracks queries,
	// not lookups.
	if key != "" && s.completeFromCache(h, key, queuedFor) {
		s.cacheMisses.Add(-1)
		return
	}

	trace := obs.NewTrace()
	req := engine.Request{
		Part:    s.part,
		Pattern: h.query.Pattern,
		Metrics: cluster.NewMetrics(s.part.M),
		Trace:   trace,
		QueryID: h.id,
	}
	// Per-kind exchange latencies flow straight into the shared
	// histogram family; installed before the engine builds transports.
	req.Metrics.SetLatencyObserver(func(kind string, seconds float64) {
		s.obsTransport.With(kind).Observe(seconds)
	})
	if s.cfg.QueryBudgetBytes > 0 {
		req.Budget = cluster.NewMemBudget(s.part.M, s.cfg.QueryBudgetBytes)
	}
	if h.query.Stream {
		req.OnEmbedding = func(machine int, f []graph.VertexID) {
			cp := append([]graph.VertexID(nil), f...)
			select {
			case h.emb <- cp:
			case <-ctx.Done():
			}
		}
	}

	s.engineRuns.Add(1)
	began := time.Now()
	res, err := engine.Execute(ctx, e, s.artifacts, req)
	elapsed := time.Since(began)
	s.accountComm(req.Metrics)
	if err != nil {
		// A context cancellation is the client's doing (disconnect or
		// deliberate stream truncation), not a service failure. A down
		// or timed-out worker is a failure but a distinguishable one:
		// the outcome label separates cluster unavailability from
		// query errors.
		outcome := "error"
		switch {
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			s.cancelled.Add(1)
			outcome = "cancelled"
		case rads.Unavailable(err):
			s.failed.Add(1)
			outcome = "unavailable"
		default:
			s.failed.Add(1)
		}
		s.obsQueries.With(outcome).Inc()
		s.obsQueryLatency.With(h.engine).Observe(elapsed.Seconds())
		prof := trace.Snapshot(elapsed)
		prof.ID, prof.Query, prof.Engine = h.id, h.query.Pattern.Name, h.engine
		prof.QueuedSeconds = queuedFor.Seconds()
		prof.Error = err.Error()
		s.recordProfile(prof, elapsed)
		h.fail(fmt.Errorf("service: engine %s on %s: %w", h.engine, h.query.Pattern.Name, err))
		return
	}

	// Finish the profile: engines that trace hand one back built from
	// the shared trace; for everything else the run is a single opaque
	// "execute" phase so every profile accounts its wall time.
	prof := res.Profile
	if prof == nil {
		trace.AddPhase("execute", -1, elapsed)
		prof = trace.Snapshot(elapsed)
	}
	prof.ID, prof.Query, prof.Engine = h.id, h.query.Pattern.Name, h.engine
	prof.QueuedSeconds = queuedFor.Seconds()
	if res.OOM {
		s.obsQueries.With("oom").Inc()
	} else {
		s.obsQueries.With("ok").Inc()
	}
	s.obsQueryLatency.With(h.engine).Observe(res.Seconds)
	s.obsSteals.Add(int64(prof.Steals))
	s.recordProfile(prof, elapsed)

	s.treeNodes.Add(res.TreeNodes)
	out := Result{
		Pattern:   h.query.Pattern.Name,
		Canonical: key,
		Engine:    h.engine,
		Total:     res.Total,
		TreeNodes: res.TreeNodes,
		Seconds:   res.Seconds,
		CommMB:    float64(req.Metrics.TotalBytes()) / (1 << 20),
		PeakMB:    float64(res.PeakMemBytes) / (1 << 20),
		OOM:       res.OOM,
		Queued:    queuedFor,
	}
	// Cache completed counts only: an OOM verdict depends on the
	// budget, not the pattern, and streams were never materialized.
	// The cached copy drops the profile — it describes this run, not
	// the future requests the cache will answer.
	if key != "" && !res.OOM {
		s.cache.put(key, out)
	}
	out.QueryID = h.id
	out.Profile = prof
	s.completed.Add(1)
	h.complete(out)
}

// recordProfile retains a finished query's profile in the recent ring
// and, past the slow-query threshold, in the slow ring + callback.
func (s *Service) recordProfile(p *obs.Profile, elapsed time.Duration) {
	if p == nil {
		return
	}
	s.profiles.Append(p)
	if s.cfg.SlowQuery > 0 && elapsed >= s.cfg.SlowQuery {
		s.slow.Append(p)
		s.cfg.Events.Recordf("slow_query", -1,
			"query %d (%s, %s) took %.3fs", p.ID, p.Query, p.Engine, elapsed.Seconds())
		if s.cfg.OnSlowQuery != nil {
			s.cfg.OnSlowQuery(p)
		}
	}
}

func (s *Service) accountComm(m *cluster.Metrics) {
	if m == nil {
		return
	}
	s.commBytes.Add(m.TotalBytes())
	s.commMessages.Add(m.TotalMessages())
	s.kindMu.Lock()
	for k, v := range m.ByKind() {
		s.commByKind[k] += v
	}
	for k, v := range m.MessagesByKind() {
		s.commMsgsByKind[k] += v
	}
	s.kindMu.Unlock()
}

// Close stops admitting queries, fails everything still queued with
// ErrClosed, waits for running queries to finish, and returns. It is
// idempotent.
func (s *Service) Close() error {
	s.gate.Close()
	s.gate.Drain()
	return nil
}

// Stats is a point-in-time snapshot of the service, the /stats payload
// of radserve.
type Stats struct {
	Machines  int     `json:"machines"`
	Vertices  int     `json:"vertices"`
	Edges     int64   `json:"edges"`
	EdgeCut   int64   `json:"edge_cut"`
	Balance   float64 `json:"balance"`
	UptimeSec float64 `json:"uptime_sec"`

	Submitted  int64 `json:"submitted"`
	Completed  int64 `json:"completed"`
	Failed     int64 `json:"failed"`
	Cancelled  int64 `json:"cancelled"`
	Rejected   int64 `json:"rejected"`
	Running    int64 `json:"running"`
	Queued     int64 `json:"queued"`
	EngineRuns int64 `json:"engine_runs"`

	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	CacheEntries int   `json:"cache_entries"`

	// TreeNodesTotal accumulates the search-tree nodes of every engine
	// run that reported them — the service-level throughput numerator
	// (tree-nodes/sec against UptimeSec).
	TreeNodesTotal int64 `json:"tree_nodes_total"`

	// Prepared-artifact cache (the generalization of the old RADS-only
	// plan catalog): entries across all engines plus accounted bytes.
	ArtifactsCached int   `json:"artifacts_cached"`
	ArtifactBytes   int64 `json:"artifact_bytes"`

	CommBytes      int64            `json:"comm_bytes"`
	CommMessages   int64            `json:"comm_messages"`
	CommByKind     map[string]int64 `json:"comm_by_kind,omitempty"`
	CommMsgsByKind map[string]int64 `json:"comm_msgs_by_kind,omitempty"`

	Engines []string `json:"engines"`
}

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	st := Stats{
		Machines:       s.part.M,
		Vertices:       s.part.G.NumVertices(),
		Edges:          int64(s.part.G.NumEdges()),
		EdgeCut:        s.edgeCut,
		Balance:        s.balance,
		UptimeSec:      time.Since(s.start).Seconds(),
		Submitted:      s.submitted.Load(),
		Completed:      s.completed.Load(),
		Failed:         s.failed.Load(),
		Cancelled:      s.cancelled.Load(),
		Rejected:       s.gate.Rejected(),
		Running:        s.gate.Running(),
		Queued:         s.gate.Queued(),
		EngineRuns:     s.engineRuns.Load(),
		CacheHits:      s.cacheHits.Load(),
		CacheMisses:    s.cacheMisses.Load(),
		TreeNodesTotal: s.treeNodes.Load(),
		CommBytes:      s.commBytes.Load(),
		CommMessages:   s.commMessages.Load(),
		CommByKind:     make(map[string]int64),
		CommMsgsByKind: make(map[string]int64),
	}
	s.kindMu.Lock()
	for k, v := range s.commByKind {
		st.CommByKind[k] += v
	}
	for k, v := range s.commMsgsByKind {
		st.CommMsgsByKind[k] += v
	}
	s.kindMu.Unlock()
	st.ArtifactsCached = s.artifacts.Len()
	st.ArtifactBytes = s.artifacts.SizeBytes()
	s.mu.Lock()
	if s.cache != nil {
		st.CacheEntries = s.cache.len()
	}
	for name := range s.engines {
		st.Engines = append(st.Engines, name)
	}
	s.mu.Unlock()
	sort.Strings(st.Engines)
	return st
}
