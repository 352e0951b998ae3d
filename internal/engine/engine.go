// Package engine defines the uniform execution API over the
// subgraph-enumeration engines: RADS and the five shuffle-and-cache
// baselines of the paper's evaluation (PSgL, TwinTwig, SEED, Crystal,
// BigJoin), plus anything a caller registers.
//
// The paper's whole argument is a head-to-head between heterogeneous
// strategies; this package is the seam that makes them interchangeable.
// An Engine declares its Capabilities (streaming, cancellation,
// prepared artifacts), can Prepare reusable per-(partition, pattern)
// state — RADS execution plans, Crystal clique indexes — and Runs one
// request against a resident partition. Engines self-register from
// their wiring packages (see internal/engine/all); callers resolve
// them with Lookup and never switch on engine names.
package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"rads/internal/cluster"
	"rads/internal/graph"
	"rads/internal/obs"
	"rads/internal/partition"
	"rads/internal/pattern"
)

// ErrUnsupported marks a request option the engine's declared
// Capabilities cannot honour (for example streaming embeddings from an
// engine whose Capabilities report Streaming=false). Callers test for
// it with errors.Is.
var ErrUnsupported = errors.New("engine: unsupported option")

// ArtifactScope says what a prepared Artifact depends on, which is
// exactly what an artifact cache must key on (beyond the engine name;
// every artifact is also bound to the partition it was prepared for).
type ArtifactScope int

const (
	// ArtifactNone: the engine has no prepared state; Prepare returns
	// (nil, nil) and Run never expects a Request.Artifact.
	ArtifactNone ArtifactScope = iota
	// ArtifactPerPattern: the artifact depends on the exact labeled
	// pattern. RADS plans live here — a matching order names concrete
	// query-vertex IDs, so isomorphic relabelings need distinct plans.
	ArtifactPerPattern
	// ArtifactPerCanonical: the artifact only depends on the pattern's
	// isomorphism class and is shared across relabelings via
	// pattern.CanonicalKey. Crystal's clique index lives here — it is a
	// function of the data graph and the query's maximum clique size,
	// both isomorphism-invariant.
	ArtifactPerCanonical
)

// String returns the scope's wire name (used by the /engines payload).
func (s ArtifactScope) String() string {
	switch s {
	case ArtifactPerPattern:
		return "pattern"
	case ArtifactPerCanonical:
		return "canonical"
	default:
		return "none"
	}
}

// Capabilities declares what an engine can do. The dispatch layers
// (harness, service) consult it instead of hard-coding engine names.
type Capabilities struct {
	// Streaming: the engine honours Request.OnEmbedding, delivering
	// every embedding as it is found.
	Streaming bool
	// Cancellation: the engine checks the Run context between units of
	// work (RADS: candidates/groups; baselines: supersteps) and returns
	// its error promptly once cancelled.
	Cancellation bool
	// ArtifactScope declares the engine's prepared-artifact support and
	// cache granularity.
	ArtifactScope ArtifactScope
}

// PreparedArtifacts reports whether Prepare returns reusable state.
func (c Capabilities) PreparedArtifacts() bool { return c.ArtifactScope != ArtifactNone }

// Artifact is reusable state an engine prepared for a (partition,
// pattern) pair — an execution plan, a clique index. Artifacts are
// opaque to everything but their owning engine; the one shared verb is
// accounting.
type Artifact interface {
	// SizeBytes is the artifact's accounted size, for cache budgeting
	// and stats.
	SizeBytes() int64
}

// Request is one enumeration run against a resident partition.
type Request struct {
	// Part is the partitioned data graph (required).
	Part *partition.Partition
	// Pattern is the connected query pattern (required).
	Pattern *pattern.Pattern
	// Artifact is prepared state from this engine's Prepare for this
	// (partition, pattern); nil makes the engine prepare internally.
	Artifact Artifact
	// Metrics receives communication accounting; nil allocates one
	// internally (the caller then cannot read the totals).
	Metrics *cluster.Metrics
	// Transport overrides the in-process transport the engine would
	// otherwise build for its simulated machines — the conformance
	// suite runs every engine over cluster.TCPTransport through this.
	// Nil keeps the engine's default. Engines must Register their
	// per-machine handlers on it for each run.
	Transport cluster.Transport
	// Budget is the per-machine memory budget; nil is unlimited.
	// Exceeding it surfaces as Result.OOM, not an error.
	Budget *cluster.MemBudget
	// OnEmbedding, if non-nil, receives every embedding found (f is
	// indexed by query vertex and reused — copy to retain). Only valid
	// for engines whose Capabilities report Streaming; others reject
	// the request with ErrUnsupported.
	OnEmbedding func(machine int, f []graph.VertexID)
	// Workers hints the intra-machine enumeration parallelism: engines
	// with a per-machine worker pool (RADS) fan their work across this
	// many workers per simulated machine. 0 lets the engine derive a
	// default; engines without intra-machine parallelism ignore it.
	// Results must be identical at any setting.
	Workers int
	// Trace, if non-nil, receives the run's phase spans (plan, fetch,
	// verifyE, region groups, stealing). Engines that support tracing
	// record into it and build Result.Profile from it; a nil Trace is
	// recorded into safely (obs.Trace is nil-tolerant), so engines may
	// thread it unconditionally.
	Trace *obs.Trace
	// QueryID is the service-minted query identifier. Engines that fan
	// out over a cluster thread it onto the wire so remote machines can
	// attribute their work (traces, journal events) to the query; 0
	// means unattributed (direct library use).
	QueryID uint64
}

// Result is an engine's normalized answer.
type Result struct {
	// Total is the number of embeddings found.
	Total int64
	// Seconds is the enumeration wall time (excluding Prepare).
	Seconds float64
	// OOM: the run died of the memory budget. The paper plots these as
	// missing bars; they are an outcome, not an error.
	OOM bool
	// TreeNodes counts successful partial matches (search-tree nodes)
	// when the engine tracks them, 0 otherwise. Divided by Seconds it
	// is the engine-agnostic throughput metric of the bench harness
	// (tree-nodes/sec).
	TreeNodes int64
	// FrontierSplits is always 0: no engine splits a round across its
	// workers. It stays because the benchmark module reads it.
	FrontierSplits int64
	// PeakMemBytes is the run's accounted memory high-water mark (max
	// over machines), when the engine can report one. For in-process
	// engines it mirrors Request.Budget's MaxPeak; for the cluster
	// coordinator it is the max over the remote workers' reported
	// peaks — the workers' budgets live in other processes, so this
	// field is the only way the number reaches the caller.
	PeakMemBytes int64
	// Profile is the run's execution profile (time per phase,
	// per-machine breakdown, kernel selections, steals) for engines
	// that trace their runs; nil otherwise. The service fills in the
	// query-level fields (ID, Query, Engine, QueuedSeconds).
	Profile *obs.Profile
}

// Engine is one subgraph-enumeration strategy over a partitioned data
// graph. Implementations must be safe for concurrent Run calls against
// the same partition — the resident service runs several at once.
type Engine interface {
	// Name is the registry key ("RADS", "PSgL", ...).
	Name() string
	// Capabilities declares what this engine supports.
	Capabilities() Capabilities
	// Prepare builds reusable state for a (partition, pattern) pair.
	// Engines with ArtifactScope None return (nil, nil).
	Prepare(part *partition.Partition, p *pattern.Pattern) (Artifact, error)
	// Run enumerates req.Pattern in req.Part. Engines with the
	// Cancellation capability honour ctx between units of work and
	// return an error wrapping ctx.Err() once cancelled.
	Run(ctx context.Context, req Request) (Result, error)
}

// ArtifactKeyer optionally coarsens an engine's artifact cache key.
// When an engine implements it, ArtifactCache keys on
// (engine, ArtifactKey(p)) instead of the ArtifactScope default —
// useful when the artifact depends on less than the whole pattern:
// Crystal's clique index is a function of only the query's maximum
// clique size, so every pattern with the same requirement shares one
// index. The engine must still declare a non-None ArtifactScope.
type ArtifactKeyer interface {
	ArtifactKey(p *pattern.Pattern) string
}

// ValidateRequest rejects request options the engine's declared
// capabilities cannot honour, wrapping ErrUnsupported.
func ValidateRequest(e Engine, req Request) error {
	if req.OnEmbedding != nil && !e.Capabilities().Streaming {
		return fmt.Errorf("%w: engine %s cannot stream embeddings", ErrUnsupported, e.Name())
	}
	return nil
}

// Execute is the dispatch sequence every caller of an Engine shares
// (the resident service, the bench harness): reject options the engine
// cannot honour, resolve the prepared artifact through arts (nil skips
// the cache and lets the engine prepare inside Run), run, and fold the
// request budget's in-process high-water mark into Result.PeakMemBytes
// — engines whose machines live elsewhere report remote peaks there
// themselves, so the caller sees whichever view is larger.
func Execute(ctx context.Context, e Engine, arts *ArtifactCache, req Request) (Result, error) {
	if err := ValidateRequest(e, req); err != nil {
		return Result{}, err
	}
	if arts != nil {
		// ctx-aware: a client that is already gone neither starts a
		// preparation nor waits on someone else's.
		art, err := arts.Get(ctx, e, req.Part, req.Pattern)
		if err != nil {
			return Result{}, fmt.Errorf("engine: preparing %s for %s: %w", e.Name(), req.Pattern.Name, err)
		}
		req.Artifact = art
	}
	res, err := e.Run(ctx, req)
	if peak := req.Budget.MaxPeak(); peak > res.PeakMemBytes {
		res.PeakMemBytes = peak
	}
	return res, err
}

// LabeledKey is the structural identity of a labeled pattern: vertex
// count plus sorted edge list. Deliberately *not* pattern.Format, which
// embeds the client-chosen Name — keying on that would let HTTP clients
// mint unbounded distinct cache keys for one structure. Artifacts with
// ArtifactPerPattern scope cache under this key.
func LabeledKey(p *pattern.Pattern) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d:", p.N())
	for i, e := range p.Edges() {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d-%d", e[0], e[1])
	}
	return b.String()
}
