package rads

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"rads/internal/cluster"
	eng "rads/internal/engine"
	"rads/internal/partition"
	"rads/internal/pattern"
)

// ClusterEngine is the fleet's coordinator: it implements engine.Engine
// by computing the execution plan once, sending a RunQueryRequest to
// every machine's daemon over the transport (normally a
// cluster.TCPClient built from the address book), and folding the
// machines' responses — the same per-machine results, through the same
// fold, as the in-process Run. The machines talk to each other directly:
// verifyE, fetchV, checkR and shareR never pass through the
// coordinator; only the control plane does.
//
// A Machine holds one query at a time, so the coordinator serializes
// cluster queries: concurrent Run calls queue on an internal mutex (the
// resident service's admission queue sits in front of this anyway).
// The wire carries the service's QueryID, so workers attribute traces
// and journal events per query.
//
// With EnableFallback, Run serves queries in this process instead while
// the fleet is degraded — correct counts, since both legs enumerate the
// same partition and a failed dispatch discards every partial count,
// at the capacity of one process.
//
// Capabilities are narrower than the in-process engine's: embeddings
// are counted on the workers and never cross the wire, so streaming
// is not offered, and a dispatched superstep cannot be recalled, so
// cancellation is only honoured between queries.
type ClusterEngine struct {
	tr cluster.Transport
	m  int

	// health, when StartHealth has run, carries each worker's up/down
	// state and the heartbeat loop (see health.go). Nil means no health
	// gating.
	health *clusterHealth
	// fallback routes queries to the in-process engine while the fleet
	// is degraded (EnableFallback).
	fallback bool
	// joined is the partition WaitReady admitted the fleet on, and
	// joinedHash its fingerprint: the heartbeat holds every worker's
	// ping to them for as long as the coordinator runs (admit).
	joined     *partition.Partition
	joinedHash uint64

	mu sync.Mutex
}

// NewClusterEngine fronts m remote machines reachable through tr.
func NewClusterEngine(tr cluster.Transport, m int) *ClusterEngine {
	return &ClusterEngine{tr: tr, m: m}
}

// Name reports "RADS": this is the RADS engine, hosted remotely. A
// cluster-mode service registers it over the in-process one.
func (c *ClusterEngine) Name() string { return "RADS" }

// Capabilities declares what the remote deployment supports.
func (c *ClusterEngine) Capabilities() eng.Capabilities {
	return eng.Capabilities{
		Streaming:     false,
		Cancellation:  false,
		ArtifactScope: eng.ArtifactPerPattern,
	}
}

// Prepare computes the execution plan, exactly like the in-process
// engine — the artifact is shipped to the workers with each query.
func (c *ClusterEngine) Prepare(_ *partition.Partition, p *pattern.Pattern) (eng.Artifact, error) {
	return preparePlan(p)
}

// WaitReady pings every machine until it responds or the shared
// deadline passes (one budget for the whole cluster, not per machine)
// — called once at ingress startup, before StartHealth, so a booting
// cluster fails loudly instead of on the first query. Every worker must
// pass admit: report this build's cluster.WireContract and, when part
// is non-nil, part's fingerprint. The heartbeat holds workers restarted
// later to the same check.
func (c *ClusterEngine) WaitReady(part *partition.Partition, deadline time.Duration) error {
	until := time.Now().Add(deadline)
	c.joined = part
	if part != nil {
		c.joinedHash = PartitionFingerprint(part)
	}
	for t := 0; t < c.m; t++ {
		pr, err := Ping(c.tr, t, until)
		if err != nil {
			return err
		}
		if err := c.admit(t, pr); err != nil {
			return err
		}
	}
	return nil
}

// admit checks worker t's ping reply against the coordinator: a worker
// built to another cluster.WireContract would misread queries and
// miscount, and one booted from a different snapshot than the partition
// WaitReady joined on would serve silently inconsistent counts.
func (c *ClusterEngine) admit(t int, pr *cluster.PingResponse) error {
	if pr.Contract != cluster.WireContract {
		return fmt.Errorf("rads: machine %d speaks wire contract %d, the coordinator %d — workers and ingress must be built from the same source",
			t, pr.Contract, cluster.WireContract)
	}
	if p := c.joined; p != nil && (pr.Vertices != p.G.NumVertices() || pr.PartitionHash != c.joinedHash) {
		return fmt.Errorf("rads: machine %d hosts a different partition (%d vertices, hash %x) than the coordinator (%d vertices, hash %x) — workers and ingress must load the same snapshot",
			t, pr.Vertices, pr.PartitionHash, p.G.NumVertices(), c.joinedHash)
	}
	return nil
}

// EnableFallback turns on degraded-mode serving: while any worker is
// down, or when a dispatch finds a worker down before the heartbeat
// does, Run serves the query with the in-process engine on the
// coordinator's partition. Fallback queries run outside the cluster
// mutex, so they do not queue behind each other. Call before serving.
func (c *ClusterEngine) EnableFallback() { c.fallback = true }

// FallbackActive reports whether queries are currently served in this
// process.
func (c *ClusterEngine) FallbackActive() bool { return c.fallback && !c.Healthy() }

// Run executes one query across the remote machines, or in this process
// while the fallback leg is active.
func (c *ClusterEngine) Run(ctx context.Context, req eng.Request) (eng.Result, error) {
	if err := eng.ValidateRequest(c, req); err != nil {
		return eng.Result{}, err
	}
	if c.FallbackActive() {
		return apiEngine{}.Run(ctx, req)
	}
	res, err := c.runRemote(ctx, req)
	if c.fallback && Unavailable(err) {
		return apiEngine{}.Run(ctx, req)
	}
	return res, err
}

// runRemote is one query dispatched to every machine and folded.
func (c *ClusterEngine) runRemote(ctx context.Context, req eng.Request) (eng.Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return eng.Result{}, err
	}
	// Fail fast on known-down workers: every machine participates in
	// every query, so one down worker means the query cannot succeed.
	if err := c.gateHealth(); err != nil {
		return eng.Result{}, err
	}

	// The wall clock starts before planning (and after the wait behind
	// earlier cluster queries, which is queueing, not execution): the
	// coordinator's phases plus the stitched per-worker spans make a
	// cluster query profile like an in-process one.
	start := time.Now()
	trace, pl, err := beginRun(c, req)
	if err != nil {
		return eng.Result{}, err
	}
	wire := &RunQueryRequest{
		Pattern:     pattern.Format(req.Pattern),
		Units:       pl.Units,
		Constraints: req.Pattern.SymmetryBreaking(),
		QueryID:     req.QueryID,
		Workers:     req.Workers,
		BudgetBytes: req.Budget.Limit(),
	}

	execSp := trace.Start("execute", -1, -1)
	// Anchor for stitching remote spans: each worker's trace clock
	// starts when its runQuery begins, which is (to within dispatch
	// latency) this moment on the coordinator's clock. Both sides
	// measure offsets from their own local zero, so absolute clock skew
	// between hosts cancels.
	execBase := trace.SinceStart()
	resps := make([]*RunQueryResponse, c.m)
	errs := make([]error, c.m)
	var wg sync.WaitGroup
	for t := 0; t < c.m; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			resp, err := c.tr.Call(cluster.Coordinator, t, wire)
			c.reportOutcome(t, err)
			if err != nil {
				switch {
				case errors.Is(err, cluster.ErrTimeout):
					// A missed deadline says nothing of the machine's
					// liveness: one that is up times out waiting on a
					// wedged peer. Name it without calling it down.
					errs[t] = fmt.Errorf("rads: worker %d timed out: %w", t, err)
				case errors.Is(err, cluster.ErrRemote):
					errs[t] = fmt.Errorf("rads: machine %d: %w", t, err)
				default:
					// Refused or severed: the worker itself is
					// unreachable, not just the query unlucky.
					errs[t] = &WorkerDownError{Machine: t, Cause: err}
				}
				return
			}
			r, ok := resp.(*RunQueryResponse)
			if !ok {
				errs[t] = fmt.Errorf("rads: machine %d replied %T", t, resp)
				return
			}
			// Account the control-plane exchange itself, so /stats shows
			// runQuery traffic alongside the folded worker data plane.
			req.Metrics.Account(cluster.Coordinator, t, wire, r, wire.MessageKind())
			resps[t] = r
		}(t)
	}
	wg.Wait()
	execSp.End()
	// When a worker dies mid-query, its surviving peers often fail too
	// (their fetchV/verifyE calls to the dead machine error out, which
	// they report as remote errors, or they miss the deadline). Prefer
	// the root cause: a WorkerDownError from any machine over a
	// timeout, and a timeout over a secondary remote error.
	for _, cause := range []error{ErrWorkerDown, cluster.ErrTimeout, nil} {
		for _, err := range errs {
			if err != nil && (cause == nil || errors.Is(err, cause)) {
				return eng.Result{}, err
			}
		}
	}

	foldSp := trace.Start("fold", -1, -1)
	for t, r := range resps {
		req.Metrics.AccountRemote(t, r.CommBytes, r.CommMessages)
		// Stitch the worker's sub-phase spans into the coordinator
		// timeline, re-anchored at the execute dispatch offset and
		// re-attributed to machine t.
		trace.AddRemoteSpans(t, execBase, r.Spans)
	}
	res, err := fold(resps)
	foldSp.End()
	return engineResult(trace, start, res, err)
}
