package rads

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"rads/internal/cluster"
	eng "rads/internal/engine"
	"rads/internal/obs"
	"rads/internal/partition"
	"rads/internal/pattern"
)

// ClusterEngine is the coordinator side of a multi-process RADS
// deployment: it implements engine.Engine by computing the execution
// plan once, fanning a RunQueryRequest out to every remote machine
// daemon over the transport (normally a cluster.TCPClient built from
// the address book), and aggregating the per-machine responses into
// one result. The machines talk to each other directly — verifyE,
// fetchV, checkR and shareR never pass through the coordinator; only
// the control plane does.
//
// Per-query daemon state is still single-slot, so the coordinator
// serializes cluster queries: concurrent Run calls queue on an
// internal mutex (the resident service's admission queue sits in
// front of this anyway). The wire does carry the service's QueryID
// now, so workers attribute traces and journal events per query.
//
// Capabilities are narrower than the in-process engine's: embeddings
// are counted on the workers and never cross the wire, so streaming
// is not offered, and a dispatched superstep cannot be recalled, so
// cancellation is only honoured between queries.
type ClusterEngine struct {
	tr cluster.Transport
	m  int

	// health, when StartHealth has run, carries the per-worker breaker
	// tracker and heartbeat loop (see health.go). Nil means no health
	// gating — the pre-subsystem behavior.
	health *clusterHealth

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
// — called once at ingress startup so a booting cluster fails loudly
// instead of on the first query. When part is non-nil, every worker's
// partition fingerprint must match it: a worker booted from a
// different snapshot than the coordinator would otherwise serve
// silently inconsistent counts.
func (c *ClusterEngine) WaitReady(part *partition.Partition, deadline time.Duration) error {
	until := time.Now().Add(deadline)
	var wantHash uint64
	if part != nil {
		wantHash = PartitionFingerprint(part)
	}
	for t := 0; t < c.m; t++ {
		pr, err := Ping(c.tr, t, until)
		if err != nil {
			return err
		}
		if part == nil {
			continue
		}
		if pr.Vertices != part.G.NumVertices() || pr.PartitionHash != wantHash {
			return fmt.Errorf("rads: machine %d hosts a different partition (%d vertices, hash %x) than the coordinator (%d vertices, hash %x) — workers and ingress must load the same snapshot",
				t, pr.Vertices, pr.PartitionHash, part.G.NumVertices(), wantHash)
		}
	}
	return nil
}

// Run executes one query across the remote machines.
func (c *ClusterEngine) Run(ctx context.Context, req eng.Request) (eng.Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return eng.Result{}, err
	}
	// Fail fast on known-down workers: every machine participates in
	// every query, so one open breaker means the query cannot succeed.
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
		Pattern:      pattern.Format(req.Pattern),
		Plan:         pl,
		QueryID:      req.QueryID,
		Workers:      req.Workers,
		BudgetBytes:  req.Budget.Limit(),
		HugeFrontier: req.HugeFrontier,
	}

	execStart := time.Now()
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
				// Transport-level failure (timeout, refused, severed):
				// the worker itself is unreachable, not just the query
				// unlucky — surface it as the typed down error.
				if !errors.Is(err, cluster.ErrRemote) {
					errs[t] = &WorkerDownError{Machine: t, Cause: err}
					return
				}
				errs[t] = fmt.Errorf("rads: machine %d: %w", t, err)
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
	secs := time.Since(execStart).Seconds()
	// When a worker dies mid-query, its surviving peers often fail too
	// (their fetchV/verifyE calls to the dead machine error out, which
	// they report as remote errors). Prefer the root cause: a
	// WorkerDownError from any machine over a secondary remote error.
	for _, err := range errs {
		if err != nil && errors.Is(err, ErrWorkerDown) {
			return eng.Result{}, err
		}
	}
	for _, err := range errs {
		if err != nil {
			return eng.Result{}, err
		}
	}

	foldSp := trace.Start("fold", -1, -1)
	var res eng.Result
	res.Seconds = secs
	var sum Counters
	var steals int
	machines := make([]obs.MachineStat, 0, c.m)
	for t, r := range resps {
		sum.merge(&r.Counters)
		if r.OOM {
			res.OOM = true
		}
		// Fold the per-worker budget high-water marks into the result:
		// the workers' MemBudgets live in their own processes, so this
		// is the coordinator's only view of them.
		if r.PeakMemBytes > res.PeakMemBytes {
			res.PeakMemBytes = r.PeakMemBytes
		}
		req.Metrics.AccountRemote(t, r.CommBytes, r.CommMessages)
		// Stitch the worker's sub-phase spans into the coordinator
		// timeline, re-anchored at the execute dispatch offset and
		// re-attributed to machine t. A worker that shipped no spans
		// contributes no sub-phases.
		trace.AddRemoteSpans(t, execBase, r.Spans)
		st := r.Stat
		st.Machine = t
		machines = append(machines, st)
		steals += st.Stolen
	}
	foldSp.End()
	// Like the in-process engine, an out-of-budget run reports OOM and
	// no count — partial per-machine totals would be misleading.
	if !res.OOM {
		res.Total = sum.SME + sum.Distributed
		res.TreeNodes = sum.SMENodes + sum.DistNodes
	}
	res.FrontierSplits = sum.FrontierSplits
	prof := trace.Snapshot(time.Since(start))
	// Stitched spans arrive per machine in fold order; re-sort into one
	// cross-machine timeline.
	obs.SortSpans(prof.Spans)
	prof.Steals = steals
	prof.Machines = machines
	prof.Kernels = sum.Kernels.Map()
	res.Profile = prof
	return res, nil
}
