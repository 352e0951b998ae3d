package rads

import (
	"context"
	"errors"
	"fmt"
	"time"

	"rads/internal/cluster"
	eng "rads/internal/engine"
	"rads/internal/obs"
	"rads/internal/partition"
	"rads/internal/pattern"
	"rads/internal/plan"
)

// PlanArtifact is RADS's prepared artifact: a Section 4 execution plan
// for one exact labeled pattern. Plans are *not* isomorphism-invariant
// — the matching order names concrete query-vertex IDs — so the
// artifact scope is per-pattern, not per-canonical-form.
type PlanArtifact struct {
	Plan *plan.Plan
}

// SizeBytes is a structural estimate of the plan's resident footprint.
func (a PlanArtifact) SizeBytes() int64 {
	pl := a.Plan
	if pl == nil {
		return 0
	}
	n := int64(len(pl.Order)+len(pl.Pos)+len(pl.PrefixLen)) * 8
	for i := range pl.Units {
		n += int64(1+len(pl.Units[i].LF)) * 8
		n += int64(len(pl.Star[i])+len(pl.Sib[i])+len(pl.Cross[i])) * 16
	}
	return n
}

// tracedPlan computes p's execution plan under a "plan" span (a nil
// trace records nothing) — the one planning body behind Run, every
// RADS engine's Prepare, and runs that arrive without an artifact.
func tracedPlan(trace *obs.Trace, p *pattern.Pattern) (*plan.Plan, error) {
	sp := trace.Start("plan", -1, -1)
	defer sp.End()
	pl, err := plan.Compute(p)
	if err != nil {
		return nil, fmt.Errorf("rads: planning %s: %w", p.Name, err)
	}
	return pl, nil
}

// preparePlan is the Prepare of every RADS engine.Engine: the plan is
// a function of the pattern alone, valid in-process and on the wire.
func preparePlan(p *pattern.Pattern) (eng.Artifact, error) {
	pl, err := tracedPlan(nil, p)
	if err != nil {
		return nil, err
	}
	return PlanArtifact{Plan: pl}, nil
}

// beginRun opens a RADS engine.Engine run: it validates req against
// e's capabilities, resolves the trace (RADS runs always return a
// Profile, whether or not the caller supplied a trace to share) and
// the plan — the request's prepared artifact, or a fresh one traced as
// "plan". Callers start their wall clock before calling it, so
// Profile.WallSeconds covers planning and the top-level phases
// (plan + execute + fold) never sum past it.
func beginRun(e eng.Engine, req eng.Request) (*obs.Trace, *plan.Plan, error) {
	if err := eng.ValidateRequest(e, req); err != nil {
		return nil, nil, err
	}
	trace := req.Trace
	if trace == nil {
		trace = obs.NewTrace()
	}
	if req.Artifact == nil {
		pl, err := tracedPlan(trace, req.Pattern)
		return trace, pl, err
	}
	pa, ok := req.Artifact.(PlanArtifact)
	if !ok {
		return nil, nil, fmt.Errorf("%w: engine RADS cannot use artifact %T", eng.ErrUnsupported, req.Artifact)
	}
	return trace, pa.Plan, nil
}

// apiEngine adapts Run onto the uniform engine API. RADS is the one
// native implementation: streaming, cancellable, with prepared plans.
type apiEngine struct{}

func (apiEngine) Name() string { return "RADS" }

func (apiEngine) Capabilities() eng.Capabilities {
	return eng.Capabilities{
		Streaming:     true,
		Cancellation:  true,
		ArtifactScope: eng.ArtifactPerPattern,
	}
}

func (apiEngine) Prepare(_ *partition.Partition, p *pattern.Pattern) (eng.Artifact, error) {
	return preparePlan(p)
}

func (e apiEngine) Run(ctx context.Context, req eng.Request) (eng.Result, error) {
	start := time.Now()
	trace, pl, err := beginRun(e, req)
	if err != nil {
		return eng.Result{}, err
	}
	res, err := Run(req.Part, req.Pattern, Config{
		Context:     ctx,
		Plan:        pl,
		Metrics:     req.Metrics,
		Budget:      req.Budget,
		OnEmbedding: req.OnEmbedding,
		Workers:     req.Workers,
		Transport:   req.Transport,
		Trace:       trace,
	})
	return engineResult(trace, start, res, err)
}

// engineResult is the one step from a folded RADS run to the engine
// API, shared by the in-process engine and ClusterEngine: the counts,
// peak and splits of res, and a Profile of the trace — its spans in one
// start-ordered timeline (a cluster's arrive stitched per machine) —
// plus the per-machine rows, steals and kernel tallies. An
// out-of-budget run is an outcome, Result.OOM, with no count: partial
// per-machine totals would mislead.
func engineResult(trace *obs.Trace, start time.Time, res *Result, err error) (eng.Result, error) {
	oom := errors.Is(err, cluster.ErrOutOfMemory)
	if err != nil && !oom {
		return eng.Result{}, err
	}
	elapsed := time.Since(start)
	prof := trace.Snapshot(elapsed)
	obs.SortSpans(prof.Spans)
	prof.Steals = res.StolenGroups
	prof.Machines = res.Machines
	prof.Kernels = res.Kernels.Map()
	out := eng.Result{Seconds: elapsed.Seconds(), OOM: oom, PeakMemBytes: res.PeakMemBytes, Profile: prof}
	if !oom {
		out.Total, out.TreeNodes = res.Total, res.TreeNodes
	}
	return out, nil
}

func init() { eng.Register(apiEngine{}) }
