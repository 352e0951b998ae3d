package rads

import (
	"context"
	"errors"

	eng "rads/internal/engine"
	"rads/internal/partition"
	"rads/internal/pattern"
)

// FallbackEngine is degraded-mode serving for cluster deployments: it
// routes RADS queries to the remote ClusterEngine while the cluster is
// healthy and to the in-process engine while it is not, flipping back
// automatically when heartbeats recover. Correctness is unaffected —
// both legs enumerate the same partition and a failed remote dispatch
// discards all partial counts — only capacity changes: the local leg
// runs on the coordinator's one machine.
//
// radserve builds one when started with -cluster-fallback.
type FallbackEngine struct {
	Cluster *ClusterEngine
	// Local is the in-process RADS engine (engine.Lookup("RADS")). It
	// accepts the same PlanArtifact the cluster leg prepares.
	Local eng.Engine
}

// Name reports "RADS" — the fallback is a routing detail, not a
// distinct engine.
func (f *FallbackEngine) Name() string { return "RADS" }

// Capabilities are the cluster leg's (the narrower set): advertising
// streaming or cancellation only while degraded would make the API
// surface flap with worker health.
func (f *FallbackEngine) Capabilities() eng.Capabilities { return f.Cluster.Capabilities() }

// Prepare computes the plan once; PlanArtifact is valid on both legs.
func (f *FallbackEngine) Prepare(_ *partition.Partition, p *pattern.Pattern) (eng.Artifact, error) {
	return preparePlan(p)
}

// Run routes to the healthy leg. A dispatch that discovers a down
// worker mid-query (breaker not yet open) also falls through to the
// local leg rather than failing the query.
func (f *FallbackEngine) Run(ctx context.Context, req eng.Request) (eng.Result, error) {
	if f.Cluster.Healthy() {
		res, err := f.Cluster.Run(ctx, req)
		if err == nil || !errors.Is(err, ErrWorkerDown) {
			return res, err
		}
	}
	return f.Local.Run(ctx, req)
}

// FallbackActive reports whether queries are currently served locally.
func (f *FallbackEngine) FallbackActive() bool { return !f.Cluster.Healthy() }

// HealthReport decorates the cluster view with the degraded-mode flag.
func (f *FallbackEngine) HealthReport() ClusterHealth {
	r := f.Cluster.HealthReport()
	r.FallbackActive = !r.Healthy
	return r
}
