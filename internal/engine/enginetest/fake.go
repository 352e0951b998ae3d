// Package enginetest holds the engine.Engine fake shared by the tests
// of the dispatch layers (internal/service, cmd/radserve).
package enginetest

import (
	"context"

	"rads/internal/engine"
	"rads/internal/partition"
	"rads/internal/pattern"
)

// Func adapts a run function into an engine.Engine with no
// capabilities: no streaming, no cancellation, no prepared artifacts.
type Func struct {
	EngineName string
	RunFunc    func(ctx context.Context, req engine.Request) (engine.Result, error)
}

func (f Func) Name() string                      { return f.EngineName }
func (f Func) Capabilities() engine.Capabilities { return engine.Capabilities{} }
func (f Func) Prepare(*partition.Partition, *pattern.Pattern) (engine.Artifact, error) {
	return nil, nil
}
func (f Func) Run(ctx context.Context, req engine.Request) (engine.Result, error) {
	return f.RunFunc(ctx, req)
}
