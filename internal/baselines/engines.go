// Package baselines wires the paper's five shuffle-and-cache
// comparison engines (PSgL, TwinTwig, SEED, Crystal, BigJoin) onto the
// uniform engine API through one shared adapter over the superstep
// substrate in baselines/common. Importing this package (normally via
// rads/internal/engine/all) registers all five.
//
// Every baseline is cancellable: the common runtime checks the run
// context at each superstep barrier. None of them stream embeddings —
// their dataflows materialize counts, which is faithful to the systems
// the paper measured. Crystal additionally prepares its clique index
// as a per-canonical-form artifact, mirroring the original's offline
// index files (Table 2).
package baselines

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"

	"rads/internal/baselines/bigjoin"
	"rads/internal/baselines/common"
	"rads/internal/baselines/crystal"
	"rads/internal/baselines/psgl"
	"rads/internal/baselines/seed"
	"rads/internal/baselines/twintwig"
	"rads/internal/cluster"
	"rads/internal/engine"
	"rads/internal/graph"
	"rads/internal/partition"
	"rads/internal/pattern"
)

// runFunc is the shared baseline entry-point shape.
type runFunc func(part *partition.Partition, p *pattern.Pattern, cfg common.Config) (*common.Result, error)

// baselineEngine adapts one runFunc onto engine.Engine, normalizing
// out-of-memory failures into Result.OOM the way the paper plots them
// (a missing bar, not an error).
type baselineEngine struct {
	name    string
	caps    engine.Capabilities
	run     func(req engine.Request, cfg common.Config) (*common.Result, error)
	prepare func(part *partition.Partition, p *pattern.Pattern) (engine.Artifact, error)
}

func (b *baselineEngine) Name() string                      { return b.name }
func (b *baselineEngine) Capabilities() engine.Capabilities { return b.caps }

func (b *baselineEngine) Prepare(part *partition.Partition, p *pattern.Pattern) (engine.Artifact, error) {
	if b.prepare == nil {
		return nil, nil
	}
	return b.prepare(part, p)
}

func (b *baselineEngine) Run(ctx context.Context, req engine.Request) (engine.Result, error) {
	if err := engine.ValidateRequest(b, req); err != nil {
		return engine.Result{}, err
	}
	cfg := common.Config{Context: ctx, Metrics: req.Metrics, Budget: req.Budget, Transport: req.Transport}
	res, err := b.run(req, cfg)
	if err != nil {
		if errors.Is(err, cluster.ErrOutOfMemory) {
			return engine.Result{OOM: true, PeakMemBytes: req.Budget.MaxPeak()}, nil
		}
		return engine.Result{}, err
	}
	return engine.Result{Total: res.Total, Seconds: res.ElapsedSeconds, PeakMemBytes: res.PeakMemBytes}, nil
}

// adapt lifts a plain runFunc (no artifact support) into the adapter's
// run shape.
func adapt(run runFunc) func(engine.Request, common.Config) (*common.Result, error) {
	return func(req engine.Request, cfg common.Config) (*common.Result, error) {
		return run(req.Part, req.Pattern, cfg)
	}
}

// indexArtifact wraps Crystal's precomputed clique index.
type indexArtifact struct {
	idx *crystal.Index
}

func (a indexArtifact) SizeBytes() int64 { return a.idx.Bytes() }

// indexWire is the Crystal index as a snapshot stores it: the cliques
// of size s at BySize[s]. It is a slice, not the index's map, because
// gob sizes a decoded map by the count the bytes claim, before a single
// entry has arrived, and a decoded slice only as its entries arrive.
// No field shares a name with crystal.Index, so an index stored the
// old way is refused instead of decoding as an empty one.
type indexWire struct {
	Largest int
	BySize  [][][]graph.VertexID
}

// GobEncode/GobDecode make the artifact snapshot-codable.
func (a indexArtifact) GobEncode() ([]byte, error) {
	w := indexWire{Largest: a.idx.MaxSize}
	for size, cs := range a.idx.Cliques {
		for len(w.BySize) <= size {
			w.BySize = append(w.BySize, nil)
		}
		w.BySize[size] = cs
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (a *indexArtifact) GobDecode(b []byte) error {
	var w indexWire
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w); err != nil {
		return err
	}
	if w.Largest < 0 || len(w.BySize) > w.Largest+1 {
		return fmt.Errorf("crystal index: cliques of size %d in an index of at most %d", len(w.BySize)-1, w.Largest)
	}
	a.idx = &crystal.Index{MaxSize: w.Largest, Cliques: make(map[int][][]graph.VertexID)}
	for size, cs := range w.BySize {
		for _, c := range cs {
			if len(c) != size {
				return fmt.Errorf("crystal index: a %d-vertex clique listed among size %d", len(c), size)
			}
		}
		if len(cs) > 0 {
			a.idx.Cliques[size] = cs
		}
	}
	return nil
}

func crystalPrepare(part *partition.Partition, p *pattern.Pattern) (engine.Artifact, error) {
	return indexArtifact{idx: crystal.BuildIndex(part.G, crystal.IndexSizeFor(p))}, nil
}

func crystalRun(req engine.Request, cfg common.Config) (*common.Result, error) {
	ccfg := crystal.Config{Config: cfg}
	if req.Artifact != nil {
		ia, ok := req.Artifact.(indexArtifact)
		if !ok {
			return nil, fmt.Errorf("%w: engine Crystal cannot use artifact %T", engine.ErrUnsupported, req.Artifact)
		}
		ccfg.Index = ia.idx
	}
	return crystal.Run(req.Part, req.Pattern, ccfg)
}

// crystalEngine narrows the artifact cache key below the canonical
// scope: the index depends only on the required clique depth, so every
// pattern needing cliques up to the same size shares one index (the
// original's single on-disk index serves all queries the same way).
type crystalEngine struct {
	baselineEngine
}

func (crystalEngine) ArtifactKey(p *pattern.Pattern) string {
	return fmt.Sprintf("clique<=%d", crystal.IndexSizeFor(p))
}

func init() {
	gob.Register(indexArtifact{})
	cancellable := engine.Capabilities{Cancellation: true}
	engine.Register(&baselineEngine{name: "PSgL", caps: cancellable, run: adapt(psgl.Run)})
	engine.Register(&baselineEngine{name: "TwinTwig", caps: cancellable, run: adapt(twintwig.Run)})
	engine.Register(&baselineEngine{name: "SEED", caps: cancellable, run: adapt(seed.Run)})
	engine.Register(&baselineEngine{name: "BigJoin", caps: cancellable, run: adapt(bigjoin.Run)})
	engine.Register(&crystalEngine{baselineEngine{
		name:    "Crystal",
		caps:    engine.Capabilities{Cancellation: true, ArtifactScope: engine.ArtifactPerCanonical},
		run:     crystalRun,
		prepare: crystalPrepare,
	}})
}
