// Package dataset is the real-graph backend of the repository: it takes
// raw edge-list files (the SNAP format the paper's LiveJournal, Orkut
// and UK-2002 datasets ship in) end-to-end into the serving stack.
//
// Three pieces:
//
//   - a streaming ingester (ingest.go) that relabels sparse 64-bit IDs
//     to dense uint32 ones and counting-sorts edges into CSR in two
//     passes over the file, never materializing an edge map;
//   - a compact binary on-disk format, .radsgraph (format.go): a
//     versioned little-endian header, the offsets array and the
//     neighbour array of a graph.Graph, loadable in one read with loud
//     version and truncation rejection;
//   - a Registry (registry.go) of per-dataset manifests (name, path,
//     checksum, stats) so radserve, radsworker and radsbench resolve
//     graphs by name instead of ad-hoc file flags.
//
// The store itself is graph.Graph, the one in-memory layout: what this
// package loads is what generators build.
package dataset

import "rads/internal/graph"

// CSR names graph.Graph for the frozen benchmark module, its one
// reader; product code says *graph.Graph. The alias goes when that
// module is next changed.
type CSR = graph.Graph
