// Package snapshot is the warm-start codec of the resident service: it
// persists a partitioned data graph — the graph itself as a .radsgraph
// file referenced by checksum, and one shard file per machine carrying
// the full ownership vector and the machine's memoized border
// distances — plus the prepared-artifact cache, so a restarted radserve
// (or a freshly booted radsworker) loads its state from disk instead of
// re-partitioning and re-deriving it.
//
// Layout of a snapshot directory:
//
//	manifest.json    global metadata (version, machine count, graph stats,
//	                 the graph's dataset manifest: path and checksum)
//	graph.radsgraph  the graph, unless it is a registered dataset
//	                 referenced from elsewhere
//	labels.snap      optional: each vertex's ID in the graph's source
//	                 (labels.go)
//	shard-000.snap   machine 0: owner vector, border distances
//	shard-001.snap   ...
//	artifacts.snap   optional: serialized engine.ArtifactCache entries
//
// A shard is a fixed-width little-endian body guarded the way a
// .radsgraph is:
//
//	magic     [8]byte  "RADSSHRD"
//	version   uint32   Version
//	id        uint32   the machine
//	machines  uint32
//	n         uint32   vertices
//	owner     n × int32
//	bd        k × int32  the machine's border distances (Definition 1),
//	                     one per owned vertex in ascending vertex order
//	                     (k = the number of owner entries equal to id)
//	crc       uint32   CRC-32C of every preceding byte
//
// The format is versioned: a reader confronted with a different version
// refuses loudly (ErrVersion) instead of misinterpreting bytes, every
// length is checked against the bytes that remain before anything is
// allocated, and truncated or bit-flipped files surface as errors,
// never as silently smaller partitions.
package snapshot

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"rads/internal/dataset"
	"rads/internal/graph"
	"rads/internal/partition"
)

// Version is the on-disk format version this binary reads and writes.
// Version 3 made every snapshot reference its graph by checksum and
// replaced the gob shard stream with the fixed-width body above.
const Version = 3

const (
	shardMagic    = "RADSSHRD"
	shardHeader   = 8 + 4 + 4 + 4 + 4
	manifestName  = "manifest.json"
	artifactsName = "artifacts.snap"
	graphName     = "graph.radsgraph"
)

// ErrVersion marks a snapshot written by an incompatible format
// version. Callers test with errors.Is and re-partition from source.
var ErrVersion = errors.New("snapshot: format version mismatch")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Manifest is the global metadata of a snapshot directory.
type Manifest struct {
	Version   int     `json:"version"`
	Machines  int     `json:"machines"`
	Vertices  int     `json:"vertices"`
	Edges     int64   `json:"edges"`
	AvgDegree float64 `json:"avg_degree"`
	Source    string  `json:"source,omitempty"`
	Created   string  `json:"created,omitempty"`

	// Dataset identifies the .radsgraph file the partition was built
	// over: graph.radsgraph inside the snapshot directory, or a
	// registered dataset elsewhere. Every open loads it, verified
	// against the recorded checksum.
	Dataset *dataset.Manifest `json:"dataset,omitempty"`
}

// shard is one machine's decoded shard file.
type shard struct {
	ID, M int
	Owner []int32 // full ownership vector (every machine needs it)

	// BorderDist is machine ID's memoized border-distance map
	// (Definition 1), persisted so a worker never re-runs the BFS. It
	// has exactly one entry per owned vertex.
	BorderDist map[graph.VertexID]int32
}

// Exists reports whether dir holds a snapshot (a manifest).
func Exists(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, manifestName))
	return err == nil
}

// Write persists part into dir (created if needed): the graph as
// graph.radsgraph, labels (nil, or each vertex's ID in the graph's
// source) as labels.snap, one shard file per machine, then the
// manifest, which references the graph by checksum exactly as
// WriteDataset references a registered dataset. The manifest is the
// commit point — written last, via rename — so an interrupted Write
// leaves a directory that Exists() reports false (or keeps its
// previous, complete manifest) instead of a half-written snapshot that
// mixes new and stale files. Border distances are computed here if the
// partition has not memoized them yet — paying the BFS at snapshot
// time is the point.
func Write(dir string, part *partition.Partition, source string, labels []graph.VertexID) error {
	if labels != nil && len(labels) != part.G.NumVertices() {
		return fmt.Errorf("snapshot: %d labels for %d vertices", len(labels), part.G.NumVertices())
	}
	return write(dir, part, source, nil, labels)
}

// WriteDataset persists a partition whose graph came from a registered
// .radsgraph dataset: the manifest references that file by checksum
// instead of copying it, so the snapshot stays O(n) on disk however
// large the graph is and every reader is guaranteed to enumerate over
// the exact bytes the coordinator partitioned. The caller resolves
// ds.Path first (absolute, or relative to dir): workers on the same
// host open it directly, workers elsewhere search their own
// -dataset-dir by file name and rely on the checksum for identity.
func WriteDataset(dir string, part *partition.Partition, source string, ds dataset.Manifest) error {
	return write(dir, part, source, &ds, nil)
}

func write(dir string, part *partition.Partition, source string, ds *dataset.Manifest, labels []graph.VertexID) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	// Invalidate any previous manifest first: the files about to be
	// overwritten no longer match it. The artifact dump goes with it —
	// prepared artifacts are bound to the partition being replaced, and
	// seeding them against a different graph would silently corrupt
	// query results. So do the labels of the graph being replaced.
	for _, name := range []string{manifestName, artifactsName, labelsName} {
		if err := os.Remove(filepath.Join(dir, name)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("snapshot: %w", err)
		}
	}
	if ds == nil {
		path := filepath.Join(dir, graphName)
		hubFirst := part.G.IsHubFirst()
		if err := dataset.WriteFile(path, part.G, hubFirst); err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		m, err := dataset.NewManifest("graph", path, part.G, dataset.Stats{DegreeOrd: hubFirst}, source)
		if err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		ds = &m
	}
	if labels != nil {
		if err := os.WriteFile(filepath.Join(dir, labelsName), encodeLabels(labels), 0o644); err != nil {
			return fmt.Errorf("snapshot: labels: %w", err)
		}
	}
	for t := 0; t < part.M; t++ {
		s := shard{ID: t, M: part.M, Owner: part.Owner, BorderDist: part.BorderDistances(t)}
		if err := os.WriteFile(shardPath(dir, t), encodeShard(&s), 0o644); err != nil {
			return fmt.Errorf("snapshot: shard %d: %w", t, err)
		}
	}
	man := Manifest{
		Version:   Version,
		Machines:  part.M,
		Vertices:  part.G.NumVertices(),
		Edges:     part.G.NumEdges(),
		AvgDegree: part.G.AvgDegree(),
		Source:    source,
		Created:   time.Now().UTC().Format(time.RFC3339),
		Dataset:   ds,
	}
	b, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	return nil
}

func shardPath(dir string, t int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d.snap", t))
}

// encodeShard renders s in the shard format of the package comment.
func encodeShard(s *shard) []byte {
	n := len(s.Owner)
	buf := make([]byte, shardHeader, shardHeader+4*(n+len(s.BorderDist))+4)
	copy(buf, shardMagic)
	le := binary.LittleEndian
	le.PutUint32(buf[8:], Version)
	le.PutUint32(buf[12:], uint32(s.ID))
	le.PutUint32(buf[16:], uint32(s.M))
	le.PutUint32(buf[20:], uint32(n))
	for _, o := range s.Owner {
		buf = le.AppendUint32(buf, uint32(o))
	}
	for v, o := range s.Owner {
		if int(o) == s.ID {
			buf = le.AppendUint32(buf, uint32(s.BorderDist[graph.VertexID(v)]))
		}
	}
	return le.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// decodeShard parses a whole shard file. Whatever it accepts,
// encodeShard renders back to the same bytes.
func decodeShard(raw []byte) (*shard, error) {
	le := binary.LittleEndian
	if len(raw) < shardHeader+4 {
		return nil, fmt.Errorf("truncated: %d bytes is smaller than any valid shard", len(raw))
	}
	if string(raw[:8]) != shardMagic {
		return nil, fmt.Errorf("not a rads shard file (magic %q)", raw[:8])
	}
	if v := le.Uint32(raw[8:]); v != Version {
		return nil, fmt.Errorf("%w: shard has version %d, this binary reads %d", ErrVersion, v, Version)
	}
	id, m, n := le.Uint32(raw[12:]), le.Uint32(raw[16:]), le.Uint32(raw[20:])
	if id >= m || m > math.MaxInt32 {
		return nil, fmt.Errorf("machine %d outside a fleet of %d", id, m)
	}
	body := raw[shardHeader : len(raw)-4]
	if int64(n) > int64(len(body))/4 {
		return nil, fmt.Errorf("header claims %d vertices, impossible for a %d-byte shard", n, len(raw))
	}
	owners, rest := body[:4*int(n)], body[4*int(n):]
	var k int
	for i := 0; i < len(owners); i += 4 {
		if le.Uint32(owners[i:]) == id {
			k++
		}
	}
	if len(rest) != 4*k {
		return nil, fmt.Errorf("truncated or oversized: %d owned vertices imply %d bytes of border distances, shard has %d",
			k, 4*k, len(rest))
	}
	if got, want := crc32.Checksum(raw[:len(raw)-4], castagnoli), le.Uint32(raw[len(raw)-4:]); got != want {
		return nil, fmt.Errorf("checksum mismatch: shard carries %08x, content hashes to %08x", want, got)
	}
	s := &shard{ID: int(id), M: int(m), Owner: make([]int32, n), BorderDist: make(map[graph.VertexID]int32, k)}
	for v := range s.Owner {
		o := le.Uint32(owners[4*v:])
		if o >= m {
			return nil, fmt.Errorf("vertex %d has owner %d outside [0,%d)", v, o, m)
		}
		s.Owner[v] = int32(o)
		if o == id {
			d := int32(le.Uint32(rest))
			if d < 0 {
				return nil, fmt.Errorf("vertex %d has border distance %d", v, d)
			}
			s.BorderDist[graph.VertexID(v)] = d
			rest = rest[4:]
		}
	}
	return s, nil
}

// ReadManifest loads and version-checks dir's manifest.
func ReadManifest(dir string) (Manifest, error) {
	var man Manifest
	b, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return man, fmt.Errorf("snapshot: %w", err)
	}
	if err := json.Unmarshal(b, &man); err != nil {
		return man, fmt.Errorf("snapshot: bad manifest: %w", err)
	}
	if man.Version != Version {
		return man, fmt.Errorf("%w: manifest has version %d, this binary reads %d", ErrVersion, man.Version, Version)
	}
	if man.Machines < 1 {
		return man, fmt.Errorf("snapshot: manifest lists %d machines", man.Machines)
	}
	return man, nil
}

func readShard(dir string, t int) (*shard, error) {
	raw, err := os.ReadFile(shardPath(dir, t))
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	s, err := decodeShard(raw)
	if err != nil {
		return nil, fmt.Errorf("snapshot: shard %d: %w", t, err)
	}
	if s.ID != t {
		return nil, fmt.Errorf("snapshot: shard file %d carries machine %d", t, s.ID)
	}
	return s, nil
}

// openGraph resolves a snapshot's graph: the manifest-recorded path
// first (absolute or relative to the snapshot directory), then the
// file's base name under the snapshot directory and each extra search
// directory. Wherever the bytes are found, the recorded checksum must
// match — the graph's identity travels with the snapshot, not the path.
func openGraph(dir string, man Manifest, datasetDirs []string) (*graph.Graph, error) {
	ds := man.Dataset
	if ds == nil {
		return nil, errors.New("snapshot: the manifest records no graph")
	}
	candidates := []string{ds.Path}
	if !filepath.IsAbs(ds.Path) {
		candidates = []string{filepath.Join(dir, ds.Path)}
	}
	base := filepath.Base(ds.Path)
	candidates = append(candidates, filepath.Join(dir, base))
	for _, d := range datasetDirs {
		if d != "" {
			candidates = append(candidates, filepath.Join(d, base))
		}
	}
	var firstErr error
	for _, path := range candidates {
		if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
			continue
		}
		g, err := ds.OpenAt(path)
		if err == nil {
			return g, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return nil, fmt.Errorf("snapshot: dataset %q (%s) not found at %s — pass its directory via -dataset-dir or place the file next to the snapshot",
		ds.Name, ds.Checksum, strings.Join(candidates, ", "))
}

// OpenShards opens the shards of the machines in ids — every machine
// of the snapshot when ids is nil — over one shared Partition: the
// referenced graph is resolved, checksum-verified and loaded exactly
// once, and each requested machine's persisted border distances are
// installed, so the first query pays no BFS either. Hosting k machines
// costs one copy of the graph, not k. Sharing is safe — machines only
// read the partition, and the in-process engine already runs all its
// machines over one Partition. datasetDirs are extra directories
// searched for the .radsgraph file by name, for workers whose
// filesystem layout differs from the coordinator's.
func OpenShards(dir string, ids []int, datasetDirs ...string) ([]*partition.Partition, Manifest, error) {
	man, err := ReadManifest(dir)
	if err != nil {
		return nil, man, err
	}
	if ids == nil {
		for t := 0; t < man.Machines; t++ {
			ids = append(ids, t)
		}
	}
	g, err := openGraph(dir, man, datasetDirs)
	if err != nil {
		return nil, man, err
	}
	parts := make([]*partition.Partition, len(ids))
	var part *partition.Partition
	for i, id := range ids {
		s, err := readShard(dir, id)
		if err != nil {
			return nil, man, err
		}
		if s.M != man.Machines {
			return nil, man, fmt.Errorf("snapshot: shard %d says %d machines, manifest %d", id, s.M, man.Machines)
		}
		if part == nil {
			if part, err = partition.New(g, s.M, s.Owner); err != nil {
				return nil, man, fmt.Errorf("snapshot: shard %d: %w", id, err)
			}
		} else if !slices.Equal(s.Owner, part.Owner) {
			return nil, man, fmt.Errorf("snapshot: shard %d disagrees with shard %d on vertex ownership", id, ids[0])
		}
		part.InstallBorderDistances(id, s.BorderDist)
		parts[i] = part
	}
	return parts, man, nil
}
