package snapshot_test

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"rads/internal/dataset"
	"rads/internal/gen"
	"rads/internal/graph"
	"rads/internal/partition"
	"rads/internal/snapshot"
)

func testPartition(t *testing.T) *partition.Partition {
	t.Helper()
	g := gen.Community(4, 18, 0.3, 41)
	return partition.KWay(g, 3, 7)
}

// openShard opens machine id's shard the way a worker hosting only
// that machine does.
func openShard(dir string, id int, datasetDirs ...string) (*partition.Partition, snapshot.Manifest, error) {
	parts, man, err := snapshot.OpenShards(dir, []int{id}, datasetDirs...)
	if err != nil {
		return nil, man, err
	}
	return parts[0], man, nil
}

// sameAdjacency fails t unless a and b store the same rows.
func sameAdjacency(t *testing.T, a, b *graph.Graph) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("graph %d/%d, want %d/%d", b.NumVertices(), b.NumEdges(), a.NumVertices(), a.NumEdges())
	}
	for v := 0; v < a.NumVertices(); v++ {
		if !slices.Equal(a.Adj(graph.VertexID(v)), b.Adj(graph.VertexID(v))) {
			t.Fatalf("adj(%d) = %v, want %v", v, b.Adj(graph.VertexID(v)), a.Adj(graph.VertexID(v)))
		}
	}
}

// TestShardRoundTrip writes a snapshot and checks each shard restores
// the machine's exact local knowledge: the graph, the ownership vector
// and, derived from them, the border distances.
func TestShardRoundTrip(t *testing.T) {
	part := testPartition(t)
	dir := t.TempDir()
	if err := snapshot.Write(dir, part, "test", nil); err != nil {
		t.Fatal(err)
	}
	if !snapshot.Exists(dir) {
		t.Fatal("Exists = false after Write")
	}
	for id := 0; id < part.M; id++ {
		shard, man, err := openShard(dir, id)
		if err != nil {
			t.Fatalf("shard %d: %v", id, err)
		}
		if man.Machines != part.M || man.Vertices != part.G.NumVertices() || man.Edges != part.G.NumEdges() {
			t.Fatalf("manifest %+v does not match source", man)
		}
		if shard.M != part.M || !slices.Equal(shard.Owner, part.Owner) {
			t.Fatalf("shard %d: M=%d, owner vector differs", id, shard.M)
		}
		sameAdjacency(t, part.G, shard.G)
		if !slices.Equal(shard.BD, part.BD) {
			t.Fatalf("shard %d: border distances %v, want %v", id, shard.BD, part.BD)
		}
	}
}

// TestOpenShardsRebuildsFullGraph checks the coordinator warm path:
// every machine opened at once reproduces the original graph and
// partition and its border distances.
func TestOpenShardsRebuildsFullGraph(t *testing.T) {
	part := testPartition(t)
	dir := t.TempDir()
	if err := snapshot.Write(dir, part, "test", nil); err != nil {
		t.Fatal(err)
	}
	parts, _, err := snapshot.OpenShards(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != part.M {
		t.Fatalf("opened %d machines, want %d", len(parts), part.M)
	}
	got := parts[0]
	sameAdjacency(t, part.G, got.G)
	if got.EdgeCut() != part.EdgeCut() {
		t.Fatalf("edge cut %d, want %d", got.EdgeCut(), part.EdgeCut())
	}
	if !slices.Equal(got.BD, part.BD) {
		t.Fatal("border distances differ")
	}
}

// TestVersionMismatchRejected: a future (or past) format version is
// refused with ErrVersion, in the manifest and in a shard.
func TestVersionMismatchRejected(t *testing.T) {
	part := testPartition(t)
	dir := t.TempDir()
	if err := snapshot.Write(dir, part, "test", nil); err != nil {
		t.Fatal(err)
	}
	// Corrupt the manifest version.
	manPath := filepath.Join(dir, "manifest.json")
	b, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	var man map[string]any
	if err := json.Unmarshal(b, &man); err != nil {
		t.Fatal(err)
	}
	man["version"] = snapshot.Version + 1
	b2, _ := json.Marshal(man)
	if err := os.WriteFile(manPath, b2, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := snapshot.OpenShards(dir, nil); !errors.Is(err, snapshot.ErrVersion) {
		t.Fatalf("OpenShards err = %v, want ErrVersion", err)
	}
	if _, _, err := openShard(dir, 0); !errors.Is(err, snapshot.ErrVersion) {
		t.Fatalf("one shard: err = %v, want ErrVersion", err)
	}

	// A shard of another version behind a current manifest.
	if err := snapshot.Write(dir, part, "test", nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "shard-001.snap")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(raw[8:], snapshot.Version-1)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openShard(dir, 1); !errors.Is(err, snapshot.ErrVersion) {
		t.Fatalf("old shard: err = %v, want ErrVersion", err)
	}
}

// TestTruncatedShardRejected: a shard cut off mid-stream errors out
// rather than yielding a silently smaller graph.
func TestTruncatedShardRejected(t *testing.T) {
	part := testPartition(t)
	dir := t.TempDir()
	if err := snapshot.Write(dir, part, "test", nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "shard-000.snap")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, keep := range []int{len(b) / 2, 8, 0} {
		if err := os.WriteFile(path, b[:keep], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := openShard(dir, 0); err == nil {
			t.Fatalf("a shard truncated to %d bytes opened", keep)
		}
		if _, _, err := snapshot.OpenShards(dir, nil); err == nil {
			t.Fatalf("OpenShards accepted a shard truncated to %d bytes", keep)
		}
	}
}

// TestLabelsRoundTrip: labels written with a snapshot come back from
// ReadLabels; a snapshot written without labels (or rewritten without
// them) reads nil, and so does a directory that never had any. The
// graph file records the truth about its numbering.
func TestLabelsRoundTrip(t *testing.T) {
	g, labels := graph.HubFirst(gen.PowerLaw(120, 4, 2.5, 30, 9))
	part := partition.KWay(g, 3, 7)
	dir := t.TempDir()
	if err := snapshot.Write(dir, part, "test", labels); err != nil {
		t.Fatal(err)
	}
	got, err := snapshot.ReadLabels(dir)
	if err != nil || !slices.Equal(got, labels) {
		t.Fatalf("ReadLabels = %d labels, err %v; want the %d written", len(got), err, len(labels))
	}
	man, err := snapshot.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, hubFirst, err := dataset.OpenFile(filepath.Join(dir, man.Dataset.Path)); err != nil || !hubFirst || !man.Dataset.DegreeOrdered {
		t.Errorf("hub-first graph: file flag %v, manifest %v, err %v; want both true", hubFirst, man.Dataset.DegreeOrdered, err)
	}

	if err := snapshot.Write(dir, part, "test", labels[1:]); err == nil {
		t.Error("Write accepted fewer labels than vertices")
	}
	plain := testPartition(t)
	if plain.G.IsHubFirst() {
		t.Fatal("test partition's graph is already hub-first")
	}
	if err := snapshot.Write(dir, plain, "test", nil); err != nil {
		t.Fatal(err)
	}
	if got, err := snapshot.ReadLabels(dir); err != nil || got != nil {
		t.Errorf("rewritten without labels: ReadLabels = %v, %v; want nil, nil", got, err)
	}
	if man, err = snapshot.ReadManifest(dir); err != nil {
		t.Fatal(err)
	}
	if _, hubFirst, err := dataset.OpenFile(filepath.Join(dir, man.Dataset.Path)); err != nil || hubFirst || man.Dataset.DegreeOrdered {
		t.Errorf("first-seen graph: file flag %v, manifest %v, err %v; want both false", hubFirst, man.Dataset.DegreeOrdered, err)
	}
}

// TestCorruptLabelsRejected: a labels file that is cut short, bit
// flipped or sized for another graph fails ReadLabels.
func TestCorruptLabelsRejected(t *testing.T) {
	g, labels := graph.HubFirst(gen.PowerLaw(120, 4, 2.5, 30, 9))
	dir := t.TempDir()
	if err := snapshot.Write(dir, partition.KWay(g, 3, 7), "test", labels); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "labels.snap")
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := slices.Clone(valid)
	flipped[20] ^= 0x04
	// A well-formed file for a graph one vertex smaller.
	other := t.TempDir()
	small, smallLabels := graph.HubFirst(gen.PowerLaw(119, 4, 2.5, 30, 9))
	if err := snapshot.Write(other, partition.KWay(small, 3, 7), "test", smallLabels); err != nil {
		t.Fatal(err)
	}
	smaller, err := os.ReadFile(filepath.Join(other, "labels.snap"))
	if err != nil {
		t.Fatal(err)
	}
	for name, raw := range map[string][]byte{"truncated": valid[:len(valid)/2], "flipped": flipped, "other graph": smaller} {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := snapshot.ReadLabels(dir); err == nil {
			t.Errorf("%s labels file accepted", name)
		}
	}
}
