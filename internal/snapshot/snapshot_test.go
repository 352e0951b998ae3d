package snapshot_test

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"rads/internal/dataset"
	"rads/internal/engine"
	_ "rads/internal/engine/all" // register engines (and their artifact gob types)
	"rads/internal/gen"
	"rads/internal/graph"
	"rads/internal/partition"
	"rads/internal/pattern"
	"rads/internal/rads"
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

// TestArtifactRoundTrip persists prepared artifacts of two engines
// with genuinely different concrete types (RADS plan, Crystal clique
// index) and restores them through the generic codec.
func TestArtifactRoundTrip(t *testing.T) {
	part := testPartition(t)
	q := pattern.Triangle()
	entries := map[string]engine.Artifact{}
	for _, name := range []string{"RADS", "Crystal"} {
		e, ok := engine.Lookup(name)
		if !ok {
			t.Fatalf("engine %s not registered", name)
		}
		art, err := e.Prepare(part, q)
		if err != nil {
			t.Fatal(err)
		}
		entries[name+"\x00test"] = art
	}
	dir := t.TempDir()
	if err := snapshot.WriteArtifacts(dir, entries); err != nil {
		t.Fatal(err)
	}
	got, err := snapshot.ReadArtifacts(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("restored %d artifacts, want %d", len(got), len(entries))
	}
	for key, want := range entries {
		art, ok := got[key]
		if !ok {
			t.Fatalf("artifact %q missing", key)
		}
		if art.SizeBytes() != want.SizeBytes() {
			t.Errorf("artifact %q: %d bytes, want %d", key, art.SizeBytes(), want.SizeBytes())
		}
	}
	// The restored plan must be usable, not just present.
	pa, ok := got["RADS\x00test"].(rads.PlanArtifact)
	if !ok {
		t.Fatalf("RADS artifact restored as %T", got["RADS\x00test"])
	}
	if pa.Plan == nil || len(pa.Plan.Order) != q.N() {
		t.Fatalf("restored plan malformed: %+v", pa.Plan)
	}
	// Seeding a cache with restored artifacts must make them visible.
	cache := engine.NewArtifactCache(0)
	for k, a := range got {
		cache.Seed(k, a)
	}
	if cache.Len() != len(got) || cache.SizeBytes() <= 0 {
		t.Fatalf("seeded cache: len=%d bytes=%d", cache.Len(), cache.SizeBytes())
	}
}

// TestReadArtifactsMissingFile: absence is an empty map, not an error.
func TestReadArtifactsMissingFile(t *testing.T) {
	got, err := snapshot.ReadArtifacts(t.TempDir())
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v; want empty, nil", got, err)
	}
}

// TestVersionMismatchRejected: a future (or past) format version is
// refused with ErrVersion, in the manifest, in a shard and in the
// artifact file, including the gob-headed artifact file of version 3.
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

	// An artifact file of another version: the current layout with the
	// version field changed, and version 3's, which opened with a gob
	// header and carried no checksum.
	radsEngine, _ := engine.Lookup("RADS")
	art, err := radsEngine.Prepare(part, pattern.ByName("q1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := snapshot.WriteArtifacts(dir, map[string]engine.Artifact{"k": art}); err != nil {
		t.Fatal(err)
	}
	raw, err = os.ReadFile(snapshot.ArtifactsPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(raw[8:], snapshot.Version+1)
	var v3 bytes.Buffer
	enc := gob.NewEncoder(&v3)
	enc.Encode(struct {
		Magic   string
		Version int
	}{"RADSARTS", 3})
	enc.Encode(1)
	enc.Encode(struct {
		Key string
		Art engine.Artifact
	}{"k", art})
	for name, b := range map[string][]byte{"next version": resealed(raw), "version 3": v3.Bytes()} {
		if err := os.WriteFile(snapshot.ArtifactsPath(dir), b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := snapshot.ReadArtifacts(dir); !errors.Is(err, snapshot.ErrVersion) {
			t.Errorf("%s artifact file: err = %v, want ErrVersion", name, err)
		}
	}
}

// resealed returns b with its CRC-32C trailer recomputed.
func resealed(b []byte) []byte {
	b = slices.Clone(b[:len(b)-4])
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)))
}

// TestArtifactBitFlipsRefused flips each bit of a q1 RADS plan dump in
// turn: the checksum must refuse every variant, so no flipped bit
// restores a different plan under the same key.
func TestArtifactBitFlipsRefused(t *testing.T) {
	radsEngine, _ := engine.Lookup("RADS")
	art, err := radsEngine.Prepare(testPartition(t), pattern.ByName("q1"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := snapshot.WriteArtifacts(dir, map[string]engine.Artifact{"RADS\x00q1": art}); err != nil {
		t.Fatal(err)
	}
	path := snapshot.ArtifactsPath(dir)
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	accepted := 0
	for i := range valid {
		for bit := 0; bit < 8; bit++ {
			b := slices.Clone(valid)
			b[i] ^= 1 << bit
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := snapshot.ReadArtifacts(dir); err == nil {
				accepted++
			}
		}
	}
	if accepted > 0 {
		t.Errorf("%d of %d single-bit flips of a %d-byte dump were accepted", accepted, 8*len(valid), len(valid))
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

// TestTruncatedArtifactsRejected mirrors the shard truncation check
// for the artifact file.
func TestTruncatedArtifactsRejected(t *testing.T) {
	part := testPartition(t)
	e, _ := engine.Lookup("RADS")
	art, err := e.Prepare(part, pattern.Triangle())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := snapshot.WriteArtifacts(dir, map[string]engine.Artifact{"k": art}); err != nil {
		t.Fatal(err)
	}
	path := snapshot.ArtifactsPath(dir)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := snapshot.ReadArtifacts(dir); err == nil {
		t.Fatal("ReadArtifacts accepted a truncated file")
	}
}

// TestArtifactsCountNotTrusted feeds ReadArtifacts a file that is only
// a valid header and an entry count — huge or negative, no entries. The
// count must not size an allocation: the huge one is the ordinary
// truncation error, the negative one is rejected outright.
func TestArtifactsCountNotTrusted(t *testing.T) {
	for _, tc := range []struct {
		count   int
		wantErr string
	}{
		{1 << 28, "truncated after 0 of 268435456 entries"},
		{-1, "corrupt count -1"},
	} {
		// The package's file layout: magic, version, the gob stream (here
		// only the count) and the checksum.
		var buf bytes.Buffer
		buf.WriteString("RADSARTS")
		buf.Write(binary.LittleEndian.AppendUint32(nil, snapshot.Version))
		if err := gob.NewEncoder(&buf).Encode(tc.count); err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := os.WriteFile(snapshot.ArtifactsPath(dir), resealed(append(buf.Bytes(), 0, 0, 0, 0)), 0o644); err != nil {
			t.Fatal(err)
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := snapshot.ReadArtifacts(dir)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("count %d: err = %v, want one containing %q", tc.count, err, tc.wantErr)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("count %d: ReadArtifacts allocated %d bytes on a file with no entries", tc.count, grew)
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
