package snapshot_test

import (
	"encoding/gob"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

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

// TestShardRoundTrip writes a snapshot and checks each shard restores
// the machine's exact local knowledge: owned vertices, complete owned
// adjacency, ownership vector and memoized border distances.
func TestShardRoundTrip(t *testing.T) {
	part := testPartition(t)
	dir := t.TempDir()
	if err := snapshot.Write(dir, part, "test"); err != nil {
		t.Fatal(err)
	}
	if !snapshot.Exists(dir) {
		t.Fatal("Exists = false after Write")
	}
	for id := 0; id < part.M; id++ {
		shard, man, err := snapshot.OpenShard(dir, id)
		if err != nil {
			t.Fatalf("OpenShard(%d): %v", id, err)
		}
		if man.Machines != part.M || man.Vertices != part.G.NumVertices() || man.Edges != part.G.NumEdges() {
			t.Fatalf("manifest %+v does not match source", man)
		}
		if shard.M != part.M || shard.G.NumVertices() != part.G.NumVertices() {
			t.Fatalf("shard %d shape: M=%d n=%d", id, shard.M, shard.G.NumVertices())
		}
		for v, o := range part.Owner {
			if shard.Owner[v] != o {
				t.Fatalf("shard %d: owner[%d] = %d, want %d", id, v, shard.Owner[v], o)
			}
		}
		// Owned adjacency is byte-identical.
		for _, v := range part.Vertices(id) {
			want, got := part.G.Adj(v), shard.G.Adj(v)
			if len(want) != len(got) {
				t.Fatalf("shard %d: adj(%d) has %d entries, want %d", id, v, len(got), len(want))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("shard %d: adj(%d)[%d] = %d, want %d", id, v, i, got[i], want[i])
				}
			}
		}
		// Border distances restored exactly (no BFS on this path, but
		// equality against a fresh computation proves fidelity).
		want := part.BorderDistances(id)
		got := shard.BorderDistances(id)
		if len(want) != len(got) {
			t.Fatalf("shard %d: %d border distances, want %d", id, len(got), len(want))
		}
		for v, d := range want {
			if got[v] != d {
				t.Fatalf("shard %d: bd[%d] = %d, want %d", id, v, got[v], d)
			}
		}
	}
}

// TestOpenPartitionRebuildsFullGraph checks the coordinator warm path:
// all shards merged reproduce the original graph and partition.
func TestOpenPartitionRebuildsFullGraph(t *testing.T) {
	part := testPartition(t)
	dir := t.TempDir()
	if err := snapshot.Write(dir, part, "test"); err != nil {
		t.Fatal(err)
	}
	got, _, err := snapshot.OpenPartition(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.G.NumVertices() != part.G.NumVertices() || got.G.NumEdges() != part.G.NumEdges() {
		t.Fatalf("rebuilt graph %d/%d, want %d/%d",
			got.G.NumVertices(), got.G.NumEdges(), part.G.NumVertices(), part.G.NumEdges())
	}
	for v := 0; v < part.G.NumVertices(); v++ {
		a, b := part.G.Adj(graph.VertexID(v)), got.G.Adj(graph.VertexID(v))
		if len(a) != len(b) {
			t.Fatalf("adj(%d): %d vs %d neighbours", v, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("adj(%d) differs at %d", v, i)
			}
		}
	}
	if got.EdgeCut() != part.EdgeCut() {
		t.Fatalf("edge cut %d, want %d", got.EdgeCut(), part.EdgeCut())
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
// refused with ErrVersion everywhere — manifest, shard and artifact
// readers.
func TestVersionMismatchRejected(t *testing.T) {
	part := testPartition(t)
	dir := t.TempDir()
	if err := snapshot.Write(dir, part, "test"); err != nil {
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
	if _, _, err := snapshot.OpenPartition(dir); !errors.Is(err, snapshot.ErrVersion) {
		t.Fatalf("OpenPartition err = %v, want ErrVersion", err)
	}
	if _, _, err := snapshot.OpenShard(dir, 0); !errors.Is(err, snapshot.ErrVersion) {
		t.Fatalf("OpenShard err = %v, want ErrVersion", err)
	}
}

// TestTruncatedShardRejected: a shard cut off mid-stream errors out
// rather than yielding a silently smaller graph.
func TestTruncatedShardRejected(t *testing.T) {
	part := testPartition(t)
	dir := t.TempDir()
	if err := snapshot.Write(dir, part, "test"); err != nil {
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
		if _, _, err := snapshot.OpenShard(dir, 0); err == nil {
			t.Fatalf("OpenShard accepted a shard truncated to %d bytes", keep)
		}
		if _, _, err := snapshot.OpenPartition(dir); err == nil {
			t.Fatalf("OpenPartition accepted a shard truncated to %d bytes", keep)
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
		dir := t.TempDir()
		f, err := os.Create(snapshot.ArtifactsPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		enc := gob.NewEncoder(f)
		// Field-for-field the package's unexported file header.
		hdr := struct {
			Magic   string
			Version int
		}{"RADSARTS", snapshot.Version}
		if err := enc.Encode(hdr); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(tc.count); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = snapshot.ReadArtifacts(dir)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("count %d: err = %v, want one containing %q", tc.count, err, tc.wantErr)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("count %d: ReadArtifacts allocated %d bytes on a file with no entries", tc.count, grew)
		}
	}
}
