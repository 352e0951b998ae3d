package snapshot_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"rads/internal/dataset"
	"rads/internal/graph"
	"rads/internal/localenum"
	"rads/internal/partition"
	"rads/internal/pattern"
	"rads/internal/snapshot"
)

// writeDatasetFixture ingests the committed karate fixture into dir as
// a registered .radsgraph and returns its manifest (Path relative to
// dir) plus the graph.
func writeDatasetFixture(t *testing.T, dir string) (dataset.Manifest, *graph.Graph) {
	t.Helper()
	c, st, err := dataset.Ingest(filepath.Join("..", "dataset", "testdata", "karate.txt"), dataset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gpath := filepath.Join(dir, "karate.radsgraph")
	if err := dataset.WriteFile(gpath, c, st.DegreeOrd); err != nil {
		t.Fatal(err)
	}
	man, err := dataset.NewManifest("karate", gpath, c, st, "karate.txt")
	if err != nil {
		t.Fatal(err)
	}
	// Snapshots live in other directories; record the absolute path,
	// the way radserve does before WriteDataset.
	man.Path = gpath
	return man, c
}

// TestDatasetBackedSnapshot: a dataset-backed snapshot references the
// .radsgraph by checksum and restores partitions that enumerate
// identically to the original.
func TestDatasetBackedSnapshot(t *testing.T) {
	dsDir := t.TempDir()
	man, c := writeDatasetFixture(t, dsDir)
	part := partition.KWay(c, 3, 7)
	want := localenum.Count(c, pattern.Triangle(), localenum.Options{})

	snapDir := t.TempDir()
	if err := snapshot.WriteDataset(snapDir, part, "karate", man); err != nil {
		t.Fatal(err)
	}

	// Coordinator warm start (recorded path is absolute → found directly).
	parts, fman, err := snapshot.OpenShards(snapDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	full := parts[0]
	if fman.Dataset == nil || fman.Dataset.Checksum != man.Checksum {
		t.Fatalf("manifest dataset ref = %+v, want checksum %s", fman.Dataset, man.Checksum)
	}
	if got := localenum.Count(full.G, pattern.Triangle(), localenum.Options{}); got != want {
		t.Fatalf("warm-started partition counts %d triangles, want %d", got, want)
	}
	for v, o := range part.Owner {
		if full.Owner[v] != o {
			t.Fatalf("owner[%d] = %d, want %d", v, full.Owner[v], o)
		}
	}

	// Worker shard open: same graph, same border distances.
	shard, _, err := openShard(snapDir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(shard.BD, part.BD) {
		t.Fatal("the worker's shard derives other border distances")
	}
}

// TestDatasetSnapshotSearchDirs: when the recorded path is stale (the
// dataset moved hosts), the open falls back to the snapshot directory
// and then the caller's dataset dirs, always pinned to the checksum.
func TestDatasetSnapshotSearchDirs(t *testing.T) {
	dsDir := t.TempDir()
	man, c := writeDatasetFixture(t, dsDir)
	part := partition.KWay(c, 2, 7)
	snapDir := t.TempDir()
	man.Path = "/nonexistent/elsewhere/karate.radsgraph" // simulate a foreign host's layout
	if err := snapshot.WriteDataset(snapDir, part, "karate", man); err != nil {
		t.Fatal(err)
	}

	// No search dir: must fail loudly, naming the dataset.
	if _, _, err := snapshot.OpenShards(snapDir, nil); err == nil {
		t.Fatal("open succeeded without the dataset being findable")
	}

	// With the worker's -dataset-dir: found by base name, verified by
	// checksum.
	shard, _, err := openShard(snapDir, 0, dsDir)
	if err != nil {
		t.Fatal(err)
	}
	if shard.G.NumEdges() != c.NumEdges() {
		t.Fatalf("shard graph has %d edges, want %d", shard.G.NumEdges(), c.NumEdges())
	}

	// A swapped file under the search dir must be rejected by checksum.
	evil := t.TempDir()
	small, _, err := dataset.IngestReaders(strings.NewReader("0 1\n"), strings.NewReader("0 1\n"), dataset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteFile(filepath.Join(evil, "karate.radsgraph"), small, false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openShard(snapDir, 0, evil); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("swapped dataset bytes: err = %v, want checksum mismatch", err)
	}
}

// TestDatasetSnapshotAgainstPlainSnapshot: Write, which copies the
// graph into the snapshot, and WriteDataset, which references a
// registered file, take one path: the same shards, the same graph bytes
// by checksum, the same restored partition.
func TestDatasetSnapshotAgainstPlainSnapshot(t *testing.T) {
	dsDir := t.TempDir()
	man, c := writeDatasetFixture(t, dsDir)
	part := partition.KWay(c, 3, 7)

	plainDir, dsSnapDir := t.TempDir(), t.TempDir()
	if err := snapshot.Write(plainDir, part, "karate", nil); err != nil {
		t.Fatal(err)
	}
	if err := snapshot.WriteDataset(dsSnapDir, part, "karate", man); err != nil {
		t.Fatal(err)
	}
	for t2 := 0; t2 < part.M; t2++ {
		name := fmt.Sprintf("shard-%03d.snap", t2)
		a, err := os.ReadFile(filepath.Join(plainDir, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dsSnapDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between the two snapshots", name)
		}
	}

	plainParts, pman, err := snapshot.OpenShards(plainDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pman.Dataset == nil || pman.Dataset.Checksum != man.Checksum {
		t.Fatalf("Write recorded graph %+v, want the dataset's checksum %s", pman.Dataset, man.Checksum)
	}
	backedParts, _, err := snapshot.OpenShards(dsSnapDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	plain, backed := plainParts[0], backedParts[0]
	for _, q := range []*pattern.Pattern{pattern.Triangle(), pattern.New("square", 4, 0, 1, 1, 2, 2, 3, 3, 0)} {
		a := localenum.Count(plain.G, q, localenum.Options{})
		b := localenum.Count(backed.G, q, localenum.Options{})
		if a != b {
			t.Errorf("%s: plain snapshot %d, dataset-backed %d", q.Name, a, b)
		}
	}
	sameAdjacency(t, plain.G, backed.G)
}

// TestOpenShardsSharesDatasetGraph: a worker hosting several machines
// must get one shared partition, not one full copy of the graph per
// machine.
func TestOpenShardsSharesDatasetGraph(t *testing.T) {
	dsDir := t.TempDir()
	man, c := writeDatasetFixture(t, dsDir)
	part := partition.KWay(c, 3, 7)
	snapDir := t.TempDir()
	if err := snapshot.WriteDataset(snapDir, part, "karate", man); err != nil {
		t.Fatal(err)
	}
	parts, _, err := snapshot.OpenShards(snapDir, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 2 || parts[0] != parts[1] {
		t.Fatalf("dataset-backed shards should share one partition, got %p and %p", parts[0], parts[1])
	}
	if !slices.Equal(parts[0].BD, part.BD) {
		t.Fatal("the shared partition derives other border distances")
	}
	if got := localenum.Count(parts[0].G, pattern.Triangle(), localenum.Options{}); got != 45 {
		t.Fatalf("shared partition counts %d triangles, want 45", got)
	}

	// The same holds when the graph was copied into the snapshot.
	plainDir := t.TempDir()
	if err := snapshot.Write(plainDir, part, "karate", nil); err != nil {
		t.Fatal(err)
	}
	pparts, _, err := snapshot.OpenShards(plainDir, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if pparts[0] != pparts[1] {
		t.Fatal("shards of a Write snapshot should share one partition")
	}
}
