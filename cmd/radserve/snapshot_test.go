package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"rads/internal/snapshot"
)

// TestOldSnapshotRepartitions: a snapshot written by an older format
// version is refused with snapshot.ErrVersion, and -snapshot then
// re-partitions from source and overwrites it with a current one that
// the next boot loads warm.
func TestOldSnapshotRepartitions(t *testing.T) {
	o := options{dataset: "DBLP", scale: 0.5, machines: 3, snapDir: t.TempDir()}
	part, err := loadPartition(o)
	if err != nil {
		t.Fatal(err)
	}
	manPath := filepath.Join(o.snapDir, "manifest.json")
	b, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	var man map[string]any
	if err := json.Unmarshal(b, &man); err != nil {
		t.Fatal(err)
	}
	man["version"] = 2
	if b, err = json.Marshal(man); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manPath, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := snapshot.OpenShards(o.snapDir, nil); !errors.Is(err, snapshot.ErrVersion) {
		t.Fatalf("version-2 snapshot: err = %v, want ErrVersion", err)
	}

	again, err := loadPartition(o)
	if err != nil {
		t.Fatalf("re-partitioning from source: %v", err)
	}
	if !slices.Equal(again.Owner, part.Owner) {
		t.Fatal("re-partitioned ownership differs from the first boot's")
	}
	cur, err := snapshot.ReadManifest(o.snapDir)
	if err != nil || cur.Version != snapshot.Version {
		t.Fatalf("rewritten snapshot: version %d, err %v; want %d", cur.Version, err, snapshot.Version)
	}
	warm, err := loadPartition(o)
	if err != nil || !slices.Equal(warm.Owner, part.Owner) {
		t.Fatalf("warm boot from the rewritten snapshot: err %v", err)
	}
}
