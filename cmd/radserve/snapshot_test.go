package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"rads/internal/gen"
	"rads/internal/graph"
	"rads/internal/localenum"
	"rads/internal/pattern"
	"rads/internal/service"
	"rads/internal/snapshot"
)

// TestOldSnapshotRepartitions: a snapshot written by an older format
// version is refused with snapshot.ErrVersion, and -snapshot then
// re-partitions from source and overwrites it with a current one that
// the next boot loads warm.
func TestOldSnapshotRepartitions(t *testing.T) {
	o := options{dataset: "DBLP", scale: 0.5, machines: 3, snapDir: t.TempDir()}
	part, _, err := loadPartition(o)
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

	again, _, err := loadPartition(o)
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
	warm, _, err := loadPartition(o)
	if err != nil || !slices.Equal(warm.Owner, part.Owner) {
		t.Fatalf("warm boot from the rewritten snapshot: err %v", err)
	}
}

// TestStreamedEmbeddingsNameFileIDs: radserve serves an edge list
// hub-first, yet every streamed embedding names vertices of the file,
// on the cold start that writes the snapshot and on the warm start
// that reads it back.
func TestStreamedEmbeddingsNameFileIDs(t *testing.T) {
	// A power-law graph written under shuffled IDs: hub-first is then
	// far from the file's numbering.
	src := gen.PowerLaw(150, 4, 2.5, 40, 11)
	perm := rand.New(rand.NewSource(3)).Perm(src.NumVertices())
	var edges strings.Builder
	src.Edges(func(u, v graph.VertexID) bool {
		fmt.Fprintf(&edges, "%d %d\n", perm[u], perm[v])
		return true
	})
	path := filepath.Join(t.TempDir(), "edges.txt")
	if err := os.WriteFile(path, []byte(edges.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	fileG, err := graph.ReadEdgeList(strings.NewReader(edges.String()))
	if err != nil {
		t.Fatal(err)
	}
	q := pattern.ByName("q2")
	want := localenum.Count(fileG, q, localenum.Options{})

	o := options{graphFile: path, machines: 3, snapDir: t.TempDir()}
	for _, boot := range []string{"cold", "warm"} {
		if warm := snapshot.Exists(o.snapDir); warm != (boot == "warm") {
			t.Fatalf("%s start: snapshot present = %v", boot, warm)
		}
		part, labels, err := loadPartition(o)
		if err != nil {
			t.Fatal(err)
		}
		if !part.G.IsHubFirst() {
			t.Fatalf("%s start: the served graph is not hub-first", boot)
		}
		moved := 0
		for v, l := range labels {
			if int(l) != v {
				moved++
			}
		}
		if moved < len(labels)/2 {
			t.Fatalf("%s start: hub-first moved only %d of %d vertices; the test cannot tell the numberings apart", boot, moved, len(labels))
		}
		svc, err := service.OpenPartitioned(part, service.Config{MaxConcurrent: 2})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(newMux(svc, nil, nil, nil, labels))
		body, _ := json.Marshal(queryRequest{Pattern: "q2", Stream: true})
		resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var got int64
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var line struct {
				Embedding []graph.VertexID `json:"embedding"`
				Error     string           `json:"error"`
			}
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
			}
			if line.Error != "" {
				t.Fatalf("%s start: stream error %s", boot, line.Error)
			}
			if line.Embedding == nil {
				continue
			}
			got++
			f := line.Embedding
			for _, e := range q.Edges() {
				if !fileG.HasEdge(f[e[0]], f[e[1]]) {
					t.Fatalf("%s start: embedding %v maps pattern edge %v to a non-edge of the file", boot, f, e)
				}
			}
		}
		resp.Body.Close()
		ts.Close()
		svc.Close()
		if got != want {
			t.Errorf("%s start: streamed %d embeddings, the file's graph has %d", boot, got, want)
		}
	}
}
