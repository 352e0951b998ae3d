// Ingest-path conformance: every registered engine must produce
// identical embedding counts on a committed *real* edge list
// (Zachary's karate club) whether it was read as text with its own
// vertex IDs or ingested through the radsprep pipeline (streaming
// ingest, .radsgraph round trip, first-seen or degree-descending
// relabel) that production datasets take.
package all_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"rads/internal/dataset"
	"rads/internal/engine"
	_ "rads/internal/engine/all"
	"rads/internal/graph"
	"rads/internal/localenum"
	"rads/internal/partition"
)

const karatePath = "../../dataset/testdata/karate.txt"

// ingestKarate ingests the fixture and round-trips it through the
// .radsgraph codec, so the graph under test is exactly what a server
// would load from disk.
func ingestKarate(t *testing.T, degreeOrder bool) *graph.Graph {
	t.Helper()
	c, st, err := dataset.Ingest(karatePath, dataset.Options{DegreeOrder: degreeOrder})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "karate.radsgraph")
	if err := dataset.WriteFile(path, c, st.DegreeOrd); err != nil {
		t.Fatal(err)
	}
	c2, _, err := dataset.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return c2
}

// readKarate reads the fixture as text, keeping its own vertex IDs.
func readKarate(t *testing.T) *graph.Graph {
	t.Helper()
	f, err := os.Open(karatePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := graph.ReadEdgeList(f)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestConformanceCSRStoreParity is the acceptance gate of the dataset
// backend: identical counts from every engine on the ingested graph
// and the text-read one, under the first-seen and the hub-first
// relabeling, across the conformance queries.
func TestConformanceCSRStoreParity(t *testing.T) {
	for _, degOrder := range []bool{false, true} {
		name := "first-seen"
		if degOrder {
			name = "degree-ordered"
		}
		t.Run(name, func(t *testing.T) {
			ing := ingestKarate(t, degOrder)
			read := readKarate(t)
			tr := conformanceTransport(t, 4)
			ingPart := partition.KWay(ing, 4, 7)
			readPart := partition.KWay(read, 4, 7)
			for _, q := range conformanceQueries() {
				want := localenum.Count(read, q, localenum.Options{})
				if want == 0 {
					t.Fatalf("%s: oracle found nothing on karate", q.Name)
				}
				if got := localenum.Count(ing, q, localenum.Options{}); got != want {
					t.Fatalf("%s: local enumerator counts %d ingested, %d as read", q.Name, got, want)
				}
				for _, ename := range engine.Names() {
					e, ok := engine.Lookup(ename)
					if !ok {
						t.Fatalf("Lookup(%q) failed", ename)
					}
					resIng, err := e.Run(context.Background(), engine.Request{Part: ingPart, Pattern: q, Transport: tr})
					if err != nil {
						t.Fatalf("%s/%s ingested: %v", ename, q.Name, err)
					}
					resRead, err := e.Run(context.Background(), engine.Request{Part: readPart, Pattern: q, Transport: tr})
					if err != nil {
						t.Fatalf("%s/%s as read: %v", ename, q.Name, err)
					}
					if resIng.Total != want || resRead.Total != want {
						t.Errorf("%s/%s: ingested %d, as read %d, oracle %d",
							ename, q.Name, resIng.Total, resRead.Total, want)
					}
				}
			}
		})
	}
}
