package dataset

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rads/internal/graph"
	"rads/internal/localenum"
	"rads/internal/pattern"
)

func ingestString(t *testing.T, input string, opt Options) (*graph.Graph, Stats) {
	t.Helper()
	c, st, err := IngestReaders(strings.NewReader(input), strings.NewReader(input), opt)
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	return c, st
}

func TestIngestKarate(t *testing.T) {
	c, st, err := Ingest(filepath.Join("testdata", "karate.txt"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Vertices != 34 || st.Edges != 78 {
		t.Fatalf("karate: got %d vertices / %d edges, want 34 / 78", st.Vertices, st.Edges)
	}
	if st.SelfLoops != 0 || st.Duplicates != 0 {
		t.Errorf("karate is clean, got %d self-loops, %d duplicates", st.SelfLoops, st.Duplicates)
	}
	// Vertex 34 (the instructor) has the highest degree, 17.
	if c.MaxDegree() != 17 {
		t.Errorf("max degree = %d, want 17", c.MaxDegree())
	}
	if got := c.CountTriangles(); got != 45 {
		t.Errorf("triangles = %d, want 45", got)
	}
}

// TestIngestMatchesReadEdgeList: ingestion must be count-equivalent to
// the text edge-list reader on the same file (IDs differ — the
// ingester relabels densely — but subgraph counts are isomorphism
// invariant).
func TestIngestMatchesReadEdgeList(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "karate.txt"))
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.ReadEdgeList(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := Ingest(filepath.Join("testdata", "karate.txt"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != c.NumEdges() {
		t.Fatalf("edge count: edge-list reader %d, ingester %d", g.NumEdges(), c.NumEdges())
	}
	for _, p := range []*pattern.Pattern{pattern.Triangle(), pattern.New("square", 4, 0, 1, 1, 2, 2, 3, 3, 0)} {
		a := localenum.Count(g, p, localenum.Options{})
		b := localenum.Count(c, p, localenum.Options{})
		if a != b {
			t.Errorf("%s: edge-list reader %d, ingester %d", p.Name, a, b)
		}
	}
}

func TestIngestMess(t *testing.T) {
	// Comments, blank lines, '%' comments, duplicates (both repeated
	// and reversed), self-loops, extra columns, tabs.
	input := "# comment\n% matrix-market style comment\n\n" +
		"10 20\n20 10\n10 20\n" + // one edge, three times
		"20\t30\textra 99\n" +
		"30 30\n" + // self-loop
		"10 30\n"
	c, st := ingestString(t, input, Options{})
	if st.Vertices != 3 || st.Edges != 3 {
		t.Fatalf("got %d vertices / %d edges, want 3 / 3", st.Vertices, st.Edges)
	}
	if st.SelfLoops != 1 {
		t.Errorf("self-loops = %d, want 1", st.SelfLoops)
	}
	if st.Duplicates != 2 {
		t.Errorf("duplicates = %d, want 2 (10-20 appeared three times)", st.Duplicates)
	}
	if !c.HasEdge(0, 1) || !c.HasEdge(1, 2) || !c.HasEdge(0, 2) {
		t.Errorf("expected a triangle over the three dense IDs")
	}
}

// TestIngestSparse64BitIDs: raw IDs near 2^63 must relabel into dense
// int32 space.
func TestIngestSparse64BitIDs(t *testing.T) {
	big := uint64(1) << 62
	input := fmt.Sprintf("%d %d\n%d %d\n%d %d\n",
		big, big+7, big+7, 9000000000, 9000000000, big)
	c, st := ingestString(t, input, Options{})
	if st.Vertices != 3 || st.Edges != 3 {
		t.Fatalf("got %d vertices / %d edges, want 3 / 3", st.Vertices, st.Edges)
	}
	if st.MaxRawID != big+7 {
		t.Errorf("max raw id = %d, want %d", st.MaxRawID, big+7)
	}
	if localenum.Count(c, pattern.Triangle(), localenum.Options{}) != 1 {
		t.Errorf("the three sparse IDs form one triangle")
	}
}

func TestIngestRejectsNegativeAndJunk(t *testing.T) {
	for _, bad := range []string{"-1 2\n", "1 -2\n", "a b\n", "5\n"} {
		_, _, err := IngestReaders(strings.NewReader(bad), strings.NewReader(bad), Options{})
		if err == nil {
			t.Errorf("input %q: want error", bad)
		} else if !strings.Contains(err.Error(), "line 1") {
			t.Errorf("input %q: error %v lacks the line number", bad, err)
		}
	}
}

func TestDegreeOrderRelabel(t *testing.T) {
	c, st, err := Ingest(filepath.Join("testdata", "karate.txt"), Options{DegreeOrder: true})
	if err != nil {
		t.Fatal(err)
	}
	if !st.DegreeOrd {
		t.Fatal("stats do not record degree ordering")
	}
	for v := 1; v < c.NumVertices(); v++ {
		if c.Degree(graph.VertexID(v)) > c.Degree(graph.VertexID(v-1)) {
			t.Fatalf("degrees not descending: deg(%d)=%d > deg(%d)=%d",
				v, c.Degree(graph.VertexID(v)), v-1, c.Degree(graph.VertexID(v-1)))
		}
	}
	// Counts are isomorphism-invariant, so the relabeled graph must
	// agree with the first-seen-order one.
	plain, _, err := Ingest(filepath.Join("testdata", "karate.txt"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*pattern.Pattern{pattern.Triangle(), pattern.New("path3", 3, 0, 1, 1, 2)} {
		a := localenum.Count(plain, p, localenum.Options{})
		b := localenum.Count(c, p, localenum.Options{})
		if a != b {
			t.Errorf("%s: first-seen order %d, degree order %d", p.Name, a, b)
		}
	}
}

func TestRoundTripFile(t *testing.T) {
	c, st, err := Ingest(filepath.Join("testdata", "karate.txt"), Options{DegreeOrder: true})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "karate.radsgraph")
	if err := WriteFile(path, c, st.DegreeOrd); err != nil {
		t.Fatal(err)
	}
	c2, degOrd, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !degOrd {
		t.Error("degree-order flag lost in round trip")
	}
	if c2.NumVertices() != c.NumVertices() || c2.NumEdges() != c.NumEdges() || c2.MaxDegree() != c.MaxDegree() {
		t.Fatalf("round trip changed shape: %d/%d/%d vs %d/%d/%d",
			c2.NumVertices(), c2.NumEdges(), c2.MaxDegree(), c.NumVertices(), c.NumEdges(), c.MaxDegree())
	}
	for v := 0; v < c.NumVertices(); v++ {
		a, b := c.Adj(graph.VertexID(v)), c2.Adj(graph.VertexID(v))
		if len(a) != len(b) {
			t.Fatalf("vertex %d: degree %d vs %d", v, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vertex %d: adjacency diverges at %d", v, i)
			}
		}
	}
}

func TestOpenFileRejectsCorruption(t *testing.T) {
	c, _ := ingestString(t, "0 1\n1 2\n2 0\n", Options{})
	dir := t.TempDir()
	path := filepath.Join(dir, "g.radsgraph")
	if err := WriteFile(path, c, false); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	mutate := func(name string, f func([]byte) []byte) {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, f(append([]byte(nil), raw...)), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := OpenFile(p); err == nil {
			t.Errorf("%s: corrupt file loaded without error", name)
		}
	}

	mutate("truncated", func(b []byte) []byte { return b[:len(b)-5] })
	mutate("empty", func(b []byte) []byte { return nil })
	mutate("badmagic", func(b []byte) []byte { b[0] = 'X'; return b })
	mutate("bitflip", func(b []byte) []byte { b[len(b)-12] ^= 0x40; return b })
	mutate("extra", func(b []byte) []byte { return append(b, 0) })

	// Version rejection must be recognizable with errors.Is.
	vp := filepath.Join(dir, "version")
	bad := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(bad[8:12], FormatVersion+1)
	if err := os.WriteFile(vp, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenFile(vp); !errors.Is(err, ErrFormatVersion) {
		t.Errorf("future version: err = %v, want ErrFormatVersion", err)
	}
}

func TestRegistry(t *testing.T) {
	dir := t.TempDir()
	c, st, err := Ingest(filepath.Join("testdata", "karate.txt"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	gpath := filepath.Join(dir, "karate.radsgraph")
	if err := WriteFile(gpath, c, false); err != nil {
		t.Fatal(err)
	}
	man, err := NewManifest("karate", gpath, c, st, "testdata/karate.txt")
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteManifest(dir, man); err != nil {
		t.Fatal(err)
	}

	reg, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	if names := reg.Names(); len(names) != 1 || names[0] != "karate" {
		t.Fatalf("registry names = %v", names)
	}
	got, m2, err := reg.Open("karate")
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEdges() != 78 || m2.Checksum != man.Checksum {
		t.Fatalf("resolved dataset diverges: %d edges, checksum %s", got.NumEdges(), m2.Checksum)
	}
	if _, _, err := reg.Open("nope"); err == nil {
		t.Error("unknown name resolved without error")
	}

	// Swap the graph bytes under the registry: the checksum must catch it.
	other, _ := ingestString(t, "0 1\n1 2\n", Options{})
	if err := WriteFile(gpath, other, false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.Open("karate"); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("swapped bytes: err = %v, want checksum mismatch", err)
	}

	// Missing registry directory: empty registry, not an error.
	empty, err := OpenRegistry(filepath.Join(dir, "absent"))
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.Names()) != 0 {
		t.Errorf("missing dir lists %v", empty.Names())
	}
}

// TestNewCSRRejectsInvalid: the checked constructor every decoded or
// ingested array passes through refuses each broken invariant.
func TestNewCSRRejectsInvalid(t *testing.T) {
	cases := []struct {
		name string
		off  []int64
		nbr  []graph.VertexID
	}{
		{"asymmetric", []int64{0, 1, 2}, []graph.VertexID{1, 0}}, // valid; mutated below
		{"offsets-span", []int64{0, 3}, []graph.VertexID{0, 1}},
		{"unsorted", []int64{0, 2, 3, 3}, []graph.VertexID{2, 1, 0}},
		{"self-loop", []int64{0, 1, 2}, []graph.VertexID{0, 1}},
		{"out-of-range", []int64{0, 1, 2}, []graph.VertexID{5, 0}},
		{"odd-arcs", []int64{0, 1}, []graph.VertexID{0}},
		{"offset-beyond-nbr", []int64{0, 100, 2}, []graph.VertexID{1, 0}},
	}
	for _, tc := range cases[1:] {
		if _, err := graph.NewCSR(tc.off, tc.nbr); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// True asymmetry: 0 lists 1, but 1 lists nothing.
	if _, err := graph.NewCSR([]int64{0, 1, 1, 2}, []graph.VertexID{1, 0}); err == nil {
		t.Error("asymmetric arcs accepted")
	}
}

// TestOpenFileRejectsForgedArcsHeader: a header whose arcs field is
// inflated so the expected-size arithmetic wraps uint64 back to the
// real file size must be rejected, not panic makeslice (regression:
// the length gate computed headerSize+(n+1)*8+arcs*4+4 without
// bounding arcs first).
func TestOpenFileRejectsForgedArcsHeader(t *testing.T) {
	c, _ := ingestString(t, "0 1\n1 2\n2 0\n", Options{})
	path := filepath.Join(t.TempDir(), "forged.radsgraph")
	if err := WriteFile(path, c, false); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	arcs := binary.LittleEndian.Uint64(raw[24:32])
	binary.LittleEndian.PutUint64(raw[24:32], arcs+(1<<62)) // ×4 wraps mod 2^64
	crc := crc32.Checksum(raw[:len(raw)-4], crc32.MakeTable(crc32.Castagnoli))
	binary.LittleEndian.PutUint32(raw[len(raw)-4:], crc)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenFile(path); err == nil {
		t.Fatal("forged arcs header accepted")
	}
}

// TestDegreeOrderIgnoresDuplicates: the hub-first relabel must sort by
// deduplicated degrees (regression: sorting by pass-1 counts let a
// much-repeated edge hoist a degree-1 vertex above the true hub).
func TestDegreeOrderIgnoresDuplicates(t *testing.T) {
	// Vertex 9 has one distinct neighbour listed five times; vertex 0
	// is the true hub with three distinct neighbours.
	input := "9 8\n9 8\n9 8\n9 8\n9 8\n0 1\n0 2\n0 3\n"
	c, st := ingestString(t, input, Options{DegreeOrder: true})
	if st.Duplicates != 4 {
		t.Fatalf("duplicates = %d, want 4", st.Duplicates)
	}
	if c.Degree(0) != 3 {
		t.Errorf("dense vertex 0 has degree %d, want the true hub's 3", c.Degree(0))
	}
	for v := 1; v < c.NumVertices(); v++ {
		if c.Degree(graph.VertexID(v)) > c.Degree(graph.VertexID(v-1)) {
			t.Fatalf("degrees not descending at %d", v)
		}
	}
}
