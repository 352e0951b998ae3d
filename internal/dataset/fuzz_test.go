package dataset

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"rads/internal/graph"
)

// FuzzIngest throws arbitrary bytes at the edge-list parser. The
// contract under fuzzing: never panic, and when ingestion succeeds the
// resulting graph must pass the full CSR structural validation (sorted
// symmetric loop-free adjacency — graph.NewCSR runs inside
// IngestReaders) and agree with the text edge-list reader wherever both
// accept the input. Degree-ordered output must be hub-first: degree
// never rises with the ID, which is what lets pattern.SymmetryBreaking
// root every embedding at its lowest-degree vertex.
func FuzzIngest(f *testing.F) {
	f.Add("0 1\n1 2\n2 0\n")
	f.Add("# comment\n% other\n\n10 20\n20 10\n")
	f.Add("5 5\n")
	f.Add("9223372036854775807 1\n")
	f.Add("1 2 3 4\n")
	f.Add("-3 4\n")
	f.Add("a b\n")
	f.Add("1\n")
	f.Add("18446744073709551615 0\n")
	f.Add("1 2\n3 2\n4 2\n3 4\n") // the hub is seen second: degree ordering must move it
	f.Fuzz(func(t *testing.T, input string) {
		c, st, err := IngestReaders(strings.NewReader(input), strings.NewReader(input), Options{})
		if err != nil {
			return
		}
		if int64(c.NumVertices()) < 0 || c.NumEdges() < 0 {
			t.Fatalf("negative shape: %d vertices, %d edges", c.NumVertices(), c.NumEdges())
		}
		if st.Vertices != c.NumVertices() || st.Edges != c.NumEdges() {
			t.Fatalf("stats (%d,%d) disagree with graph (%d,%d)",
				st.Vertices, st.Edges, c.NumVertices(), c.NumEdges())
		}
		// Degree-ordered ingestion of the same bytes must keep the
		// same shape.
		c2, _, err := IngestReaders(strings.NewReader(input), strings.NewReader(input), Options{DegreeOrder: true})
		if err != nil {
			t.Fatalf("plain ingest succeeded but degree-ordered failed: %v", err)
		}
		if c2.NumVertices() != c.NumVertices() || c2.NumEdges() != c.NumEdges() || c2.MaxDegree() != c.MaxDegree() {
			t.Fatalf("degree ordering changed shape: %d/%d/%d vs %d/%d/%d",
				c2.NumVertices(), c2.NumEdges(), c2.MaxDegree(), c.NumVertices(), c.NumEdges(), c.MaxDegree())
		}
		for v := 1; v < c2.NumVertices(); v++ {
			if d, prev := c2.Degree(graph.VertexID(v)), c2.Degree(graph.VertexID(v-1)); d > prev {
				t.Fatalf("degree-ordered ingest: vertex %d has degree %d, above vertex %d's %d", v, d, v-1, prev)
			}
		}
		// Where the edge-list reader also accepts the input (non-negative
		// 32-bit IDs), edge counts must match: both dedup and drop
		// self-loops. The reader sizes its graph by the largest ID, so it
		// reads the input relabelled to dense IDs.
		dense, ok := denseIDs(input)
		if !ok {
			return
		}
		if g, gerr := graph.ReadEdgeList(strings.NewReader(dense)); gerr == nil {
			if g.NumEdges() != c.NumEdges() {
				t.Fatalf("edge-list reader counts %d edges, ingester %d", g.NumEdges(), c.NumEdges())
			}
		}
	})
}

// denseIDs rewrites input for graph.ReadEdgeList: every vertex field
// the reader would accept becomes a dense ID, numbered in first-seen
// order, and every other line and field is kept. The relabelling is a
// bijection, so the reader rejects the same lines and counts the same
// edges and self-loops. ok is false for input the reader's scanner
// cannot split into lines.
func denseIDs(input string) (out string, ok bool) {
	ids := make(map[int64]int)
	var b strings.Builder
	sc := bufio.NewScanner(strings.NewReader(input))
	sc.Buffer(make([]byte, 1<<20), 1<<24) // graph.ReadEdgeList's limits
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if fields := strings.Fields(line); len(fields) >= 2 && !strings.HasPrefix(line, "#") {
			for i := range fields[:2] {
				if n, err := strconv.ParseInt(fields[i], 10, 32); err == nil && n >= 0 {
					id, seen := ids[n]
					if !seen {
						id = len(ids)
						ids[n] = id
					}
					fields[i] = strconv.Itoa(id)
				}
			}
			line = strings.Join(fields, " ")
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String(), sc.Err() == nil
}

// FuzzDecodeGraph throws arbitrary bytes at the .radsgraph decoder,
// seeded with the karate file, its truncations, flipped bits and
// n/arcs/maxdeg headers forged with a recomputed checksum. It must
// never panic, and whatever it accepts must re-encode to the same
// bytes through WriteFile.
func FuzzDecodeGraph(f *testing.F) {
	g, _, err := Ingest(filepath.Join("testdata", "karate.txt"), Options{DegreeOrder: true})
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(f.TempDir(), "karate.radsgraph")
	if err := WriteFile(path, g, true); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:headerSize])
	flipped := bytes.Clone(valid)
	flipped[headerSize+40] ^= 0x04
	f.Add(flipped)
	forge := func(off int, v uint64) []byte {
		b := bytes.Clone(valid)
		binary.LittleEndian.PutUint64(b[off:], v)
		binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.Checksum(b[:len(b)-4], castagnoli))
		return b
	}
	f.Add(forge(16, 1<<40))    // n beyond the ID space
	f.Add(forge(16, 33))       // n one short
	f.Add(forge(24, 1<<62+10)) // arcs whose byte size wraps
	f.Add(forge(24, 2))        // arcs far short
	f.Add(forge(32, 16))       // maxdeg that the rows contradict
	f.Fuzz(func(t *testing.T, raw []byte) {
		g, degOrd, err := decode(raw)
		if err != nil {
			return
		}
		out := filepath.Join(t.TempDir(), "g.radsgraph")
		if err := WriteFile(out, g, degOrd); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, raw) {
			t.Fatalf("accepted file re-encodes to %d different bytes (input %d)", len(got), len(raw))
		}
	})
}
