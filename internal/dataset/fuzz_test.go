package dataset

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rads/internal/graph"
)

// FuzzIngest throws arbitrary bytes at the edge-list parser. The
// contract under fuzzing: never panic, and when ingestion succeeds the
// resulting graph must pass the full CSR structural validation (sorted
// symmetric loop-free adjacency — graph.NewCSR runs inside
// IngestReaders) and agree with the text edge-list reader wherever both
// accept the input.
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
		// Where the edge-list reader also accepts the input (small non-negative
		// IDs), edge counts must match: both dedup and drop self-loops.
		if g, gerr := graph.ReadEdgeList(strings.NewReader(input)); gerr == nil {
			if g.NumEdges() != c.NumEdges() {
				t.Fatalf("edge-list reader counts %d edges, ingester %d", g.NumEdges(), c.NumEdges())
			}
		}
	})
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
