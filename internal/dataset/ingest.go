package dataset

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"rads/internal/graph"
)

// Options tunes an ingestion.
type Options struct {
	// DegreeOrder renumbers the dense IDs hub-first (graph.HubFirst):
	// vertex 0 has the highest degree and degrees descend from there,
	// so pattern.SymmetryBreaking roots every match at its
	// lowest-degree vertex. radsprep -degree-order and the benchmark
	// fixture set it; harness.LoadStore applies the same relabel to
	// every edge list and analog it loads. It is off by default, so a
	// registry dataset keeps the first-seen numbering its shards
	// reference. Counts are isomorphism-invariant, so enumeration
	// results are the same either way.
	DegreeOrder bool
}

// Stats reports what an ingestion saw and produced.
type Stats struct {
	Lines      int64  `json:"lines"`      // non-comment, non-blank lines parsed
	SelfLoops  int64  `json:"self_loops"` // dropped u==v lines
	Duplicates int64  `json:"duplicates"` // dropped repeated undirected edges
	MaxRawID   uint64 `json:"max_raw_id"` // largest 64-bit ID in the file
	Vertices   int    `json:"vertices"`   // dense vertex count
	Edges      int64  `json:"edges"`      // undirected edges kept
	MaxDegree  int    `json:"max_degree"` //
	DegreeOrd  bool   `json:"degree_ord"` // DegreeOrder was applied
}

// Ingest streams the SNAP-style edge list at path into a graph in
// two passes: pass 1 assigns dense IDs (first-seen order) and counts
// degrees, pass 2 counting-sorts every arc directly into its CSR slot.
// Comments ('#' or '%'), blank lines, self-loops and duplicate edges
// are tolerated; sparse 64-bit IDs are relabeled to dense uint32 ones.
// Peak transient memory is O(vertices) for the relabeling map plus the
// final arrays — no edge map is ever built, per Silvestri's streaming
// I/O argument.
func Ingest(path string, opt Options) (*graph.Graph, Stats, error) {
	f1, err := os.Open(path)
	if err != nil {
		return nil, Stats{}, fmt.Errorf("dataset: %w", err)
	}
	defer f1.Close()
	f2, err := os.Open(path)
	if err != nil {
		return nil, Stats{}, fmt.Errorf("dataset: %w", err)
	}
	defer f2.Close()
	c, st, err := IngestReaders(f1, f2, opt)
	if err != nil {
		return nil, st, fmt.Errorf("dataset: ingest %s: %w", path, err)
	}
	return c, st, nil
}

// IngestReaders is Ingest over two independent readers of the same
// byte stream (two passes over one file; tests feed bytes.Readers).
func IngestReaders(pass1, pass2 io.Reader, opt Options) (*graph.Graph, Stats, error) {
	var st Stats
	st.DegreeOrd = opt.DegreeOrder

	// Pass 1: relabel and count degrees. The map is the only sparse
	// structure and holds one entry per *vertex*, not per edge.
	id := make(map[uint64]int32)
	var deg []int32
	lookup := func(raw uint64) int32 {
		if d, ok := id[raw]; ok {
			return d
		}
		if len(deg) >= math.MaxInt32 {
			return -1
		}
		d := int32(len(deg))
		id[raw] = d
		deg = append(deg, 0)
		if raw > st.MaxRawID {
			st.MaxRawID = raw
		}
		return d
	}
	err := scanEdges(pass1, func(line int64, a, b uint64) error {
		st.Lines++
		ia, ib := lookup(a), lookup(b)
		if ia < 0 || ib < 0 {
			return fmt.Errorf("line %d: more than %d distinct vertices", line, math.MaxInt32)
		}
		if a == b {
			st.SelfLoops++
			return nil
		}
		deg[ia]++
		deg[ib]++
		return nil
	})
	if err != nil {
		return nil, st, err
	}
	n := len(deg)
	st.Vertices = n

	// Offsets from the (duplicate-inclusive) degree counts; duplicates
	// are squeezed out after the per-vertex sort below.
	off := make([]int64, n+1)
	for v := 0; v < n; v++ {
		off[v+1] = off[v] + int64(deg[v])
	}
	arcs := off[n]
	flat := make([]graph.VertexID, arcs)
	cursor := make([]int64, n)
	copy(cursor, off[:n])

	// Pass 2: counting-sort every arc into its slot. The ID map is
	// reused read-only; a vertex absent from it means the underlying
	// bytes changed between passes.
	var lines2 int64
	err = scanEdges(pass2, func(line int64, a, b uint64) error {
		lines2++
		if a == b {
			return nil
		}
		ia, ok1 := id[a]
		ib, ok2 := id[b]
		if !ok1 || !ok2 {
			return fmt.Errorf("line %d: vertex appeared in pass 2 only — file changed mid-ingest", line)
		}
		if cursor[ia] >= off[ia+1] || cursor[ib] >= off[ib+1] {
			return fmt.Errorf("line %d: more arcs than pass 1 counted — file changed mid-ingest", line)
		}
		flat[cursor[ia]] = graph.VertexID(ib)
		cursor[ia]++
		flat[cursor[ib]] = graph.VertexID(ia)
		cursor[ib]++
		return nil
	})
	if err != nil {
		return nil, st, err
	}
	if lines2 != st.Lines {
		return nil, st, fmt.Errorf("pass 2 saw %d edge lines, pass 1 saw %d — file changed mid-ingest", lines2, st.Lines)
	}

	off, nbr, dropped := graph.CompactRows(off, cursor, flat)
	// Each duplicate undirected edge was dropped from both endpoints.
	st.Duplicates = dropped / 2
	g, err := graph.NewCSR(off, nbr)
	if err != nil {
		return nil, st, fmt.Errorf("ingest produced an invalid CSR: %w", err)
	}
	if opt.DegreeOrder {
		// Relabel only now, on the deduplicated degrees: sorting by the
		// duplicate-inclusive pass-1 counts would let a much-repeated
		// edge hoist a low-degree vertex above true hubs, breaking the
		// documented descending-degree invariant.
		g, _ = graph.HubFirst(g)
	}
	st.Edges = g.NumEdges()
	st.MaxDegree = g.MaxDegree()
	return g, st, nil
}

// scanEdges streams an edge-list: one "u v [extra...]" pair per line,
// '#'/'%' comments and blank lines skipped, extra columns (weights,
// timestamps) ignored. IDs are unsigned 64-bit; negatives are rejected
// with the line number.
func scanEdges(r io.Reader, fn func(line int64, a, b uint64) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var lineNo int64
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return fmt.Errorf("line %d: want 'u v', got %q", lineNo, line)
		}
		a, err := parseID(fields[0])
		if err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		b, err := parseID(fields[1])
		if err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		if err := fn(lineNo, a, b); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("read: %w", err)
	}
	return nil
}

func parseID(tok string) (uint64, error) {
	if strings.HasPrefix(tok, "-") {
		return 0, fmt.Errorf("negative vertex id %q", tok)
	}
	v, err := strconv.ParseUint(tok, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad vertex id %q: %w", tok, err)
	}
	return v, nil
}
