package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteEdgeList writes "u v" per line for every undirected edge (u < v),
// the interchange format of the SNAP datasets the paper uses and the
// one text format every tool here reads.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var werr error
	g.Edges(func(u, v VertexID) bool {
		if _, err := fmt.Fprintf(bw, "%d %d\n", u, v); err != nil {
			werr = err
			return false
		}
		return true
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

// ReadEdgeList parses "u v" per line (comments with '#' allowed).
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var edges []Edge
	maxID := VertexID(-1)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want 'u v', got %q", lineNo, line)
		}
		u64, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
		}
		v64, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
		}
		if u64 < 0 || v64 < 0 {
			return nil, fmt.Errorf("graph: line %d: negative vertex id in %q", lineNo, line)
		}
		u, v := VertexID(u64), VertexID(v64)
		if u > maxID {
			maxID = u
		}
		if v > maxID {
			maxID = v
		}
		edges = append(edges, Edge{u, v})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: read: %w", err)
	}
	return FromEdges(int(maxID)+1, edges), nil
}
