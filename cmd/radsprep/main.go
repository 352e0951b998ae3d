// Command radsprep takes raw real-world graphs into the serving stack:
// it streams a SNAP-style edge list into the compact .radsgraph CSR
// format, registers the result in a dataset registry, and inspects or
// verifies existing files. It also writes the synthetic dataset
// analogs out as edge lists, the input ingest and radserve -graph read.
//
// Usage:
//
//	radsprep gen -dataset RoadNet -scale 0.5 -o roadnet.txt
//	radsprep ingest edges.txt -o lj.radsgraph -name lj [-degree-order] [-registry datasets/]
//	radsprep stats lj.radsgraph
//	radsprep stats -registry datasets/ lj
//	radsprep verify lj.radsgraph
//	radsprep verify -registry datasets/ lj
//
// Ingestion is two streaming passes over the file (comments,
// self-loops and duplicate edges tolerated; sparse 64-bit IDs
// relabeled densely; optional hub-first degree ordering) — no edge map
// is ever held in memory. The manifest written next to the graph is
// what `radserve -dataset`, `radsbench -dataset` and radsworker
// resolve by name and checksum.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"rads/internal/dataset"
	"rads/internal/graph"
	"rads/internal/harness"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = runGen(os.Args[2:])
	case "ingest":
		err = runIngest(os.Args[2:])
	case "stats":
		err = runStats(os.Args[2:])
	case "verify":
		err = runVerify(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "radsprep: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "radsprep:", err)
		os.Exit(1)
	}
}

// parseMixed parses flags that may appear before or after positional
// arguments (flag.FlagSet stops at the first non-flag on its own),
// returning the positionals in order.
func parseMixed(fs *flag.FlagSet, args []string) []string {
	fs.Parse(args)
	var pos []string
	for fs.NArg() > 0 {
		pos = append(pos, fs.Arg(0))
		rest := append([]string(nil), fs.Args()[1:]...)
		fs.Parse(rest)
	}
	return pos
}

func usage() {
	fmt.Fprintf(os.Stderr, `radsprep prepares real-graph datasets for the RADS serving stack.

  radsprep gen    -dataset NAME [-scale S] [-o FILE]
  radsprep ingest <edges.txt> [-o FILE] [-name NAME] [-degree-order] [-registry DIR]
  radsprep stats  <file.radsgraph | -registry DIR NAME> [-triangles]
  radsprep verify <file.radsgraph | -registry DIR NAME>
`)
}

func runGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	name := fs.String("dataset", "DBLP", "dataset analog (RoadNet DBLP LiveJournal UK2002)")
	out := fs.String("o", "", "output edge-list file (default stdout)")
	scale := fs.Float64("scale", 1.0, "dataset scale factor")
	if pos := parseMixed(fs, args); len(pos) != 0 {
		return fmt.Errorf("gen takes no positional arguments (got %q)", pos)
	}
	d, err := harness.DatasetByName(*name)
	if err != nil {
		return err
	}
	g := d.Build(*scale)
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := writeEdgeList(w, g); err != nil {
		return err
	}
	if *out != "" {
		if err := w.Close(); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d vertices, %d edges)\n", *name, g.NumVertices(), g.NumEdges())
	return nil
}

// writeEdgeList writes "u v" per line for every undirected edge (u < v),
// the interchange format of the SNAP datasets the paper uses and the
// one text format every tool here reads.
func writeEdgeList(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var werr error
	g.Edges(func(u, v graph.VertexID) bool {
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

func runIngest(args []string) error {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	out := fs.String("o", "", "output .radsgraph path (default: input with .radsgraph extension)")
	name := fs.String("name", "", "dataset name for the registry manifest (default: output base name)")
	degOrder := fs.Bool("degree-order", false, "relabel vertices hub-first (descending degree) for cache locality")
	registry := fs.String("registry", "", "registry directory for the manifest (default: the output's directory)")
	noManifest := fs.Bool("no-manifest", false, "skip writing the registry manifest")
	pos := parseMixed(fs, args)
	if len(pos) != 1 {
		return fmt.Errorf("ingest needs exactly one input edge list (got %d)", len(pos))
	}
	in := pos[0]
	if *out == "" {
		*out = strings.TrimSuffix(in, filepath.Ext(in)) + ".radsgraph"
	}
	if *name == "" {
		*name = strings.TrimSuffix(filepath.Base(*out), filepath.Ext(*out))
	}

	c, st, err := dataset.Ingest(in, dataset.Options{DegreeOrder: *degOrder})
	if err != nil {
		return err
	}
	fmt.Printf("ingested %s: %d lines, %d vertices, %d edges (dropped %d self-loops, %d duplicates), max degree %d, max raw id %d\n",
		in, st.Lines, st.Vertices, st.Edges, st.SelfLoops, st.Duplicates, st.MaxDegree, st.MaxRawID)
	if dir := filepath.Dir(*out); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	if err := dataset.WriteFile(*out, c, st.DegreeOrd); err != nil {
		return err
	}
	info, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d bytes, format v%d)\n", *out, info.Size(), dataset.FormatVersion)

	if *noManifest {
		return nil
	}
	dir := *registry
	if dir == "" {
		dir = filepath.Dir(*out)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	man, err := dataset.NewManifest(*name, *out, c, st, in)
	if err != nil {
		return err
	}
	// Record the path relative to the registry when the graph lives
	// inside it (the portable layout); keep it absolute otherwise.
	if rel, err := filepath.Rel(dir, *out); err == nil && !strings.HasPrefix(rel, "..") {
		man.Path = rel
	} else if abs, err := filepath.Abs(*out); err == nil {
		man.Path = abs
	}
	if err := dataset.WriteManifest(dir, man); err != nil {
		return err
	}
	fmt.Printf("registered %q in %s (%s)\n", man.Name, dir, man.Checksum)
	return nil
}

// resolve loads a graph either from an explicit .radsgraph path or from
// a registry by name.
func resolve(pos []string, registry string) (*graph.Graph, dataset.Manifest, error) {
	if len(pos) != 1 {
		return nil, dataset.Manifest{}, fmt.Errorf("need one .radsgraph path or dataset name")
	}
	arg := pos[0]
	if registry != "" {
		reg, err := dataset.OpenRegistry(registry)
		if err != nil {
			return nil, dataset.Manifest{}, err
		}
		return reg.Open(arg)
	}
	c, degOrd, err := dataset.OpenFile(arg)
	if err != nil {
		return nil, dataset.Manifest{}, err
	}
	man := dataset.Manifest{
		Name: strings.TrimSuffix(filepath.Base(arg), filepath.Ext(arg)), Path: arg,
		Vertices: c.NumVertices(), Edges: c.NumEdges(), MaxDegree: c.MaxDegree(), DegreeOrdered: degOrd,
	}
	return c, man, nil
}

func runStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	registry := fs.String("registry", "", "resolve the argument as a dataset name in this registry")
	triangles := fs.Bool("triangles", false, "also count triangles (O(m^1.5))")
	pos := parseMixed(fs, args)
	c, man, err := resolve(pos, *registry)
	if err != nil {
		return err
	}
	fmt.Printf("dataset    %s\n", man.Name)
	fmt.Printf("vertices   %d\n", c.NumVertices())
	fmt.Printf("edges      %d\n", c.NumEdges())
	fmt.Printf("avg degree %.2f\n", c.AvgDegree())
	fmt.Printf("max degree %d\n", c.MaxDegree())
	fmt.Printf("resident   %d bytes (CSR)\n", c.SizeBytes())
	fmt.Printf("deg-order  %v\n", man.DegreeOrdered)
	if man.Checksum != "" {
		fmt.Printf("checksum   %s\n", man.Checksum)
	}
	if *triangles {
		fmt.Printf("triangles  %d\n", c.CountTriangles())
	}
	return nil
}

func runVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	registry := fs.String("registry", "", "resolve the argument as a dataset name in this registry")
	pos := parseMixed(fs, args)
	// Every load path revalidates the full structural invariants
	// (header, length, checksum trailer, monotone offsets, sorted
	// symmetric loop-free adjacency); registry resolution additionally
	// pins the manifest checksum and stats.
	c, man, err := resolve(pos, *registry)
	if err != nil {
		return err
	}
	fmt.Printf("OK %s: %d vertices, %d edges, max degree %d\n", man.Name, c.NumVertices(), c.NumEdges(), c.MaxDegree())
	return nil
}
