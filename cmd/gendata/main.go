// Command gendata writes the synthetic dataset analogs to disk as edge
// lists ("u v" per line), the format radserve -graph and radsprep
// ingest read.
//
// Usage:
//
//	gendata -dataset RoadNet -o roadnet.txt
//	gendata -dataset LiveJournal -scale 2 -o lj.txt
package main

import (
	"flag"
	"fmt"
	"os"

	"rads/internal/graph"
	"rads/internal/harness"
)

func main() {
	var (
		dataset = flag.String("dataset", "DBLP", "dataset analog (RoadNet DBLP LiveJournal UK2002)")
		out     = flag.String("o", "", "output file (default stdout)")
		scale   = flag.Float64("scale", 1.0, "dataset scale factor")
	)
	flag.Parse()
	if err := run(*dataset, *out, *scale); err != nil {
		fmt.Fprintln(os.Stderr, "gendata:", err)
		os.Exit(1)
	}
}

func run(dataset, out string, scale float64) error {
	d, err := harness.DatasetByName(dataset)
	if err != nil {
		return err
	}
	g := d.Build(scale)
	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := graph.WriteEdgeList(w, g); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "gendata: wrote %s (%d vertices, %d edges)\n", dataset, g.NumVertices(), g.NumEdges())
	return nil
}
