// Package harness wires datasets, engines and experiment runners into
// the reproduction of the paper's evaluation (Section 7 plus
// Appendix C). Every table and figure has a runner here and an
// experiment id under radsbench -exp.
package harness

import (
	"fmt"
	"os"

	"rads/internal/dataset"
	"rads/internal/gen"
	"rads/internal/graph"
)

// Dataset is a synthetic analog of one of the paper's Table 1 graphs.
// Scale 1.0 is the default laptop-sized instance; the generators are
// deterministic, so every run sees the same graph.
type Dataset struct {
	Name     string // paper dataset it stands in for
	Analog   string // what we generate instead
	Build    func(scale float64) *graph.Graph
	DefScale float64
}

// Datasets returns the four analogs in the paper's Table 1 order.
func Datasets() []Dataset {
	return []Dataset{
		{
			Name:   "RoadNet",
			Analog: "perturbed 2D grid (sparse, huge diameter)",
			Build: func(s float64) *graph.Graph {
				side := scaleInt(48, s)
				return gen.RoadNet(side, side, 101)
			},
			DefScale: 1,
		},
		{
			Name:   "DBLP",
			Analog: "clustered community graph (small, dense-ish)",
			Build: func(s float64) *graph.Graph {
				return gen.Community(scaleInt(36, s), 20, 0.22, 102)
			},
			DefScale: 1,
		},
		{
			Name:   "LiveJournal",
			Analog: "Chung-Lu power law (skewed hubs)",
			Build: func(s float64) *graph.Graph {
				n := scaleInt(1500, s)
				return gen.PowerLaw(n, 6, 3.1, n/4, 103)
			},
			DefScale: 1,
		},
		{
			Name:   "UK2002",
			Analog: "denser power law with planted triangles (web graph)",
			Build: func(s float64) *graph.Graph {
				n := scaleInt(2200, s)
				return gen.PowerLaw(n, 8, 3.0, n*2/5, 104)
			},
			DefScale: 1,
		},
	}
}

// DatasetByName finds a dataset (case-sensitive paper name).
func DatasetByName(name string) (Dataset, error) {
	for _, d := range Datasets() {
		if d.Name == name {
			return d, nil
		}
	}
	return Dataset{}, fmt.Errorf("harness: unknown dataset %q", name)
}

// LoadStore resolves the graph a command was pointed at. A non-empty
// graphFile is an edge list ("u v" per line) that overrides name and
// registryDir. Otherwise name is looked up among the synthetic analogs
// above first, then — when registryDir is non-empty — in the
// real-graph dataset registry of ingested .radsgraph files. Registry
// datasets come back with their manifest (radserve's snapshots
// reference the file through it); edge lists and synthetic analogs
// return a nil manifest. Scale applies only to the generated analogs —
// a real graph is whatever size it is.
func LoadStore(graphFile, name, registryDir string, scale float64) (*graph.Graph, *dataset.Manifest, error) {
	if graphFile != "" {
		f, err := os.Open(graphFile)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		g, err := graph.ReadEdgeList(f)
		if err != nil {
			return nil, nil, err
		}
		return g, nil, nil
	}
	var reg *dataset.Registry
	if registryDir != "" {
		// Open the registry up front: an unreadable registry must fail
		// loudly even when the name matches a built-in, or a corrupt
		// manifest would silently fall back to the synthetic analog.
		var err error
		reg, err = dataset.OpenRegistry(registryDir)
		if err != nil {
			return nil, nil, err
		}
	}
	if d, err := DatasetByName(name); err == nil {
		// Refuse the name outright if a registry dataset shadows it:
		// silently serving the synthetic analog when the user ingested
		// a real graph under the same name would put every count and
		// benchmark on the wrong graph.
		if reg != nil {
			if _, clash := reg.Manifest(name); clash {
				return nil, nil, fmt.Errorf("harness: %q names both a built-in analog and a dataset in %s — re-register the dataset under another name", name, registryDir)
			}
		}
		return d.Build(scale), nil, nil
	}
	if reg == nil {
		return nil, nil, fmt.Errorf("harness: unknown dataset %q (built-in: RoadNet DBLP LiveJournal UK2002; real datasets resolve through a registry)", name)
	}
	c, man, err := reg.Open(name)
	if err != nil {
		return nil, nil, fmt.Errorf("harness: %q is neither a built-in analog nor registered in %s: %w", name, registryDir, err)
	}
	return c, &man, nil
}

func scaleInt(base int, s float64) int {
	v := int(float64(base) * s)
	if v < 4 {
		v = 4
	}
	return v
}

// Profile is one row of Table 1.
type Profile struct {
	Name      string
	Vertices  int
	Edges     int64
	AvgDegree float64
	Diameter  int
}

// ProfileOf computes the Table 1 row for a dataset instance.
func ProfileOf(name string, g *graph.Graph) Profile {
	return Profile{
		Name:      name,
		Vertices:  g.NumVertices(),
		Edges:     g.NumEdges(),
		AvgDegree: g.AvgDegree(),
		Diameter:  g.ApproxDiameter(6),
	}
}
