package dataset

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"rads/internal/graph"
)

// Manifest describes one registered dataset: where its .radsgraph
// lives, the checksum that pins the exact bytes, and the stats callers
// want without opening the file. One JSON file per dataset
// ("<name>.json" next to the graph by convention); a snapshot manifest
// embeds the same structure to reference its graph by checksum.
type Manifest struct {
	Name string `json:"name"`
	// Path locates the .radsgraph file; relative paths resolve against
	// the directory holding the manifest (or the snapshot directory,
	// for manifests embedded in snapshots).
	Path string `json:"path"`
	// Checksum is the SHA-256 of the whole .radsgraph file, "sha256:"
	// prefixed. Resolution fails loudly on mismatch: a dataset swapped
	// under a registry or snapshot must never serve silently different
	// counts.
	Checksum string `json:"checksum"`

	Vertices      int    `json:"vertices"`
	Edges         int64  `json:"edges"`
	MaxDegree     int    `json:"max_degree"`
	DegreeOrdered bool   `json:"degree_ordered,omitempty"`
	Source        string `json:"source,omitempty"`  // raw edge list this was ingested from
	Created       string `json:"created,omitempty"` // RFC 3339
}

// ChecksumFile hashes a file the way Manifest.Checksum records it.
func ChecksumFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", fmt.Errorf("dataset: %w", err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("dataset: checksum %s: %w", path, err)
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil)), nil
}

// NewManifest builds the manifest for a graph already written to
// graphPath.
func NewManifest(name, graphPath string, g *graph.Graph, st Stats, source string) (Manifest, error) {
	sum, err := ChecksumFile(graphPath)
	if err != nil {
		return Manifest{}, err
	}
	return Manifest{
		Name:          name,
		Path:          filepath.Base(graphPath),
		Checksum:      sum,
		Vertices:      g.NumVertices(),
		Edges:         g.NumEdges(),
		MaxDegree:     g.MaxDegree(),
		DegreeOrdered: st.DegreeOrd,
		Source:        source,
		Created:       time.Now().UTC().Format(time.RFC3339),
	}, nil
}

// WriteManifest persists m as <dir>/<name>.json.
func WriteManifest(dir string, m Manifest) error {
	if m.Name == "" {
		return errors.New("dataset: manifest needs a name")
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, m.Name+".json"), append(b, '\n'), 0o644)
}

// Registry is a directory of dataset manifests. It lists what is
// registered and resolves names to checksum-verified graphs —
// the shared lookup behind `radserve -dataset`, `radsbench -dataset`
// and `radsprep stats/verify`.
type Registry struct {
	dir  string
	mans map[string]Manifest
}

// OpenRegistry scans dir for "*.json" dataset manifests. A directory
// with none (or a missing directory) yields an empty registry, not an
// error — callers fall back to the synthetic analogs.
func OpenRegistry(dir string) (*Registry, error) {
	r := &Registry{dir: dir, mans: make(map[string]Manifest)}
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return r, nil
	}
	if err != nil {
		return nil, fmt.Errorf("dataset: registry %s: %w", dir, err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, fmt.Errorf("dataset: registry %s: %w", dir, err)
		}
		var m Manifest
		if err := json.Unmarshal(b, &m); err != nil {
			return nil, fmt.Errorf("dataset: registry %s: bad manifest %s: %w", dir, e.Name(), err)
		}
		if m.Name == "" {
			m.Name = strings.TrimSuffix(e.Name(), ".json")
		}
		r.mans[m.Name] = m
	}
	return r, nil
}

// Dir returns the registry directory.
func (r *Registry) Dir() string { return r.dir }

// Names lists the registered datasets, sorted.
func (r *Registry) Names() []string {
	names := make([]string, 0, len(r.mans))
	for n := range r.mans {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Manifest returns the manifest registered under name.
func (r *Registry) Manifest(name string) (Manifest, bool) {
	m, ok := r.mans[name]
	return m, ok
}

// Open resolves name to its graph: locate the .radsgraph through the
// manifest, verify the recorded checksum against the bytes on disk,
// then load. Any divergence — missing file, swapped bytes, foreign
// version — is a loud error.
func (r *Registry) Open(name string) (*graph.Graph, Manifest, error) {
	m, ok := r.mans[name]
	if !ok {
		return nil, Manifest{}, fmt.Errorf("dataset: %q is not in registry %s (have: %s)",
			name, r.dir, strings.Join(r.Names(), " "))
	}
	g, err := m.Open(r.dir)
	return g, m, err
}

// Open loads and checksum-verifies the manifest's graph, resolving a
// relative Path against baseDir (the registry directory).
func (m Manifest) Open(baseDir string) (*graph.Graph, error) {
	path := m.Path
	if !filepath.IsAbs(path) {
		path = filepath.Join(baseDir, path)
	}
	return m.OpenAt(path)
}

// OpenAt loads the manifest's graph from an explicit location,
// enforcing the recorded checksum and stats. Snapshot warm starts use
// it to search several directories for a dataset that moved between
// machines — the checksum, not the path, is the dataset's identity.
// The file is read once: the same bytes are hashed and decoded.
func (m Manifest) OpenAt(path string) (*graph.Graph, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	if m.Checksum != "" {
		sum := sha256.Sum256(raw)
		if got := "sha256:" + hex.EncodeToString(sum[:]); got != m.Checksum {
			return nil, fmt.Errorf("dataset: %s: checksum %s does not match manifest %s for %q — the graph file changed since it was registered",
				path, got, m.Checksum, m.Name)
		}
	}
	g, _, err := decode(raw)
	if err != nil {
		return nil, fmt.Errorf("dataset: %s: %w", path, err)
	}
	if g.NumVertices() != m.Vertices || g.NumEdges() != m.Edges {
		return nil, fmt.Errorf("dataset: %s: file has %d vertices / %d edges, manifest %q records %d / %d",
			path, g.NumVertices(), g.NumEdges(), m.Name, m.Vertices, m.Edges)
	}
	return g, nil
}
