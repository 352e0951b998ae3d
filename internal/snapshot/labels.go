package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"rads/internal/graph"
)

// A snapshot of a graph loaded from an edge list or an analog stores
// the graph hub-first (harness.LoadStore) and, beside it, each vertex's
// ID in the source, so a warm start still names the source's vertices.
// The file is fixed-width and guarded like a shard:
//
//	magic    [8]byte  "RADSLABL"
//	version  uint32   Version
//	n        uint32   vertices
//	labels   n × uint32  the source ID of vertex 0, 1, ..., n-1
//	crc      uint32   CRC-32C of every preceding byte
//
// The labels are a permutation of [0, n). A snapshot without the file
// (a registry dataset, or a snapshot written before labels existed)
// names its vertices as its graph numbers them.
const (
	labelsMagic  = "RADSLABL"
	labelsHeader = 8 + 4 + 4
	labelsName   = "labels.snap"
)

// encodeLabels renders labels in the format above.
func encodeLabels(labels []graph.VertexID) []byte {
	buf := make([]byte, labelsHeader, labelsHeader+4*len(labels)+4)
	copy(buf, labelsMagic)
	le := binary.LittleEndian
	le.PutUint32(buf[8:], Version)
	le.PutUint32(buf[12:], uint32(len(labels)))
	for _, l := range labels {
		buf = le.AppendUint32(buf, uint32(l))
	}
	return le.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// decodeLabels parses a whole labels file. Whatever it accepts,
// encodeLabels renders back to the same bytes.
func decodeLabels(raw []byte) ([]graph.VertexID, error) {
	le := binary.LittleEndian
	if len(raw) < labelsHeader+4 {
		return nil, fmt.Errorf("truncated: %d bytes is smaller than any valid labels file", len(raw))
	}
	if string(raw[:8]) != labelsMagic {
		return nil, fmt.Errorf("not a rads labels file (magic %q)", raw[:8])
	}
	if v := le.Uint32(raw[8:]); v != Version {
		return nil, fmt.Errorf("%w: labels file has version %d, this binary reads %d", ErrVersion, v, Version)
	}
	n := le.Uint32(raw[12:])
	body := raw[labelsHeader : len(raw)-4]
	if int64(len(body)) != 4*int64(n) {
		return nil, fmt.Errorf("header claims %d vertices, the body holds %d bytes", n, len(body))
	}
	if got, want := crc32.Checksum(raw[:len(raw)-4], castagnoli), le.Uint32(raw[len(raw)-4:]); got != want {
		return nil, fmt.Errorf("checksum mismatch: labels carry %08x, content hashes to %08x", want, got)
	}
	labels := make([]graph.VertexID, n)
	seen := make([]bool, n)
	for v := range labels {
		l := le.Uint32(body[4*v:])
		if l >= n || seen[l] {
			return nil, fmt.Errorf("vertex %d has label %d: the labels are not a permutation of [0,%d)", v, l, n)
		}
		seen[l] = true
		labels[v] = graph.VertexID(l)
	}
	return labels, nil
}

// ReadLabels loads dir's labels: labels[v] is the source ID of the
// snapshot graph's vertex v. A snapshot without a labels file returns
// nil, which means each vertex keeps its own ID.
func ReadLabels(dir string) ([]graph.VertexID, error) {
	raw, err := os.ReadFile(filepath.Join(dir, labelsName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	labels, err := decodeLabels(raw)
	if err != nil {
		return nil, fmt.Errorf("snapshot: labels: %w", err)
	}
	man, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	if len(labels) != man.Vertices {
		return nil, fmt.Errorf("snapshot: labels name %d vertices, the manifest %d", len(labels), man.Vertices)
	}
	return labels, nil
}
