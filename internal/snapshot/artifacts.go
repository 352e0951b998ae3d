package snapshot

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"rads/internal/engine"
)

const artifactsMagic = "RADSARTS"

// header opens the artifact file's gob stream.
type header struct {
	Magic   string
	Version int
}

// artifactEntry is one cache entry on disk. The artifact travels as a
// gob interface value: every concrete artifact type (rads.PlanArtifact,
// Crystal's index wrapper, anything a third-party engine registers)
// self-describes through gob.Register in its owning package, which
// keeps this codec generic — it never switches on engine names.
type artifactEntry struct {
	Key string
	Art engine.Artifact
}

// ArtifactsPath returns dir's artifact file path.
func ArtifactsPath(dir string) string { return filepath.Join(dir, artifactsName) }

// WriteArtifacts persists the prepared-artifact entries (as exported
// by engine.ArtifactCache.Export) into dir, sorted by key for a
// deterministic file.
func WriteArtifacts(dir string, entries map[string]engine.Artifact) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	keys := make([]string, 0, len(entries))
	for k := range entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	f, err := os.Create(ArtifactsPath(dir))
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	enc := gob.NewEncoder(f)
	if err := enc.Encode(header{Magic: artifactsMagic, Version: Version}); err != nil {
		f.Close()
		return fmt.Errorf("snapshot: artifacts: %w", err)
	}
	if err := enc.Encode(len(keys)); err != nil {
		f.Close()
		return fmt.Errorf("snapshot: artifacts: %w", err)
	}
	for _, k := range keys {
		if err := enc.Encode(artifactEntry{Key: k, Art: entries[k]}); err != nil {
			f.Close()
			return fmt.Errorf("snapshot: artifact %q: %w", k, err)
		}
	}
	return f.Close()
}

// maxArtifactsBytes bounds the artifact file ReadArtifacts accepts. A
// larger file is refused once one byte more has been read: the dump is
// a cache, so a refusal costs a cold start, never a wrong answer.
const maxArtifactsBytes = 256 << 20

// ReadArtifacts loads dir's artifact entries; a missing file is an
// empty map, not an error (snapshots predating the artifact dump, or
// a service that never prepared anything). The file is read whole, so
// no gob message can claim more bytes than it holds, and bytes after
// the last entry are refused.
func ReadArtifacts(dir string) (map[string]engine.Artifact, error) {
	f, err := os.Open(ArtifactsPath(dir))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return map[string]engine.Artifact{}, nil
		}
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	defer f.Close()
	raw, err := io.ReadAll(io.LimitReader(f, maxArtifactsBytes+1))
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	if len(raw) > maxArtifactsBytes {
		return nil, fmt.Errorf("snapshot: artifacts: file exceeds %d bytes", maxArtifactsBytes)
	}
	return decodeArtifacts(raw)
}

func decodeArtifacts(raw []byte) (map[string]engine.Artifact, error) {
	r := bytes.NewReader(raw)
	dec := gob.NewDecoder(r)
	var h header
	if err := dec.Decode(&h); err != nil {
		return nil, fmt.Errorf("snapshot: artifacts: truncated or corrupt header: %w", decodeErr(err))
	}
	if h.Magic != artifactsMagic {
		return nil, fmt.Errorf("snapshot: not a rads artifact file (magic %q)", h.Magic)
	}
	if h.Version != Version {
		return nil, fmt.Errorf("%w: artifact file has version %d, this binary reads %d", ErrVersion, h.Version, Version)
	}
	var n int
	if err := dec.Decode(&n); err != nil {
		return nil, fmt.Errorf("snapshot: artifacts: truncated or corrupt count: %w", decodeErr(err))
	}
	if n < 0 {
		return nil, fmt.Errorf("snapshot: artifacts: corrupt count %d", n)
	}
	// n is whatever the file says: the map grows as entries actually
	// decode, so a corrupt count costs a truncation error below, not an
	// allocation sized by it.
	out := make(map[string]engine.Artifact)
	for i := 0; i < n; i++ {
		var e artifactEntry
		if err := dec.Decode(&e); err != nil {
			return nil, fmt.Errorf("snapshot: artifacts: truncated after %d of %d entries: %w", i, n, decodeErr(err))
		}
		if e.Art == nil {
			return nil, fmt.Errorf("snapshot: artifacts: entry %q carries no artifact", e.Key)
		}
		out[e.Key] = e.Art
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("snapshot: artifacts: %d bytes after the last of %d entries", r.Len(), n)
	}
	return out, nil
}

// decodeErr normalizes gob's bare EOFs on truncated input.
func decodeErr(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}
