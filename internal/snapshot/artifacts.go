package snapshot

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"

	"rads/internal/engine"
)

// The artifact file is a fixed header, a gob stream and a checksum:
//
//	magic    [8]byte  "RADSARTS"
//	version  uint32   Version
//	entries  gob      the entry count, then that many artifactEntry values
//	crc      uint32   CRC-32C of every preceding byte
//
// The reader checks the version and the checksum before the gob decoder
// sees a byte, so a flipped bit is refused instead of restoring another
// plan under the same key.
const (
	artifactsMagic  = "RADSARTS"
	artifactsHeader = 8 + 4
)

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
	raw, err := encodeArtifacts(entries)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := os.WriteFile(ArtifactsPath(dir), raw, 0o644); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	return nil
}

func encodeArtifacts(entries map[string]engine.Artifact) ([]byte, error) {
	keys := slices.Sorted(maps.Keys(entries))
	buf := bytes.NewBuffer(binary.LittleEndian.AppendUint32([]byte(artifactsMagic), Version))
	enc := gob.NewEncoder(buf)
	if err := enc.Encode(len(keys)); err != nil {
		return nil, fmt.Errorf("snapshot: artifacts: %w", err)
	}
	for _, k := range keys {
		if err := enc.Encode(artifactEntry{Key: k, Art: entries[k]}); err != nil {
			return nil, fmt.Errorf("snapshot: artifact %q: %w", k, err)
		}
	}
	return seal(buf.Bytes()), nil
}

// maxArtifactsBytes bounds the artifact file ReadArtifacts accepts. A
// larger file is refused once one byte more has been read: the dump is
// a cache, so a refusal costs a cold start, never a wrong answer.
const maxArtifactsBytes = 256 << 20

// ReadArtifacts loads dir's artifact entries; a missing file is an
// empty map, not an error (snapshots predating the artifact dump, or
// a service that never prepared anything). The file is read whole and
// its checksum verified before decoding, no gob message can claim more
// bytes than it holds, and bytes after the last entry are refused.
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
	if !bytes.HasPrefix(raw, []byte(artifactsMagic)) {
		return nil, notArtifacts(raw)
	}
	if len(raw) < artifactsHeader+4 {
		return nil, fmt.Errorf("snapshot: artifacts: truncated: %d bytes is smaller than any artifact file", len(raw))
	}
	le := binary.LittleEndian
	if v := le.Uint32(raw[8:]); v != Version {
		return nil, fmt.Errorf("%w: artifact file has version %d, this binary reads %d", ErrVersion, v, Version)
	}
	if got, want := crc32.Checksum(raw[:len(raw)-4], castagnoli), le.Uint32(raw[len(raw)-4:]); got != want {
		return nil, fmt.Errorf("snapshot: artifacts: checksum mismatch: file carries %08x, content hashes to %08x", want, got)
	}
	r := bytes.NewReader(raw[artifactsHeader : len(raw)-4])
	dec := gob.NewDecoder(r)
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

// notArtifacts explains a file that does not open with the artifact
// magic. Files before version 4 opened with a gob-encoded header
// instead; one of those is refused with ErrVersion, like any other
// version.
func notArtifacts(raw []byte) error {
	var old struct {
		Magic   string
		Version int
	}
	if gob.NewDecoder(bytes.NewReader(raw)).Decode(&old) == nil && old.Magic == artifactsMagic {
		return fmt.Errorf("%w: artifact file has version %d, this binary reads %d", ErrVersion, old.Version, Version)
	}
	return fmt.Errorf("snapshot: not a rads artifact file (it opens with %q)", raw[:min(len(raw), 8)])
}

// decodeErr normalizes gob's bare EOFs on truncated input.
func decodeErr(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}
