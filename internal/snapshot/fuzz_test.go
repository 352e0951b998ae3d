package snapshot

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/crc32"
	"os"
	"testing"

	"rads/internal/engine"
	_ "rads/internal/engine/all" // register the engines' artifact gob types
	"rads/internal/gen"
	"rads/internal/graph"
	"rads/internal/partition"
	"rads/internal/pattern"
)

// FuzzReadShard throws arbitrary bytes at the shard decoder, seeded
// with real shards, their truncations, flipped bits and headers forged
// with a recomputed checksum. It must never panic, and whatever it
// accepts must re-encode to the same bytes.
func FuzzReadShard(f *testing.F) {
	part := partition.KWay(gen.Community(3, 8, 0.4, 5), 3, 7)
	for t := 0; t < part.M; t++ {
		s := shard{ID: t, M: part.M, Owner: part.Owner, BorderDist: part.BorderDistances(t)}
		f.Add(encodeShard(&s))
	}
	valid := encodeShard(&shard{ID: 1, M: part.M, Owner: part.Owner, BorderDist: part.BorderDistances(1)})
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:shardHeader])
	flipped := bytes.Clone(valid)
	flipped[shardHeader+3] ^= 0x10
	f.Add(flipped)
	forge := func(off int, v uint32) []byte {
		b := bytes.Clone(valid)
		binary.LittleEndian.PutUint32(b[off:], v)
		binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.Checksum(b[:len(b)-4], castagnoli))
		return b
	}
	f.Add(forge(12, 7))          // id outside the fleet
	f.Add(forge(16, 1<<31))      // machines beyond int32
	f.Add(forge(20, 1<<30))      // n beyond the file
	f.Add(forge(20, 3))          // n shorter than the owner vector
	f.Add(forge(shardHeader, 9)) // an owner outside the fleet
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := decodeShard(raw)
		if err != nil {
			return
		}
		if got := encodeShard(s); !bytes.Equal(got, raw) {
			t.Fatalf("accepted shard re-encodes to %d different bytes (input %d)", len(got), len(raw))
		}
	})
}

// FuzzDecodeLabels throws arbitrary bytes at the labels decoder, seeded
// like FuzzReadShard. It must never panic, whatever it accepts must be
// a permutation (decodeLabels checks) that re-encodes to the same
// bytes.
func FuzzDecodeLabels(f *testing.F) {
	_, labels := graph.HubFirst(gen.PowerLaw(60, 4, 2.5, 20, 3))
	valid := encodeLabels(labels)
	f.Add(valid)
	f.Add(encodeLabels([]graph.VertexID{}))
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:labelsHeader])
	flipped := bytes.Clone(valid)
	flipped[labelsHeader+1] ^= 0x01
	f.Add(flipped)
	forge := func(off int, v uint32) []byte {
		b := bytes.Clone(valid)
		binary.LittleEndian.PutUint32(b[off:], v)
		binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.Checksum(b[:len(b)-4], castagnoli))
		return b
	}
	f.Add(forge(8, Version+1))                    // another version
	f.Add(forge(12, 1<<30))                       // n beyond the file
	f.Add(forge(labelsHeader, uint32(labels[1]))) // a repeated label
	f.Add(forge(labelsHeader, 60))                // a label outside [0,n)
	f.Fuzz(func(t *testing.T, raw []byte) {
		labels, err := decodeLabels(raw)
		if err != nil {
			return
		}
		if got := encodeLabels(labels); !bytes.Equal(got, raw) {
			t.Fatalf("accepted labels re-encode to %d different bytes (input %d)", len(got), len(raw))
		}
	})
}

// FuzzReadArtifacts throws arbitrary bytes at the artifact decoder,
// seeded with a real dump of two engines' artifacts, its truncations,
// a flipped bit and trailing garbage. It must never panic, and every
// entry it accepts must carry an artifact and survive a rewrite.
func FuzzReadArtifacts(f *testing.F) {
	part := partition.KWay(gen.Community(3, 8, 0.4, 5), 3, 7)
	entries := map[string]engine.Artifact{}
	for _, name := range []string{"RADS", "Crystal"} {
		e, _ := engine.Lookup(name)
		art, err := e.Prepare(part, pattern.Triangle())
		if err != nil {
			f.Fatal(err)
		}
		entries[name] = art
	}
	dir := f.TempDir()
	if err := WriteArtifacts(dir, entries); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(ArtifactsPath(dir))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-1])
	f.Add(append(bytes.Clone(valid), 0))
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	var nilEntry bytes.Buffer
	enc := gob.NewEncoder(&nilEntry)
	enc.Encode(header{Magic: artifactsMagic, Version: Version})
	enc.Encode(1)
	enc.Encode(artifactEntry{Key: "k"})
	f.Add(nilEntry.Bytes())
	f.Fuzz(func(t *testing.T, raw []byte) {
		got, err := decodeArtifacts(raw)
		if err != nil {
			return
		}
		for k, a := range got {
			if a == nil {
				t.Fatalf("accepted entry %q without an artifact", k)
			}
		}
		out := t.TempDir()
		if err := WriteArtifacts(out, got); err != nil {
			t.Fatalf("accepted artifacts do not re-encode: %v", err)
		}
		again, err := ReadArtifacts(out)
		if err != nil || len(again) != len(got) {
			t.Fatalf("accepted artifacts re-read as %d entries, err %v; want %d", len(again), err, len(got))
		}
	})
}
