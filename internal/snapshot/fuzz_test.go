package snapshot

import (
	"bytes"
	"encoding/binary"
	"testing"

	"rads/internal/gen"
	"rads/internal/graph"
	"rads/internal/partition"
)

// reseal replaces b's trailer with the checksum of the bytes before
// it, so a forged or mutated body gets past the CRC to the decoder
// behind it.
func reseal(b []byte) []byte {
	if len(b) < 4 {
		return b
	}
	return seal(bytes.Clone(b[:len(b)-4]))
}

// FuzzReadShard throws arbitrary bytes at the shard decoder, seeded
// with real shards, their truncations, flipped bits and headers forged
// with a recomputed checksum. It must never panic, and whatever it
// accepts must re-encode to the same bytes.
func FuzzReadShard(f *testing.F) {
	part := partition.KWay(gen.Community(3, 8, 0.4, 5), 3, 7)
	for t := 0; t < part.M; t++ {
		f.Add(encodeShard(&shard{ID: t, M: part.M, Owner: part.Owner}))
	}
	valid := encodeShard(&shard{ID: 1, M: part.M, Owner: part.Owner})
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:shardHeader])
	flipped := bytes.Clone(valid)
	flipped[shardHeader+3] ^= 0x10
	f.Add(flipped)
	forge := func(off int, v uint32) []byte {
		b := bytes.Clone(valid)
		binary.LittleEndian.PutUint32(b[off:], v)
		return reseal(b)
	}
	f.Add(forge(12, 7))          // id outside the fleet
	f.Add(forge(16, 1<<31))      // machines beyond int32
	f.Add(forge(20, 1<<30))      // n beyond the file
	f.Add(forge(20, 3))          // n shorter than the owner vector
	f.Add(forge(shardHeader, 9)) // an owner outside the fleet
	f.Add(forge(8, 3))           // a version-3 shard
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
		return reseal(b)
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
