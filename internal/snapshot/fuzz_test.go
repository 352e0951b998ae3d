package snapshot

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"rads/internal/gen"
	"rads/internal/partition"
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
