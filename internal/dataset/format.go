package dataset

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"rads/internal/graph"
)

// The .radsgraph on-disk format, the binary sibling of the snapshot
// shard codec: everything little-endian, guarded front and back.
//
//	magic    [8]byte  "RADSGRPH"
//	version  uint32   FormatVersion
//	flags    uint32   bit 0: degree-ordered relabeling was applied
//	n        uint64   vertices
//	arcs     uint64   2m (length of the neighbour array)
//	maxdeg   uint64
//	offsets  (n+1) × int64
//	nbr      arcs × int32
//	crc      uint32   CRC-32C of every preceding byte
//
// A reader confronted with a different version refuses loudly
// (ErrFormatVersion); a truncated or bit-flipped file fails the exact
// length check or the trailing checksum, never loads as a silently
// smaller graph.

// FormatVersion is the .radsgraph version this binary reads and writes.
const FormatVersion = 1

const (
	fileMagic  = "RADSGRPH"
	headerSize = 8 + 4 + 4 + 8 + 8 + 8
	flagDegOrd = 1 << 0
)

// ErrFormatVersion marks a .radsgraph written by an incompatible
// format version. Callers test with errors.Is and re-ingest.
var ErrFormatVersion = errors.New("dataset: .radsgraph format version mismatch")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WriteFile persists g at path in .radsgraph format. degreeOrdered
// records whether the graph was relabeled hub-first at ingest time
// (metadata only; it does not change how the file loads).
func WriteFile(path string, g *graph.Graph, degreeOrdered bool) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	crc := crc32.New(castagnoli)
	bw := bufio.NewWriterSize(io.MultiWriter(f, crc), 1<<20)

	n := g.NumVertices()
	off, nbr := g.CSR()
	var flags uint32
	if degreeOrdered {
		flags |= flagDegOrd
	}
	hdr := make([]byte, headerSize)
	copy(hdr[0:8], fileMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], FormatVersion)
	binary.LittleEndian.PutUint32(hdr[12:16], flags)
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(n))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(len(nbr)))
	binary.LittleEndian.PutUint64(hdr[32:40], uint64(g.MaxDegree()))
	if _, err := bw.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("dataset: %w", err)
	}
	var scratch [8]byte
	for _, o := range off {
		binary.LittleEndian.PutUint64(scratch[:8], uint64(o))
		if _, err := bw.Write(scratch[:8]); err != nil {
			f.Close()
			return fmt.Errorf("dataset: %w", err)
		}
	}
	for _, v := range nbr {
		binary.LittleEndian.PutUint32(scratch[:4], uint32(v))
		if _, err := bw.Write(scratch[:4]); err != nil {
			f.Close()
			return fmt.Errorf("dataset: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("dataset: %w", err)
	}
	// The checksum trailer goes to the file only — it covers everything
	// already hashed.
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
	if _, err := f.Write(tail[:]); err != nil {
		f.Close()
		return fmt.Errorf("dataset: %w", err)
	}
	return f.Close()
}

// OpenFile loads a .radsgraph in one read, validates the header,
// length and trailing checksum, and revalidates the structural CSR
// invariants. It returns the graph plus whether the file records a
// degree-ordered relabeling.
func OpenFile(path string) (*graph.Graph, bool, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, false, fmt.Errorf("dataset: %w", err)
	}
	g, degOrd, err := decode(raw)
	if err != nil {
		return nil, false, fmt.Errorf("dataset: %s: %w", path, err)
	}
	return g, degOrd, nil
}

// decode parses .radsgraph bytes (the whole file). Whatever it accepts
// re-encodes to the same bytes: unknown flag bits are refused, not
// dropped.
func decode(raw []byte) (*graph.Graph, bool, error) {
	if len(raw) < headerSize+4 {
		return nil, false, fmt.Errorf("truncated: %d bytes is smaller than any valid .radsgraph", len(raw))
	}
	if string(raw[0:8]) != fileMagic {
		return nil, false, fmt.Errorf("not a .radsgraph file (magic %q)", raw[0:8])
	}
	if v := binary.LittleEndian.Uint32(raw[8:12]); v != FormatVersion {
		return nil, false, fmt.Errorf("%w: file has version %d, this binary reads %d", ErrFormatVersion, v, FormatVersion)
	}
	flags := binary.LittleEndian.Uint32(raw[12:16])
	if flags&^flagDegOrd != 0 {
		return nil, false, fmt.Errorf("unknown flag bits %#x", flags&^flagDegOrd)
	}
	n := binary.LittleEndian.Uint64(raw[16:24])
	arcs := binary.LittleEndian.Uint64(raw[24:32])
	maxDeg := binary.LittleEndian.Uint64(raw[32:40])

	const maxN = 1 << 31 // dense IDs must fit VertexID (int32)
	if n >= maxN {
		return nil, false, fmt.Errorf("header claims %d vertices, beyond the int32 ID space", n)
	}
	// Bound the claimed array lengths by the file itself before doing
	// size arithmetic: a forged arcs near 2^64 would otherwise wrap
	// `want` back around to the real file size and panic makeslice
	// below instead of erroring.
	if arcs > uint64(len(raw))/4 {
		return nil, false, fmt.Errorf("header claims %d arcs, impossible for a %d-byte file", arcs, len(raw))
	}
	want := uint64(headerSize) + (n+1)*8 + arcs*4 + 4
	if uint64(len(raw)) != want {
		return nil, false, fmt.Errorf("truncated or oversized: header (n=%d, arcs=%d) implies %d bytes, file has %d",
			n, arcs, want, len(raw))
	}
	body, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	if got, wantCRC := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(tail); got != wantCRC {
		return nil, false, fmt.Errorf("checksum mismatch: file carries %08x, content hashes to %08x", wantCRC, got)
	}

	off := make([]int64, n+1)
	p := headerSize
	for i := range off {
		off[i] = int64(binary.LittleEndian.Uint64(body[p:]))
		p += 8
	}
	nbr := make([]graph.VertexID, arcs)
	for i := range nbr {
		nbr[i] = graph.VertexID(binary.LittleEndian.Uint32(body[p:]))
		p += 4
	}
	g, err := graph.NewCSR(off, nbr)
	if err != nil {
		return nil, false, err
	}
	if maxDeg != uint64(g.MaxDegree()) {
		return nil, false, fmt.Errorf("header claims max degree %d, arrays say %d", maxDeg, g.MaxDegree())
	}
	return g, flags&flagDegOrd != 0, nil
}
