package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"slices"

	"rads/internal/graph"
)

// The TCP wire format. Both directions of a connection carry frames:
//
//	u32 length | u8 kind | [i32 from | i32 to] | payload
//
// length counts everything after itself; from and to are present on
// request kinds only. All integers are little-endian. The eight
// data-plane messages, and ping, are hand-encoded in exactly the widths
// ByteSize accounts — 4 B a vertex, 8 B an edge, 1 B a bool, 8 B an
// int — so an accounted byte is a payload byte. Their element counts
// are not transmitted: they follow from the payload length, which
// leaves a decoder nothing to believe beyond the (capped) frame length.
// Everything else — shuffle, and whatever kinds other packages
// gob.Register (the rads control plane) — rides as a gob payload under
// kindGobReq/kindGobResp, a fresh encoder per frame: a dozen such
// frames a query make stream-level type caching irrelevant. (Ping is
// fixed-width because a fresh gob codec per heartbeat doubled its round
// trip, the one control message whose latency is watched.) A handler
// error travels as kindError with the text as payload.
//
// There is no version byte: radsworker and radserve are built from
// this repository, and WaitReady refuses a fleet whose partition
// fingerprints differ, so there is no second build to negotiate with.
const (
	kindVerifyEReq byte = iota + 1
	kindVerifyEResp
	kindFetchVReq
	kindFetchVResp
	kindCheckRReq
	kindCheckRResp
	kindShareRReq
	kindShareRResp
	kindPingReq
	kindPingResp
	kindGobReq
	kindGobResp
	kindError
)

// maxFrame caps the announced length of a frame, checked before any
// allocation on the reading side and before any byte is written on the
// sending side. The largest messages the tree produces are a fetchV
// reply — bounded by one machine's whole shard, 4 B × (2|E|+|V|)/M —
// and a baseline's shuffle batch, bounded by the sender's memory
// budget. The built-in dataset analogs are under 2 MiB of adjacency in
// total and a statsPull snapshot or a runQuery reply with its 4096-span
// cap stays under 1 MiB; the paper's LiveJournal (4.8 M vertices, 43 M
// edges) is ~360 MB of adjacency, so half of it — one shard of the
// smallest cluster that has a wire at all — still fits. Anything larger
// fails that one call by name instead of being sent.
const maxFrame = 256 << 20

// A connection's frame buffers are reused across messages; one that
// grew past maxKeptBuf for a rare large frame is released after it.
const maxKeptBuf = 1 << 20

func kept(buf []byte) []byte {
	if cap(buf) > maxKeptBuf {
		return nil
	}
	return buf
}

// readChunk is the first allocation step for a frame body larger than
// the buffer at hand: the buffer then doubles only as bytes actually
// arrive, so an announced length costs nothing until it is backed.
const readChunk = 64 << 10

var (
	errFrameTooLarge = errors.New("frame exceeds the cap")
	errMalformed     = errors.New("malformed frame")
)

// frame is one decoded wire frame. from and to are meaningful on
// request kinds, errText on kindError, msg on everything else.
type frame struct {
	kind     byte
	from, to int
	msg      Message
	errText  string
}

func errorFrame(text string) frame { return frame{kind: kindError, errText: text} }

func isRequestKind(k byte) bool {
	switch k {
	case kindVerifyEReq, kindFetchVReq, kindCheckRReq, kindShareRReq, kindPingReq, kindGobReq:
		return true
	}
	return false
}

// kindOf returns the wire kind msg travels under in the given
// direction.
func kindOf(msg Message, request bool) byte {
	switch msg.(type) {
	case *VerifyERequest:
		return kindVerifyEReq
	case *VerifyEResponse:
		return kindVerifyEResp
	case *FetchVRequest:
		return kindFetchVReq
	case *FetchVResponse:
		return kindFetchVResp
	case *CheckRRequest:
		return kindCheckRReq
	case *CheckRResponse:
		return kindCheckRResp
	case *ShareRRequest:
		return kindShareRReq
	case *ShareRResponse:
		return kindShareRResp
	case *PingRequest:
		return kindPingReq
	case *PingResponse:
		return kindPingResp
	}
	if request {
		return kindGobReq
	}
	return kindGobResp
}

// readFrame reads one frame body (everything after the length prefix)
// into *buf, growing it as needed, and returns it. The result aliases
// *buf and is valid until the next call.
func readFrame(r *bufio.Reader, buf *[]byte) ([]byte, error) {
	hdr, err := r.Peek(4)
	if err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr))
	r.Discard(4)
	if n > maxFrame {
		return nil, fmt.Errorf("%w: peer announced %d bytes, cap %d", errFrameTooLarge, n, maxFrame)
	}
	b := (*buf)[:0]
	for len(b) < n {
		step := n - len(b)
		if len(b)+step > cap(b) {
			step = min(step, max(len(b), readChunk))
		}
		b = slices.Grow(b, step)[:len(b)+step]
		if _, err := io.ReadFull(r, b[len(b)-step:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	*buf = b
	return b, nil
}

// appendFrame appends f, length prefix included, to dst. It refuses a
// frame above the cap before the caller has written a byte of it — for
// the fixed-width kinds before encoding one, since their size is the
// accounted one.
func appendFrame(dst []byte, f frame) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, f.kind)
	if isRequestKind(f.kind) {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(f.from)))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(f.to)))
	}
	if gob := f.kind == kindGobReq || f.kind == kindGobResp; !gob && f.msg != nil {
		if n := len(dst) - start - 4 + f.msg.ByteSize(); n > maxFrame {
			return dst[:start], tooLarge(f.msg, n)
		}
	}
	switch m := f.msg.(type) {
	case *VerifyERequest:
		dst = slices.Grow(dst, len(m.Edges)*EdgeWire)
		for _, e := range m.Edges {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(e.U))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(e.V))
		}
	case *VerifyEResponse:
		dst = slices.Grow(dst, len(m.Exists))
		for _, ok := range m.Exists {
			dst = append(dst, b2u(ok))
		}
	case *FetchVRequest:
		dst = appendVertices(dst, m.Vertices)
	case *FetchVResponse:
		dst = slices.Grow(dst, m.ByteSize())
		for _, a := range m.Adj {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(a)))
			dst = appendVertices(dst, a)
		}
	case *CheckRRequest, *ShareRRequest, *PingRequest:
		dst = append(dst, 0) // the one accounted byte of an empty request
	case *CheckRResponse:
		dst = binary.LittleEndian.AppendUint64(dst, uint64(m.Unprocessed))
	case *ShareRResponse:
		dst = append(dst, b2u(m.OK))
		dst = appendVertices(dst, m.Group)
	case *PingResponse:
		dst = binary.LittleEndian.AppendUint64(dst, uint64(m.Machine))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(m.Vertices))
		dst = binary.LittleEndian.AppendUint64(dst, m.PartitionHash)
	case nil:
		dst = append(dst, f.errText...)
	default:
		w := appender{dst}
		msg := f.msg // gob wants a pointer to the interface; keep f off the heap
		if err := gob.NewEncoder(&w).Encode(&msg); err != nil {
			return dst[:start], fmt.Errorf("cluster: encode %s: %w", Kind(f.msg), err)
		}
		dst = w.b
	}
	n := len(dst) - start - 4
	if n > maxFrame {
		return dst[:start], tooLarge(f.msg, n)
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(n))
	return dst, nil
}

func tooLarge(msg Message, n int) error {
	what := "error reply"
	if msg != nil {
		what = fmt.Sprintf("%T", msg)
	}
	return fmt.Errorf("cluster: %s: %w: %d bytes, cap %d", what, errFrameTooLarge, n, maxFrame)
}

// decodeFrame parses one frame body. Every slice it returns is freshly
// allocated (the body buffer is reused), and sized from the bytes that
// are actually there.
func decodeFrame(body []byte) (frame, error) {
	if len(body) == 0 {
		return frame{}, fmt.Errorf("%w: empty frame", errMalformed)
	}
	f := frame{kind: body[0]}
	p := body[1:]
	if isRequestKind(f.kind) {
		if len(p) < 8 {
			return frame{}, fmt.Errorf("%w: kind %d: %d bytes where from/to belong", errMalformed, f.kind, len(p))
		}
		f.from = int(int32(binary.LittleEndian.Uint32(p)))
		f.to = int(int32(binary.LittleEndian.Uint32(p[4:])))
		p = p[8:]
	}
	bad := func(format string, args ...any) (frame, error) {
		return frame{}, fmt.Errorf("%w: kind %d: %s", errMalformed, body[0], fmt.Sprintf(format, args...))
	}
	switch f.kind {
	case kindVerifyEReq:
		if len(p)%EdgeWire != 0 {
			return bad("%d trailing bytes after %d edges", len(p)%EdgeWire, len(p)/EdgeWire)
		}
		m := &VerifyERequest{}
		if n := len(p) / EdgeWire; n > 0 {
			m.Edges = make([]graph.Edge, n)
			for i := range m.Edges {
				m.Edges[i] = graph.Edge{
					U: graph.VertexID(binary.LittleEndian.Uint32(p[i*EdgeWire:])),
					V: graph.VertexID(binary.LittleEndian.Uint32(p[i*EdgeWire+VertexWire:])),
				}
			}
		}
		f.msg = m
	case kindVerifyEResp:
		m := &VerifyEResponse{}
		if len(p) > 0 {
			m.Exists = make([]bool, len(p))
			for i, b := range p {
				if b > 1 {
					return bad("existence byte %d is %d", i, b)
				}
				m.Exists[i] = b == 1
			}
		}
		f.msg = m
	case kindFetchVReq:
		vs, err := decodeVertices(p)
		if err != nil {
			return bad("%v", err)
		}
		f.msg = &FetchVRequest{Vertices: vs}
	case kindFetchVResp:
		// First pass: walk the length headers, checking every count
		// against the bytes that remain, so the second can allocate
		// exactly.
		lists, total := 0, 0
		for q := p; len(q) > 0; lists++ {
			if len(q) < VertexWire {
				return bad("%d trailing bytes after %d lists", len(q), lists)
			}
			n := int(binary.LittleEndian.Uint32(q))
			if n > (len(q)-VertexWire)/VertexWire {
				return bad("list %d announces %d vertices, %d bytes remain", lists, n, len(q)-VertexWire)
			}
			total += n
			q = q[VertexWire*(n+1):]
		}
		m := &FetchVResponse{}
		if lists > 0 {
			m.Adj = make([][]graph.VertexID, lists)
			flat := make([]graph.VertexID, total)
			for i := range m.Adj {
				n := int(binary.LittleEndian.Uint32(p))
				m.Adj[i] = flat[:n:n]
				for j := range m.Adj[i] {
					m.Adj[i][j] = graph.VertexID(binary.LittleEndian.Uint32(p[VertexWire*(j+1):]))
				}
				flat, p = flat[n:], p[VertexWire*(n+1):]
			}
		}
		f.msg = m
	case kindCheckRReq, kindShareRReq, kindPingReq:
		if len(p) != 1 || p[0] != 0 {
			return bad("want one zero byte, got %d bytes", len(p))
		}
		switch f.kind {
		case kindCheckRReq:
			f.msg = &CheckRRequest{}
		case kindShareRReq:
			f.msg = &ShareRRequest{}
		default:
			f.msg = &PingRequest{}
		}
	case kindCheckRResp:
		if len(p) != intWire {
			return bad("want %d bytes, got %d", intWire, len(p))
		}
		f.msg = &CheckRResponse{Unprocessed: int(int64(binary.LittleEndian.Uint64(p)))}
	case kindShareRResp:
		if len(p) == 0 || p[0] > 1 {
			return bad("missing or invalid OK byte")
		}
		vs, err := decodeVertices(p[1:])
		if err != nil {
			return bad("%v", err)
		}
		f.msg = &ShareRResponse{OK: p[0] == 1, Group: vs}
	case kindPingResp:
		if len(p) != 3*intWire {
			return bad("want %d bytes, got %d", 3*intWire, len(p))
		}
		f.msg = &PingResponse{
			Machine:       int(int64(binary.LittleEndian.Uint64(p))),
			Vertices:      int(int64(binary.LittleEndian.Uint64(p[intWire:]))),
			PartitionHash: binary.LittleEndian.Uint64(p[2*intWire:]),
		}
	case kindGobReq, kindGobResp:
		r := bytes.NewReader(p)
		if err := gob.NewDecoder(r).Decode(&f.msg); err != nil {
			return bad("gob payload: %v", err)
		}
		if f.msg == nil {
			return bad("gob payload carries no message")
		}
		if r.Len() != 0 {
			return bad("%d trailing bytes after the gob payload", r.Len())
		}
	case kindError:
		f.errText = string(p)
	default:
		return frame{}, fmt.Errorf("%w: unknown kind tag %d", errMalformed, f.kind)
	}
	return f, nil
}

func appendVertices(dst []byte, vs []graph.VertexID) []byte {
	dst = slices.Grow(dst, len(vs)*VertexWire)
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	return dst
}

// decodeVertices reads a payload tail that is nothing but vertex IDs;
// an empty one decodes to nil.
func decodeVertices(p []byte) ([]graph.VertexID, error) {
	if len(p)%VertexWire != 0 {
		return nil, fmt.Errorf("%d trailing bytes after %d vertices", len(p)%VertexWire, len(p)/VertexWire)
	}
	if len(p) == 0 {
		return nil, nil
	}
	vs := make([]graph.VertexID, len(p)/VertexWire)
	for i := range vs {
		vs[i] = graph.VertexID(binary.LittleEndian.Uint32(p[i*VertexWire:]))
	}
	return vs, nil
}

func b2u(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// appender lets a gob encoder write straight into a frame buffer.
type appender struct{ b []byte }

func (a *appender) Write(p []byte) (int, error) {
	a.b = append(a.b, p...)
	return len(p), nil
}
