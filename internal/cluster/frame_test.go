package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rads/internal/graph"
)

// sampleMessages is one message of every kind this package puts on the
// wire, with the shapes that have tripped codecs before: empty lists,
// a zero-length adjacency list inside a reply, negative ids.
func sampleMessages() []Message {
	return []Message{
		&VerifyERequest{Edges: []graph.Edge{{U: 1, V: 2}, {U: -7, V: 1 << 30}}},
		&VerifyERequest{},
		&VerifyEResponse{Exists: []bool{true, false, true}},
		&VerifyEResponse{},
		&FetchVRequest{Vertices: []graph.VertexID{0, 5, -1}},
		&FetchVRequest{},
		&FetchVResponse{Adj: [][]graph.VertexID{{1, 2, 3}, {}, {-4}}},
		&FetchVResponse{},
		&CheckRRequest{},
		&CheckRResponse{Unprocessed: -3},
		&CheckRResponse{Unprocessed: 1 << 40},
		&ShareRRequest{},
		&ShareRResponse{OK: true, Group: []graph.VertexID{9, 8, 7}},
		&ShareRResponse{},
		&ShuffleRequest{Round: 3, Rows: [][]graph.VertexID{{1, 2}, {3}}},
		&ShuffleResponse{},
		&PingRequest{},
		&PingResponse{Machine: 2, Vertices: 2400, PartitionHash: 0xdeadbeefcafe},
	}
}

func isRequest(m Message) bool {
	switch m.(type) {
	case *VerifyERequest, *FetchVRequest, *CheckRRequest, *ShareRRequest, *ShuffleRequest, *PingRequest:
		return true
	}
	return false
}

func mustFrame(t testing.TB, f frame) []byte {
	t.Helper()
	b, err := appendFrame(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func frameOf(m Message) frame {
	req := isRequest(m)
	f := frame{kind: kindOf(m, req), msg: m}
	if req {
		f.from, f.to = -1, 3 // the coordinator asks machine 3
	}
	return f
}

// TestFrameRoundTrip: every kind decodes to what was encoded, and for
// the fixed-width kinds — the eight data-plane ones and ping — the
// accounted size is the payload size.
func TestFrameRoundTrip(t *testing.T) {
	for _, m := range sampleMessages() {
		f := frameOf(m)
		b := mustFrame(t, f)
		if n := int(binary.LittleEndian.Uint32(b)); n != len(b)-4 {
			t.Fatalf("%T: length prefix %d, frame body %d", m, n, len(b)-4)
		}
		got, err := decodeFrame(b[4:])
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		if got.kind != f.kind || got.from != f.from || got.to != f.to || !reflect.DeepEqual(got.msg, m) {
			t.Errorf("%T: decoded %+v (%+v), want %+v (%+v)", m, got, got.msg, f, m)
		}
		if f.kind != kindGobReq && f.kind != kindGobResp {
			header := 5
			if isRequest(m) {
				header += 8
			}
			if payload := len(b) - header; payload != m.ByteSize() {
				t.Errorf("%T: payload %d bytes, ByteSize %d", m, payload, m.ByteSize())
			}
		}
	}
	b := mustFrame(t, errorFrame("machine 9 is not hosted here"))
	if got, err := decodeFrame(b[4:]); err != nil || got.kind != kindError || got.errText != "machine 9 is not hosted here" {
		t.Errorf("error frame: %+v, %v", got, err)
	}
}

// TestEveryKindSurvivesTCP sends each request kind through a real
// loopback exchange whose handler answers with each response kind.
func TestEveryKindSurvivesTCP(t *testing.T) {
	tr, err := NewTCPTransport(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var reqs, resps []Message
	for _, m := range sampleMessages() {
		if isRequest(m) {
			reqs = append(reqs, m)
		} else {
			resps = append(resps, m)
		}
	}
	var mu sync.Mutex
	var got, answer Message
	tr.Register(1, func(from int, req Message) (Message, error) {
		mu.Lock()
		defer mu.Unlock()
		got = req
		return answer, nil
	})
	for _, req := range reqs {
		for _, resp := range resps {
			mu.Lock()
			answer = resp
			mu.Unlock()
			back, err := tr.Call(0, 1, req)
			if err != nil {
				t.Fatalf("%T -> %T: %v", req, resp, err)
			}
			mu.Lock()
			got := got
			mu.Unlock()
			if !reflect.DeepEqual(got, req) {
				t.Errorf("request %T arrived as %+v, want %+v", req, got, req)
			}
			if !reflect.DeepEqual(back, resp) {
				t.Errorf("response %T arrived as %+v, want %+v", resp, back, resp)
			}
		}
	}
}

// TestDecodeFrameRejects lists the malformed bodies the decoder must
// name instead of trusting.
func TestDecodeFrameRejects(t *testing.T) {
	req := func(kind byte, payload ...byte) []byte {
		return append([]byte{kind, 0, 0, 0, 0, 1, 0, 0, 0}, payload...)
	}
	cases := []struct {
		name string
		body []byte
		want string
	}{
		{"empty", nil, "empty frame"},
		{"unknown kind", []byte{200, 1, 2, 3}, "unknown kind tag 200"},
		{"kind zero", []byte{0}, "unknown kind tag 0"},
		{"request without from/to", []byte{kindVerifyEReq, 1, 2}, "from/to"},
		{"verifyE trailing", req(kindVerifyEReq, make([]byte, 9)...), "1 trailing bytes after 1 edges"},
		{"fetchV request trailing", req(kindFetchVReq, 1, 2, 3, 4, 5), "1 trailing bytes after 1 vertices"},
		{"bool out of range", []byte{kindVerifyEResp, 1, 2}, "existence byte 1 is 2"},
		{"list count beyond the bytes", []byte{kindFetchVResp, 3, 0, 0, 0, 1, 0, 0, 0}, "announces 3 vertices, 4 bytes remain"},
		{"huge list count", []byte{kindFetchVResp, 0xff, 0xff, 0xff, 0xff}, "announces 4294967295 vertices, 0 bytes remain"},
		{"list header cut", []byte{kindFetchVResp, 0, 0, 0, 0, 9, 9}, "2 trailing bytes after 1 lists"},
		{"checkR padding", req(kindCheckRReq), "want one zero byte"},
		{"checkR reply short", []byte{kindCheckRResp, 1, 2, 3}, "want 8 bytes, got 3"},
		{"shareR reply without OK", []byte{kindShareRResp}, "OK byte"},
		{"shareR reply trailing", []byte{kindShareRResp, 1, 1, 2, 3, 4, 5}, "1 trailing bytes"},
		{"ping reply short", []byte{kindPingResp, 1, 2, 3}, "want 24 bytes, got 3"},
		{"gob garbage", []byte{kindGobResp, 1, 2, 3}, "gob payload"},
	}
	for _, c := range cases {
		_, err := decodeFrame(c.body)
		if !errors.Is(err, errMalformed) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want malformed frame naming %q", c.name, err, c.want)
		}
	}
	// Trailing bytes behind a well-formed gob payload.
	b := mustFrame(t, frame{kind: kindGobResp, msg: &ShuffleResponse{}})
	if _, err := decodeFrame(append(b[4:], 0)); !errors.Is(err, errMalformed) || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("gob payload with a trailing byte: %v", err)
	}
}

// hugeReply is a fetchV reply that accounts more than the cap while
// occupying 4 MiB: every list is the same backing array.
func hugeReply() *FetchVResponse {
	list := make([]graph.VertexID, 1<<20)
	adj := make([][]graph.VertexID, maxFrame/(4<<20)+1)
	for i := range adj {
		adj[i] = list
	}
	return &FetchVResponse{Adj: adj}
}

// allocatedBy reports the bytes fn allocated (single-goroutine tests
// only: the counter is process-wide).
func allocatedBy(fn func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc
}

func TestSenderRefusesOversizedFrame(t *testing.T) {
	m := hugeReply()
	dst := []byte("keep")
	var out []byte
	var err error
	grew := allocatedBy(func() { out, err = appendFrame(dst, frame{kind: kindFetchVResp, msg: m}) })
	if !errors.Is(err, errFrameTooLarge) || !strings.Contains(err.Error(), "FetchVResponse") || !strings.Contains(err.Error(), fmt.Sprint(m.ByteSize()+1)) {
		t.Fatalf("err = %v, want the cap error naming the kind and %d bytes", err, m.ByteSize()+1)
	}
	if string(out) != "keep" {
		t.Errorf("refused frame left %d bytes in the buffer", len(out))
	}
	if grew > 1<<20 {
		t.Errorf("refusing the frame allocated %d bytes", grew)
	}
}

func TestReadFrameBoundsAllocationByWhatArrives(t *testing.T) {
	var buf []byte
	over := binary.LittleEndian.AppendUint32(nil, maxFrame+1)
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(over)), &buf); !errors.Is(err, errFrameTooLarge) {
		t.Errorf("announcement above the cap: %v", err)
	}
	// At the cap, ten bytes behind it: truncated, and cheap.
	short := append(binary.LittleEndian.AppendUint32(nil, maxFrame), make([]byte, 10)...)
	var err error
	grew := allocatedBy(func() { _, err = readFrame(bufio.NewReader(bytes.NewReader(short)), &buf) })
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated frame: %v", err)
	}
	if grew > 4*readChunk {
		t.Errorf("a %d-byte announcement backed by 10 bytes allocated %d", maxFrame, grew)
	}
	// A body larger than one chunk arrives whole through the doubling.
	big := mustFrame(t, frame{kind: kindFetchVResp, msg: &FetchVResponse{Adj: [][]graph.VertexID{make([]graph.VertexID, 100_000)}}})
	body, err := readFrame(bufio.NewReader(bytes.NewReader(big)), &buf)
	if err != nil || !bytes.Equal(body, big[4:]) {
		t.Errorf("large frame: %d bytes, %v; want %d", len(body), err, len(big)-4)
	}
}

// rawServerConn opens a raw connection to a TCPServer hosting an echo
// handler as machine 1.
func rawServerConn(t *testing.T, h Handler) net.Conn {
	t.Helper()
	srv, err := NewTCPServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	srv.Register(1, h)
	c, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(10 * time.Second))
	return c
}

// exchange writes raw bytes and decodes the one frame that comes back.
func exchange(t *testing.T, c net.Conn, raw []byte) frame {
	t.Helper()
	if _, err := c.Write(raw); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	body, err := readFrame(bufio.NewReader(c), &buf)
	if err != nil {
		t.Fatalf("no reply: %v", err)
	}
	f, err := decodeFrame(body)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func withLength(body []byte) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// TestServerAnswersMalformedFramesByName: a frame that is wrong inside
// but whose boundary holds gets the error reply, and the connection
// keeps serving.
func TestServerAnswersMalformedFramesByName(t *testing.T) {
	c := rawServerConn(t, echoHandler(t))
	good := mustFrame(t, frame{kind: kindCheckRReq, from: 0, to: 1, msg: &CheckRRequest{}})
	cases := []struct {
		name string
		raw  []byte
		want string
	}{
		{"unknown kind", withLength([]byte{77, 0, 0}), "unknown kind tag 77"},
		{"empty body", withLength(nil), "empty frame"},
		{"trailing bytes", withLength(append([]byte{kindVerifyEReq, 0, 0, 0, 0, 1, 0, 0, 0}, make([]byte, 13)...)), "5 trailing bytes after 1 edges"},
		{"a reply where a request belongs", mustFrame(t, frame{kind: kindCheckRResp, msg: &CheckRResponse{}}), "not a request"},
		{"unhosted machine", mustFrame(t, frame{kind: kindCheckRReq, from: 0, to: 5, msg: &CheckRRequest{}}), "machine 5 is not hosted here"},
	}
	for _, c2 := range cases {
		if f := exchange(t, c, c2.raw); f.kind != kindError || !strings.Contains(f.errText, c2.want) {
			t.Errorf("%s: reply %+v, want an error reply naming %q", c2.name, f, c2.want)
		}
		if f := exchange(t, c, good); f.kind != kindCheckRResp {
			t.Errorf("%s: the connection stopped serving: %+v", c2.name, f)
		}
	}
}

// TestServerClosesOnBrokenBoundary: above the cap, or cut short, there
// is no next frame to find — the server hangs up, having allocated
// nothing for the announcement.
func TestServerClosesOnBrokenBoundary(t *testing.T) {
	for name, raw := range map[string][]byte{
		"above the cap": binary.LittleEndian.AppendUint32(nil, maxFrame+1),
		"all ones":      {0xff, 0xff, 0xff, 0xff, kindVerifyEReq},
	} {
		c := rawServerConn(t, echoHandler(t))
		if _, err := c.Write(raw); err != nil {
			t.Fatal(err)
		}
		if n, err := c.Read(make([]byte, 16)); n != 0 || err == nil {
			t.Errorf("%s: read %d bytes, %v; want the server to hang up", name, n, err)
		}
	}
	// Truncated: announce 100 bytes, send 3, half-close.
	c := rawServerConn(t, echoHandler(t))
	c.Write(append(binary.LittleEndian.AppendUint32(nil, 100), 1, 2, 3))
	c.(*net.TCPConn).CloseWrite()
	if n, err := c.Read(make([]byte, 16)); n != 0 || err == nil {
		t.Errorf("truncated frame: read %d bytes, %v; want the server to hang up", n, err)
	}
}

// TestOversizedResponseFailsOneCall: a handler answer above the cap
// reaches the caller as ErrRemote naming kind and size — not as a dead
// stream the retry layer would redial into three times — and the same
// connection serves the next call.
func TestOversizedResponseFailsOneCall(t *testing.T) {
	tr, err := NewTCPTransport(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	huge := hugeReply()
	var accepted atomic.Int64
	tr.Register(1, func(from int, req Message) (Message, error) {
		accepted.Add(1)
		if r := req.(*FetchVRequest); len(r.Vertices) == 0 {
			return huge, nil
		}
		return &FetchVResponse{Adj: [][]graph.VertexID{{1}}}, nil
	})
	_, err = tr.Call(0, 1, &FetchVRequest{})
	if !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), "FetchVResponse") || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("err = %v, want ErrRemote naming the kind and the cap", err)
	}
	if _, err := tr.Call(0, 1, &FetchVRequest{Vertices: []graph.VertexID{4}}); err != nil {
		t.Fatalf("the call after the oversized one: %v", err)
	}
	if accepted.Load() != 2 {
		t.Errorf("handler ran %d times, want 2", accepted.Load())
	}
}

// fakePeer is a raw listener that answers every request frame with the
// next scripted byte string — hanging up behind it when hangUp is set,
// and when the script runs out; it counts the connections it accepted.
type fakePeer struct {
	ln       net.Listener
	accepted atomic.Int64
	mu       sync.Mutex
	script   [][]byte
	hangUp   bool
	wg       sync.WaitGroup
}

func newFakePeer(t *testing.T, script ...[]byte) *fakePeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &fakePeer{ln: ln, script: script}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			p.accepted.Add(1)
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				defer c.Close()
				br := bufio.NewReader(c)
				var buf []byte
				for {
					if _, err := readFrame(br, &buf); err != nil {
						return
					}
					p.mu.Lock()
					var out []byte
					if len(p.script) > 0 {
						out, p.script = p.script[0], p.script[1:]
					}
					hangUp := p.hangUp
					p.mu.Unlock()
					if out == nil {
						return
					}
					if _, err := c.Write(out); err != nil || hangUp {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() { ln.Close(); p.wg.Wait() })
	return p
}

// TestClientTreatsMalformedRepliesAsFailedCalls drives the dial side
// with a raw peer: each bad reply fails that call (not as ErrRemote —
// nothing was answered), drops the pooled connection, and the next call
// redials and succeeds.
func TestClientTreatsMalformedRepliesAsFailedCalls(t *testing.T) {
	good := mustFrame(t, frame{kind: kindCheckRResp, msg: &CheckRResponse{Unprocessed: 4}})
	bad := map[string][]byte{
		"above the cap":         binary.LittleEndian.AppendUint32(nil, maxFrame+1),
		"truncated":             append(binary.LittleEndian.AppendUint32(nil, 50), 1, 2, 3),
		"unknown kind":          withLength([]byte{99, 1}),
		"count beyond bytes":    withLength([]byte{kindFetchVResp, 9, 0, 0, 0}),
		"trailing bytes":        withLength([]byte{kindCheckRResp, 0, 0, 0, 0, 0, 0, 0, 0, 0}),
		"a request as reply":    mustFrame(t, frame{kind: kindCheckRReq, from: 1, to: 0, msg: &CheckRRequest{}}),
		"two frames for one":    append(append([]byte(nil), good...), good...),
		"empty frame":           withLength(nil),
		"bool that is not 0/1":  withLength([]byte{kindVerifyEResp, 7}),
		"gob payload of no one": withLength([]byte{kindGobResp, 3, 1, 2, 3}),
	}
	for name, reply := range bad {
		t.Run(name, func(t *testing.T) {
			peer := newFakePeer(t, reply)
			peer.hangUp = name == "truncated"
			client := NewTCPClient(ClusterSpec{Machines: []string{"127.0.0.1:1", peer.ln.Addr().String()}}, nil)
			defer client.Close()
			client.SetCallTimeout(5 * time.Second)
			_, err := client.Call(0, 1, &CheckRRequest{})
			if err == nil || errors.Is(err, ErrRemote) || errors.Is(err, ErrTimeout) {
				t.Fatalf("err = %v, want a failed call", err)
			}
			// The next call must not inherit the poisoned stream.
			peer.mu.Lock()
			peer.script, peer.hangUp = [][]byte{good}, false
			peer.mu.Unlock()
			resp, err := client.Call(0, 1, &CheckRRequest{})
			if err != nil {
				t.Fatalf("call after the bad reply: %v", err)
			}
			if resp.(*CheckRResponse).Unprocessed != 4 {
				t.Errorf("resp = %+v", resp)
			}
			if n := peer.accepted.Load(); n != 2 {
				t.Errorf("peer accepted %d connections, want a redial (2)", n)
			}
		})
	}
}

// TestErrorReplyKeepsConnection: an error reply is an answer; the
// pooled connection stays.
func TestErrorReplyKeepsConnection(t *testing.T) {
	peer := newFakePeer(t,
		mustFrame(t, errorFrame("no such luck")),
		mustFrame(t, frame{kind: kindCheckRResp, msg: &CheckRResponse{Unprocessed: 1}}))
	client := NewTCPClient(ClusterSpec{Machines: []string{"127.0.0.1:1", peer.ln.Addr().String()}}, nil)
	defer client.Close()
	if _, err := client.Call(0, 1, &CheckRRequest{}); !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), "no such luck") {
		t.Fatalf("err = %v", err)
	}
	if _, err := client.Call(0, 1, &CheckRRequest{}); err != nil {
		t.Fatal(err)
	}
	if n := peer.accepted.Load(); n != 1 {
		t.Errorf("peer accepted %d connections, want 1", n)
	}
}

// TestConcurrentConnectionsMixedKinds hammers every (from, to) pair of
// a four-machine transport from several goroutines each with every
// request kind, checking each reply belongs to its request. Run with
// -race -count=10.
func TestConcurrentConnectionsMixedKinds(t *testing.T) {
	const m = 4
	tr, err := NewTCPTransport(m, NewMetrics(m))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for i := 0; i < m; i++ {
		tr.Register(i, func(from int, req Message) (Message, error) {
			switch r := req.(type) {
			case *VerifyERequest:
				out := make([]bool, len(r.Edges))
				for i, e := range r.Edges {
					out[i] = e.U == graph.VertexID(from)
				}
				return &VerifyEResponse{Exists: out}, nil
			case *FetchVRequest:
				adj := make([][]graph.VertexID, len(r.Vertices))
				for i, v := range r.Vertices {
					adj[i] = make([]graph.VertexID, int(v)%5)
					for j := range adj[i] {
						adj[i][j] = v
					}
				}
				return &FetchVResponse{Adj: adj}, nil
			case *PingRequest:
				return &PingResponse{Machine: from}, nil
			case *ShareRRequest:
				return nil, fmt.Errorf("nothing for %d", from)
			}
			return nil, fmt.Errorf("unexpected %T", req)
		})
	}
	var wg sync.WaitGroup
	for from := 0; from < m; from++ {
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func(from, g int) {
				defer wg.Done()
				for k := 0; k < 40; k++ {
					to := (from + 1 + (g+k)%(m-1)) % m
					n := (k*7+g)%23 + 1
					switch k % 4 {
					case 0:
						edges := make([]graph.Edge, n)
						for i := range edges {
							edges[i] = graph.Edge{U: graph.VertexID(from + i%2), V: graph.VertexID(k)}
						}
						resp, err := tr.Call(from, to, &VerifyERequest{Edges: edges})
						if err != nil {
							t.Error(err)
							return
						}
						for i, ok := range resp.(*VerifyEResponse).Exists {
							if ok != (i%2 == 0) {
								t.Errorf("verifyE %d->%d: bit %d of %d is %v", from, to, i, n, ok)
								return
							}
						}
					case 1:
						vs := make([]graph.VertexID, n)
						for i := range vs {
							vs[i] = graph.VertexID(100*from + i)
						}
						resp, err := tr.Call(from, to, &FetchVRequest{Vertices: vs})
						if err != nil {
							t.Error(err)
							return
						}
						for i, a := range resp.(*FetchVResponse).Adj {
							if len(a) != int(vs[i])%5 || (len(a) > 0 && a[0] != vs[i]) {
								t.Errorf("fetchV %d->%d: list %d = %v for vertex %d", from, to, i, a, vs[i])
								return
							}
						}
					case 2:
						resp, err := tr.Call(from, to, &PingRequest{})
						if err != nil || resp.(*PingResponse).Machine != from {
							t.Errorf("ping %d->%d: %+v, %v", from, to, resp, err)
							return
						}
					case 3:
						if _, err := tr.Call(from, to, &ShareRRequest{}); !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), fmt.Sprintf("nothing for %d", from)) {
							t.Errorf("shareR %d->%d: %v", from, to, err)
							return
						}
					}
				}
			}(from, g)
		}
	}
	wg.Wait()
}

// FuzzDecodeFrame feeds arbitrary bytes to the reading side exactly as
// a connection would. It must never panic; whatever it accepts must
// account no more than the bytes that carried it (so no allocation
// beyond a constant factor of the input); and the fixed-width kinds are
// canonical: re-encoding what decoded gives the input back. Gob
// payloads are not canonical byte-wise, so for them the re-encoded
// frame must decode to the same message.
func FuzzDecodeFrame(f *testing.F) {
	for _, m := range sampleMessages() {
		f.Add(mustFrame(f, frameOf(m)))
	}
	f.Add(mustFrame(f, errorFrame("machine 3 is not hosted here")))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1})
	f.Add(withLength([]byte{kindFetchVResp, 0xff, 0xff, 0xff, 0x7f}))
	f.Fuzz(func(t *testing.T, in []byte) {
		var buf []byte
		body, err := readFrame(bufio.NewReader(bytes.NewReader(in)), &buf)
		if err != nil {
			return
		}
		if len(body) > len(in)-4 {
			t.Fatalf("read %d bytes out of %d", len(body), len(in))
		}
		got, err := decodeFrame(body)
		if err != nil {
			return
		}
		again, err := appendFrame(nil, got)
		if err != nil {
			t.Fatalf("decoded frame does not re-encode: %v", err)
		}
		switch got.kind {
		case kindGobReq, kindGobResp:
			back, err := decodeFrame(again[4:])
			if err != nil || !reflect.DeepEqual(back, got) {
				t.Fatalf("gob frame changed across a re-encode: %+v -> %+v (%v)", got.msg, back.msg, err)
			}
		default:
			if !bytes.Equal(again, in[:4+len(body)]) {
				t.Fatalf("kind %d is not canonical:\n in  %x\n out %x", got.kind, in[:4+len(body)], again)
			}
			if got.msg != nil && got.msg.ByteSize() > len(body) {
				t.Fatalf("kind %d: %d accounted bytes from a %d-byte body", got.kind, got.msg.ByteSize(), len(body))
			}
		}
	})
}
