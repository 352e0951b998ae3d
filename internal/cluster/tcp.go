package cluster

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"maps"
	"net"
	"sync"
	"time"
)

func init() {
	// The baselines' shuffle travels as a gob payload (see frame.go);
	// the data plane and ping are hand-encoded and need no registration.
	gob.Register(&ShuffleRequest{})
	gob.Register(&ShuffleResponse{})
}

// ErrRemote marks an error produced by the remote handler itself: the
// request was delivered and answered, so the failure is application-
// level, not connectivity. Callers that retry transient transport
// failures (startup pings) must NOT retry these — a misrouted address
// book answers instantly and forever.
var ErrRemote = errors.New("remote error")

// ErrTimeout marks a call that hit its per-call deadline: the peer
// accepted the connection (or held one open) but did not answer in
// time. A wedged worker surfaces as this error instead of hanging the
// caller forever; the poisoned connection is dropped from the pool.
var ErrTimeout = errors.New("cluster: rpc deadline exceeded")

// TCPServer is the listen side of the TCP substrate: one listener that
// serves daemon requests for every machine Registered on it. A worker
// process runs one TCPServer for all machines it hosts; the all-in-one
// TCPTransport runs one per machine to mirror the historical layout.
type TCPServer struct {
	mu       sync.RWMutex
	handlers map[int]Handler
	// observer, when set, receives the handler execution time of every
	// served request (label = message kind). Workers point it at a
	// rads_handle_seconds histogram family.
	observer func(kind string, seconds float64)

	ln net.Listener
	wg sync.WaitGroup

	acceptedMu sync.Mutex
	accepted   map[net.Conn]struct{}
	closing    bool
}

// NewTCPServer starts a server listening on addr (host:port; port 0
// picks a free port — read it back with Addr), with no handler yet.
func NewTCPServer(addr string) (*TCPServer, error) { return ServeTCP(addr, nil) }

// ServeTCP starts a server listening on addr that serves handlers (by
// machine id). Every handler is installed before the first connection
// is accepted, so a caller never meets a listening process that does
// not host a machine it will host: a worker process builds its machines
// first and then calls ServeTCP, and until then a dial is refused, which
// callers retry, where "not hosted here" is final.
func ServeTCP(addr string, handlers map[int]Handler) (*TCPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen %s: %w", addr, err)
	}
	s := &TCPServer{
		handlers: make(map[int]Handler, len(handlers)),
		ln:       ln,
		accepted: make(map[net.Conn]struct{}),
	}
	maps.Copy(s.handlers, handlers)
	s.wg.Add(1)
	go s.serve()
	return s, nil
}

// track registers an accepted connection for shutdown; it reports
// false when the server is already closing (the caller must drop the
// connection instead of serving it).
func (s *TCPServer) track(c net.Conn) bool {
	s.acceptedMu.Lock()
	defer s.acceptedMu.Unlock()
	if s.closing {
		return false
	}
	s.accepted[c] = struct{}{}
	return true
}

func (s *TCPServer) untrack(c net.Conn) {
	s.acceptedMu.Lock()
	delete(s.accepted, c)
	s.acceptedMu.Unlock()
}

// Addr returns the server's actual listen address.
func (s *TCPServer) Addr() string { return s.ln.Addr().String() }

// Register installs the daemon handler for machine id. Requests for
// unregistered ids fail back to the caller.
func (s *TCPServer) Register(id int, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[id] = h
}

// SetObserver installs fn as the handler-duration sink for every
// request this server serves. Safe to call while serving.
func (s *TCPServer) SetObserver(fn func(kind string, seconds float64)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.observer = fn
}

func (s *TCPServer) serve() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !s.track(conn) {
			conn.Close()
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			defer conn.Close()
			s.serveConn(conn)
		}()
	}
}

// serveConn answers requests on one connection until it fails. A frame
// whose boundary cannot be trusted — above the cap, or truncated — ends
// the connection; one that is merely wrong inside (unknown kind, bad
// counts, trailing bytes, a reply kind) is answered with an error
// reply, which reaches the caller as ErrRemote naming the cause, and
// the stream stays usable.
func (s *TCPServer) serveConn(conn net.Conn) {
	br := bufio.NewReader(conn)
	var rbuf, wbuf []byte
	for {
		body, err := readFrame(br, &rbuf)
		if err != nil {
			return
		}
		reply := s.answer(body)
		if wbuf, err = appendFrame(wbuf[:0], reply); err != nil {
			// An unsendable response (over the cap, or not gob-encodable)
			// fails this one call loudly instead of poisoning the stream.
			wbuf, _ = appendFrame(wbuf[:0], errorFrame(err.Error()))
		}
		if _, err := conn.Write(wbuf); err != nil {
			return
		}
		rbuf, wbuf = kept(rbuf), kept(wbuf)
	}
}

// answer decodes one request frame, runs its handler and returns the
// reply frame.
func (s *TCPServer) answer(body []byte) frame {
	req, err := decodeFrame(body)
	if err != nil {
		return errorFrame(err.Error())
	}
	if !isRequestKind(req.kind) {
		return errorFrame(fmt.Sprintf("%v: kind %d is not a request", ErrMalformed, req.kind))
	}
	s.mu.RLock()
	h, ok := s.handlers[req.to]
	observe := s.observer
	s.mu.RUnlock()
	if !ok {
		return errorFrame(fmt.Sprintf("machine %d is not hosted here", req.to))
	}
	began := time.Now()
	resp, err := h(req.from, req.msg)
	if observe != nil {
		observe(Kind(req.msg), time.Since(began).Seconds())
	}
	if err != nil {
		return errorFrame(err.Error())
	}
	if resp == nil {
		return errorFrame(fmt.Sprintf("handler of machine %d answered %s with no message", req.to, Kind(req.msg)))
	}
	return frame{kind: kindOf(resp, false), msg: resp}
}

// Close stops the listener, severs accepted connections, and waits
// for the connection goroutines to drain.
func (s *TCPServer) Close() error {
	err := s.ln.Close()
	s.acceptedMu.Lock()
	s.closing = true
	for c := range s.accepted {
		c.Close()
	}
	s.acceptedMu.Unlock()
	s.wg.Wait()
	return err
}

// TCPClient is the dial side: it resolves destination machines through
// a ClusterSpec and ships framed requests (frame.go) over one
// persistent connection per (from, to) pair. A connection that fails
// mid-call is dropped from the pool so the next call redials instead of
// inheriting a stream that has lost its frame boundary; a connection
// reused after sitting idle is liveness-probed first, so a restarted
// peer is redialed transparently instead of failing the first
// post-restart call.
type TCPClient struct {
	spec    ClusterSpec
	metrics *Metrics

	// Deadline configuration. callTimeout bounds every call (and the
	// dial); kindTimeout overrides it per message kind — the coordinator
	// gives runQuery a much longer budget than the data plane, or none.
	// An explicit zero means unbounded. Configure before the first Call;
	// these fields are not synchronized against in-flight calls.
	callTimeout time.Duration
	kindTimeout map[string]time.Duration
	onTimeout   func(kind string)

	connMu sync.Mutex
	conns  map[connKey]*connFuture
	closed bool
}

type connKey struct{ from, to int }

type tcpConn struct {
	mu         sync.Mutex
	c          net.Conn
	br         *bufio.Reader
	rbuf, wbuf []byte    // frame buffers, reused across calls; guarded by mu
	lastUsed   time.Time // guarded by mu; set at dial and after each completed exchange
}

// Reusing a pooled connection that sat idle longer than staleProbeAfter
// is preceded by a liveness probe of at most staleProbeBudget. A peer
// process that died sent its FIN when the kernel reaped it, so a dead
// pooled connection has an EOF (or RST) already queued locally: the
// probe surfaces it instantly and the caller redials instead of
// shipping a non-retryable request into a dead socket. A healthy idle
// connection costs one probe timeout (~1ms); busy connections (the
// heartbeat keeps the coordinator's warm) are never probed.
const (
	staleProbeAfter  = 500 * time.Millisecond
	staleProbeBudget = time.Millisecond
)

// alive probes an idle connection for liveness: a one-byte read that
// times out having read nothing means no FIN/RST is pending. Any byte
// actually read is unsolicited data on a request/response stream —
// equally disqualifying. Callers hold conn.mu.
func (conn *tcpConn) alive() bool {
	conn.c.SetReadDeadline(time.Now().Add(staleProbeBudget))
	var b [1]byte
	n, err := conn.c.Read(b[:])
	conn.c.SetReadDeadline(time.Time{})
	return n == 0 && isTimeout(err)
}

// connFuture is a pool slot that may still be dialing: the pool lock
// is never held across net.Dial, so one unreachable peer cannot stall
// calls to healthy machines. The first caller for a key dials; others
// wait on ready.
type connFuture struct {
	ready chan struct{}
	conn  *tcpConn
	err   error
}

// NewTCPClient builds a client over the address book. metrics may be
// nil to skip accounting.
func NewTCPClient(spec ClusterSpec, metrics *Metrics) *TCPClient {
	return &TCPClient{spec: spec, metrics: metrics, conns: make(map[connKey]*connFuture)}
}

// Register is a no-op: a pure client hosts no machines. It satisfies
// Transport so coordinator-side code can hold a TCPClient where an
// in-process transport would otherwise go.
func (t *TCPClient) Register(int, Handler) {}

// SetCallTimeout bounds every call (encode through decode, plus the
// dial) with d. Zero restores the historical unbounded behavior.
// Configure before the first Call.
func (t *TCPClient) SetCallTimeout(d time.Duration) { t.callTimeout = d }

// SetKindTimeout overrides the call timeout for one message kind. An
// explicit zero makes that kind unbounded — the coordinator uses this
// to exempt runQuery, whose legitimate runtime is the query itself,
// from the short data-plane deadline. Configure before the first Call.
func (t *TCPClient) SetKindTimeout(kind string, d time.Duration) {
	if t.kindTimeout == nil {
		t.kindTimeout = make(map[string]time.Duration)
	}
	t.kindTimeout[kind] = d
}

// SetTimeoutObserver installs fn as the sink notified on every call
// that hits its deadline (label = message kind). radserve points it at
// a rads_cluster_rpc_timeouts_total counter family. Configure before
// the first Call.
func (t *TCPClient) SetTimeoutObserver(fn func(kind string)) { t.onTimeout = fn }

// timeoutFor resolves the deadline budget for one message kind.
func (t *TCPClient) timeoutFor(kind string) time.Duration {
	if d, ok := t.kindTimeout[kind]; ok {
		return d
	}
	return t.callTimeout
}

// isTimeout reports whether err is a deadline-style network failure.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// Call ships the request over TCP and waits for the reply.
func (t *TCPClient) Call(from, to int, req Message) (Message, error) {
	kind := Kind(req)
	if from == to {
		return nil, fmt.Errorf("cluster: machine %d sent itself a %s request", from, kind)
	}
	if to < 0 || to >= t.spec.M() {
		return nil, fmt.Errorf("cluster: no machine %d in a %d-machine spec", to, t.spec.M())
	}
	conn, err := t.conn(from, to)
	if err != nil {
		return nil, err
	}
	conn.mu.Lock()
	// A stale pooled connection may belong to a peer that has since
	// died and been replaced (worker restart): probe before trusting it,
	// and redial once on failure so the first call after a restart hits
	// the live process instead of erroring on the corpse's socket.
	if time.Since(conn.lastUsed) > staleProbeAfter && !conn.alive() {
		conn.mu.Unlock()
		t.drop(connKey{from, to}, conn)
		if conn, err = t.conn(from, to); err != nil {
			return nil, err
		}
		conn.mu.Lock()
	}
	defer conn.mu.Unlock()
	// Encode before touching the socket: a request above the frame cap
	// (or one gob cannot encode) fails this call and leaves the
	// connection as good as it was.
	if conn.wbuf, err = appendFrame(conn.wbuf[:0], frame{kind: kindOf(req, true), from: from, to: to, msg: req}); err != nil {
		return nil, err
	}
	// The deadline covers the full exchange: a peer that accepts the
	// request but never writes a reply errors out of the read instead of
	// wedging the caller (and every later caller queued on conn.mu).
	if d := t.timeoutFor(kind); d > 0 {
		conn.c.SetDeadline(time.Now().Add(d))
	} else {
		conn.c.SetDeadline(time.Time{})
	}
	began := time.Now()
	if _, err := conn.c.Write(conn.wbuf); err != nil {
		return nil, t.failed(connKey{from, to}, conn, kind, "send to", err)
	}
	body, err := readFrame(conn.br, &conn.rbuf)
	if err != nil {
		return nil, t.failed(connKey{from, to}, conn, kind, "receive from", err)
	}
	reply, err := decodeFrame(body)
	if err == nil && (isRequestKind(reply.kind) || conn.br.Buffered() != 0) {
		err = fmt.Errorf("%w: kind %d with %d unsolicited bytes behind it where one reply belongs", ErrMalformed, reply.kind, conn.br.Buffered())
	}
	if err != nil {
		// The frame boundary held, but a peer that sends this cannot be
		// trusted with the next call either.
		return nil, t.failed(connKey{from, to}, conn, kind, "receive from", err)
	}
	conn.rbuf, conn.wbuf = kept(conn.rbuf), kept(conn.wbuf)
	conn.lastUsed = time.Now()
	if reply.kind == kindError {
		return nil, fmt.Errorf("%w: %s", ErrRemote, reply.errText)
	}
	t.metrics.ObserveLatency(kind, time.Since(began).Seconds())
	t.metrics.Account(from, to, req, reply.msg, kind)
	return reply.msg, nil
}

// failed drops a connection whose exchange broke and names the failure;
// a deadline hit is reported as ErrTimeout and counted.
func (t *TCPClient) failed(key connKey, conn *tcpConn, kind, what string, err error) error {
	t.drop(key, conn)
	if isTimeout(err) {
		if t.onTimeout != nil {
			t.onTimeout(kind)
		}
		return fmt.Errorf("cluster: %s %d: %w: %v", what, key.to, ErrTimeout, err)
	}
	return fmt.Errorf("cluster: %s %d: %w", what, key.to, err)
}

func (t *TCPClient) conn(from, to int) (*tcpConn, error) {
	key := connKey{from, to}
	t.connMu.Lock()
	if t.closed {
		t.connMu.Unlock()
		return nil, errors.New("cluster: transport closed")
	}
	if f, ok := t.conns[key]; ok {
		t.connMu.Unlock()
		<-f.ready
		return f.conn, f.err
	}
	f := &connFuture{ready: make(chan struct{})}
	t.conns[key] = f
	t.connMu.Unlock()

	c, err := net.DialTimeout("tcp", t.spec.Addr(to), t.callTimeout)
	if err != nil {
		f.err = fmt.Errorf("cluster: dial machine %d at %s: %w", to, t.spec.Addr(to), err)
		close(f.ready)
		t.remove(key, f)
		return nil, f.err
	}
	f.conn = &tcpConn{c: c, br: bufio.NewReader(c), lastUsed: time.Now()}
	close(f.ready)
	// Closed while we dialed: hand the conn back dead instead of
	// leaking it past Close.
	t.connMu.Lock()
	if t.closed {
		c.Close()
	}
	t.connMu.Unlock()
	return f.conn, nil
}

// remove deletes a pool slot if it still holds f.
func (t *TCPClient) remove(key connKey, f *connFuture) {
	t.connMu.Lock()
	if cur, ok := t.conns[key]; ok && cur == f {
		delete(t.conns, key)
	}
	t.connMu.Unlock()
}

// drop closes a failed connection and removes it from the pool — a
// stream that stopped mid-frame can never carry another call, and
// keeping it pooled would poison every later call on this (from, to)
// pair.
func (t *TCPClient) drop(key connKey, c *tcpConn) {
	c.c.Close()
	t.connMu.Lock()
	if f, ok := t.conns[key]; ok && f.conn == c {
		delete(t.conns, key)
	}
	t.connMu.Unlock()
}

// Close closes all pooled connections; further calls fail.
func (t *TCPClient) Close() error {
	t.connMu.Lock()
	defer t.connMu.Unlock()
	t.closed = true
	for _, f := range t.conns {
		select {
		case <-f.ready:
			if f.conn != nil {
				f.conn.c.Close()
			}
		default:
			// Still dialing; the dialer sees closed and shuts the conn.
		}
	}
	t.conns = make(map[connKey]*connFuture)
	return nil
}

// TCPTransport is the all-in-one form used by tests: one
// loopback TCPServer per machine plus a TCPClient joined by the
// derived ClusterSpec, in a single process. It proves the protocol is
// fully serializable; multi-process deployments build the same pieces
// separately (radsworker hosts servers, radserve dials them).
type TCPTransport struct {
	servers []*TCPServer
	client  *TCPClient
	spec    ClusterSpec
}

// NewTCPTransport starts m loopback listeners, one per machine.
func NewTCPTransport(m int, metrics *Metrics) (*TCPTransport, error) {
	t := &TCPTransport{}
	for i := 0; i < m; i++ {
		srv, err := NewTCPServer("127.0.0.1:0")
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("cluster: machine %d: %w", i, err)
		}
		t.servers = append(t.servers, srv)
		t.spec.Machines = append(t.spec.Machines, srv.Addr())
	}
	t.client = NewTCPClient(t.spec, metrics)
	return t, nil
}

// Register installs the daemon handler for machine id.
func (t *TCPTransport) Register(id int, h Handler) {
	t.servers[id].Register(id, h)
}

// Call ships the request over TCP and waits for the reply.
func (t *TCPTransport) Call(from, to int, req Message) (Message, error) {
	return t.client.Call(from, to, req)
}

// Close shuts the client pool and every listener.
func (t *TCPTransport) Close() error {
	if t.client != nil {
		t.client.Close()
	}
	for _, s := range t.servers {
		s.Close()
	}
	return nil
}
