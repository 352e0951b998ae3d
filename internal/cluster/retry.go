package cluster

import (
	"errors"
	"math/rand"
	"sync"
	"time"
)

// Retryable classification for the cluster's message kinds.
//
// A kind is retryable only when re-delivering the same request cannot
// change worker state or query results:
//
//   - fetchV and verifyE are pure reads of the immutable partition — a
//     duplicate answers identically.
//   - ping reports static identity (machine id, vertex count,
//     partition hash) — duplicates are harmless.
//   - statsPull snapshots the worker's metric registry — a pure read;
//     a duplicate just reads a fresher snapshot.
//
// Everything else must fail on the first error:
//
//   - runQuery builds per-query engine state on the worker; a retry
//     after a half-executed attempt would double-run the query.
//   - checkR is a load-balance poll whose answer is only meaningful at
//     the instant it was asked.
//   - shareR pops a region group off the remote worker — retrying a
//     call whose reply was lost would steal a second group and drop
//     results.
func DefaultRetryable(kind string) bool {
	switch kind {
	case "fetchV", "verifyE", "ping", "statsPull":
		return true
	}
	return false
}

// RetryPolicy configures a RetryTransport.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per call, including the
	// first. Values below 2 disable retries.
	MaxAttempts int
	// BaseBackoff is the sleep before the first retry; each further
	// retry doubles it, up to maxBackoff. Jitter of up to 50% is added
	// to keep a fleet of retriers from synchronizing. Zero defaults to
	// 50ms.
	BaseBackoff time.Duration
	// OnRetry, when set, is notified before every retry sleep (label =
	// message kind). radserve points it at a
	// rads_cluster_rpc_retries_total counter family.
	OnRetry func(kind string)
}

// maxBackoff caps the doubled backoff.
const maxBackoff = 2 * time.Second

// RetryTransport wraps a Transport with retry-with-backoff for the
// idempotent message kinds DefaultRetryable names. Application-level errors (ErrRemote — the
// request was delivered and answered) are never retried: only
// transport failures (dial errors, timeouts, severed connections) are
// transient. Composes over any Transport, so tests stack it on a
// FaultyTransport and production stacks it on a TCPClient.
type RetryTransport struct {
	Inner  Transport
	Policy RetryPolicy

	initOnce sync.Once
	rng      *rand.Rand
	rngMu    sync.Mutex
	closed   chan struct{}
}

// NewRetryTransport wraps inner with the given policy.
func NewRetryTransport(inner Transport, policy RetryPolicy) *RetryTransport {
	t := &RetryTransport{Inner: inner, Policy: policy}
	t.init()
	return t
}

func (t *RetryTransport) init() {
	t.initOnce.Do(func() {
		t.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
		t.closed = make(chan struct{})
	})
}

// Register forwards to the inner transport.
func (t *RetryTransport) Register(id int, h Handler) { t.Inner.Register(id, h) }

// Close cancels pending backoff sleeps and closes the inner transport.
func (t *RetryTransport) Close() error {
	t.init()
	select {
	case <-t.closed:
	default:
		close(t.closed)
	}
	return t.Inner.Close()
}

func (t *RetryTransport) backoff(attempt int) time.Duration {
	base := t.Policy.BaseBackoff
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	d := base << uint(attempt)
	if d > maxBackoff || d <= 0 {
		d = maxBackoff
	}
	// Up to 50% jitter so synchronized failures don't retry in lockstep.
	t.rngMu.Lock()
	j := time.Duration(t.rng.Int63n(int64(d)/2 + 1))
	t.rngMu.Unlock()
	return d + j
}

// Call forwards to the inner transport, retrying transient failures of
// idempotent kinds with exponential backoff + jitter.
func (t *RetryTransport) Call(from, to int, req Message) (Message, error) {
	t.init()
	kind := Kind(req)
	attempts := t.Policy.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if t.Policy.OnRetry != nil {
				t.Policy.OnRetry(kind)
			}
			select {
			case <-time.After(t.backoff(attempt - 1)):
			case <-t.closed:
				return nil, errors.New("cluster: transport closed")
			}
		}
		resp, err := t.Inner.Call(from, to, req)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		// Delivered-and-answered errors are deterministic; retrying
		// them re-asks a question that will answer the same way (or,
		// worse, re-runs a non-idempotent handler that already ran).
		if !DefaultRetryable(kind) || errors.Is(err, ErrRemote) {
			return nil, err
		}
	}
	return nil, lastErr
}
