package rads

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"rads/internal/cluster"
	"rads/internal/obs"
)

// ErrWorkerDown marks a cluster query refused or aborted because a
// worker machine is unreachable. It is a fast, typed failure — the
// ingress maps it to 503 — never a hang. Callers test for it with
// errors.Is; the concrete *WorkerDownError carries the machine id.
var ErrWorkerDown = errors.New("rads: worker down")

// WorkerDownError identifies which machine took the query down.
type WorkerDownError struct {
	Machine int
	Cause   error
}

func (e *WorkerDownError) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("rads: worker %d down: %v", e.Machine, e.Cause)
	}
	return fmt.Sprintf("rads: worker %d down", e.Machine)
}

// Unwrap makes errors.Is(err, ErrWorkerDown) true.
func (e *WorkerDownError) Unwrap() error { return ErrWorkerDown }

// Unavailable reports whether a cluster query failed because a worker
// is down or did not answer its runQuery in time. Both are retryable:
// the ingress answers them 503, and the fallback leg serves them.
func Unavailable(err error) bool {
	return errors.Is(err, ErrWorkerDown) || errors.Is(err, cluster.ErrTimeout)
}

// ClusterHealth is the operator view served by /healthz and /stats in
// cluster mode.
type ClusterHealth struct {
	Healthy        bool           `json:"healthy"`
	FallbackActive bool           `json:"fallback_active,omitempty"`
	Workers        []WorkerHealth `json:"workers"`
}

// WorkerHealth is one machine's row in a health report.
type WorkerHealth struct {
	Machine  int     `json:"machine"`
	Up       bool    `json:"up"`
	Failures int     `json:"consecutive_failures"`
	LastSeen float64 `json:"last_seen_seconds_ago"`
}

// HealthOptions configures StartHealth. The zero value gets sane
// defaults.
type HealthOptions struct {
	// Interval between heartbeat sweeps; default 2s.
	Interval time.Duration
	// FailureThreshold is the consecutive failed calls that mark a
	// worker down; default 3.
	FailureThreshold int
	// OnTransition, if set, is called whenever a worker flips up/down
	// (outside the health lock) — radserve logs it.
	OnTransition func(machine int, up bool)
	// Registry, if set, receives the cluster health metric families:
	// rads_cluster_worker_up, rads_cluster_healthy,
	// rads_cluster_heartbeat_seconds.
	Registry *obs.Registry
}

// clusterHealth is the heartbeat side of ClusterEngine, kept apart
// from the query path in remote.go. It holds one rule per worker: up
// or down. FailureThreshold failed calls in a row, or one refused ping,
// mark a worker down; one successful call marks it up. The heartbeat
// pings every worker on every sweep, so a down worker is back within
// a sweep of answering again.
type clusterHealth struct {
	threshold int
	onChange  func(machine int, up bool)
	hbLatency *obs.Histogram
	stop      chan struct{}
	done      chan struct{}
	stopOnce  sync.Once

	mu      sync.Mutex
	workers []workerState
}

type workerState struct {
	down     bool
	failures int
	lastSeen time.Time // zero until the worker first answers
}

// record applies one call's outcome to machine: ok marks it up and
// resets its failure streak; a failure marks it down at the
// threshold-th in a row, or at once when refused (the worker answered
// but must not be dispatched to). The flip is computed under the lock
// and the observer called outside it.
func (h *clusterHealth) record(machine int, ok, refused bool) {
	h.mu.Lock()
	w := &h.workers[machine]
	wasDown := w.down
	if ok {
		w.down, w.failures, w.lastSeen = false, 0, time.Now()
	} else {
		w.failures++
		w.down = w.down || refused || w.failures >= h.threshold
	}
	flipped, up := w.down != wasDown, !w.down
	h.mu.Unlock()
	if flipped && h.onChange != nil {
		h.onChange(machine, up)
	}
}

// up reports whether machine is up. Without StartHealth every machine
// is.
func (h *clusterHealth) up(machine int) bool {
	if h == nil {
		return true
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return !h.workers[machine].down
}

// firstDown is the lowest down machine, -1 when all are up.
func (h *clusterHealth) firstDown() int {
	if h == nil {
		return -1
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for t := range h.workers {
		if h.workers[t].down {
			return t
		}
	}
	return -1
}

func (h *clusterHealth) report() []WorkerHealth {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]WorkerHealth, len(h.workers))
	for t, w := range h.workers {
		ago := -1.0
		if !w.lastSeen.IsZero() {
			ago = time.Since(w.lastSeen).Seconds()
		}
		out[t] = WorkerHealth{Machine: t, Up: !w.down, Failures: w.failures, LastSeen: ago}
	}
	return out
}

// StartHealth starts tracking each worker's liveness and the
// background heartbeat loop. Call once, after WaitReady, before
// serving; pair with Close. Without StartHealth there is no health
// gate: every worker counts as up.
func (c *ClusterEngine) StartHealth(opts HealthOptions) {
	if opts.Interval <= 0 {
		opts.Interval = 2 * time.Second
	}
	if opts.FailureThreshold <= 0 {
		opts.FailureThreshold = 3
	}
	h := &clusterHealth{
		threshold: opts.FailureThreshold,
		onChange:  opts.OnTransition,
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		workers:   make([]workerState, c.m),
	}
	if opts.Registry != nil {
		opts.Registry.GaugeVecFunc("rads_cluster_worker_up",
			"Per-machine worker liveness (1 up, 0 down).", "machine",
			func() map[string]float64 {
				out := make(map[string]float64, c.m)
				for _, w := range h.report() {
					v := 0.0
					if w.Up {
						v = 1
					}
					out[strconv.Itoa(w.Machine)] = v
				}
				return out
			})
		opts.Registry.GaugeFunc("rads_cluster_healthy",
			"Whether every worker is up (1) or any is down (0).",
			func() float64 {
				if h.firstDown() < 0 {
					return 1
				}
				return 0
			})
		h.hbLatency = opts.Registry.Histogram("rads_cluster_heartbeat_seconds",
			"Heartbeat ping round-trip latency.",
			[]float64{.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5})
	}
	// Workers start up, so the first query is not gated on a sweep.
	c.health = h
	go c.heartbeatLoop(opts.Interval)
}

// heartbeatLoop pings every worker at the configured interval.
// Sweeps are sequential (no overlap); within a sweep the pings run in
// parallel so one slow worker doesn't starve detection of the others.
// A worker that answers but fails admit, or whose reply the decoder
// refuses — restarted from another build or snapshot since WaitReady —
// is refused: it is marked down at once, so gateHealth turns queries
// away from it.
func (c *ClusterEngine) heartbeatLoop(interval time.Duration) {
	h := c.health
	defer close(h.done)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-h.stop:
			return
		case <-ticker.C:
		}
		var wg sync.WaitGroup
		for t := 0; t < c.m; t++ {
			wg.Add(1)
			go func(t int) {
				defer wg.Done()
				began := time.Now()
				resp, err := c.tr.Call(cluster.Coordinator, t, &cluster.PingRequest{})
				if err != nil {
					h.record(t, false, errors.Is(err, cluster.ErrMalformed))
					return
				}
				if h.hbLatency != nil {
					h.hbLatency.Observe(time.Since(began).Seconds())
				}
				if pr, ok := resp.(*cluster.PingResponse); !ok || c.admit(t, pr) != nil {
					h.record(t, false, true)
					return
				}
				h.record(t, true, false)
			}(t)
		}
		wg.Wait()
	}
}

// Close stops the heartbeat loop (if started) and waits for it to
// drain. It does not close the transport, which the engine does not
// own.
func (c *ClusterEngine) Close() error {
	if c.health != nil {
		c.health.stopOnce.Do(func() { close(c.health.stop) })
		<-c.health.done
	}
	return nil
}

// Healthy reports whether every worker is up. Without StartHealth it
// is vacuously true.
func (c *ClusterEngine) Healthy() bool { return c.health.firstDown() < 0 }

// HealthReport snapshots the cluster view for /healthz and /stats.
func (c *ClusterEngine) HealthReport() ClusterHealth {
	if c.health == nil {
		return ClusterHealth{Healthy: true}
	}
	healthy := c.Healthy()
	return ClusterHealth{
		Healthy:        healthy,
		FallbackActive: c.fallback && !healthy,
		Workers:        c.health.report(),
	}
}

// gateHealth is the pre-dispatch check: with health tracking on, a
// query that would need a down worker fails fast with the machine id
// instead of burning a timeout discovering it.
func (c *ClusterEngine) gateHealth() error {
	if t := c.health.firstDown(); t >= 0 {
		return &WorkerDownError{Machine: t}
	}
	return nil
}

// reportOutcome feeds a runQuery dispatch result into the liveness
// rule. Remote (application-level) errors do not count against
// liveness: the worker answered. A timeout records nothing: a machine
// runs its query against its peers, so one that is itself up may miss
// the deadline waiting on a wedged peer, and charging it would mark
// the wrong worker down. The heartbeat's pings decide for both.
func (c *ClusterEngine) reportOutcome(machine int, err error) {
	if c.health == nil || errors.Is(err, cluster.ErrTimeout) {
		return
	}
	c.health.record(machine, err == nil || errors.Is(err, cluster.ErrRemote), false)
}
