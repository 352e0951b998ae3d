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

// ClusterHealth is the operator view served by /healthz and /stats in
// cluster mode.
type ClusterHealth struct {
	Healthy        bool                   `json:"healthy"`
	FallbackActive bool                   `json:"fallback_active,omitempty"`
	Workers        []cluster.WorkerHealth `json:"workers"`
}

// HealthOptions configures StartHealth. The zero value gets sane
// defaults.
type HealthOptions struct {
	// Interval between heartbeat sweeps; default 2s.
	Interval time.Duration
	// FailureThreshold is the consecutive failures that open a
	// worker's breaker; default 3.
	FailureThreshold int
	// Cooldown before an open breaker allows a half-open probe;
	// default 2×Interval.
	Cooldown time.Duration
	// OnTransition, if set, is called whenever a worker flips up/down
	// (outside the tracker lock) — radserve logs it.
	OnTransition func(machine int, up bool)
	// Registry, if set, receives the cluster health metric families:
	// rads_cluster_worker_up, rads_cluster_breaker_state,
	// rads_cluster_healthy, rads_cluster_heartbeat_seconds.
	Registry *obs.Registry
}

// clusterHealth is the heartbeat side of ClusterEngine, kept apart
// from the query path in remote.go.
type clusterHealth struct {
	tracker   *cluster.HealthTracker
	hbLatency *obs.Histogram
	stop      chan struct{}
	done      chan struct{}
	stopOnce  sync.Once
}

// StartHealth builds the per-worker breaker tracker and starts the
// background heartbeat loop. Call once, after WaitReady, before
// serving; pair with Close. Without StartHealth there is no health
// gate and no breaker: every worker counts as up.
func (c *ClusterEngine) StartHealth(opts HealthOptions) {
	if opts.Interval <= 0 {
		opts.Interval = 2 * time.Second
	}
	if opts.FailureThreshold <= 0 {
		opts.FailureThreshold = 3
	}
	if opts.Cooldown <= 0 {
		opts.Cooldown = 2 * opts.Interval
	}
	h := &clusterHealth{
		tracker: cluster.NewHealthTracker(c.m, opts.FailureThreshold, opts.Cooldown),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	if opts.OnTransition != nil {
		h.tracker.SetTransitionObserver(opts.OnTransition)
	}
	if opts.Registry != nil {
		tr := h.tracker
		opts.Registry.GaugeVecFunc("rads_cluster_worker_up",
			"Per-machine worker liveness (1 up, 0 down).", "machine",
			func() map[string]float64 {
				out := make(map[string]float64, c.m)
				for _, w := range tr.Report() {
					v := 0.0
					if w.Up {
						v = 1
					}
					out[strconv.Itoa(w.Machine)] = v
				}
				return out
			})
		opts.Registry.GaugeVecFunc("rads_cluster_breaker_state",
			"Per-machine circuit breaker state (0 closed, 1 half-open, 2 open).", "machine",
			func() map[string]float64 {
				out := make(map[string]float64, c.m)
				for i := 0; i < c.m; i++ {
					out[strconv.Itoa(i)] = float64(tr.State(i))
				}
				return out
			})
		opts.Registry.GaugeFunc("rads_cluster_healthy",
			"Whether every worker breaker is closed (1) or any is open (0).",
			func() float64 {
				if tr.AllUp() {
					return 1
				}
				return 0
			})
		h.hbLatency = opts.Registry.Histogram("rads_cluster_heartbeat_seconds",
			"Heartbeat ping round-trip latency.",
			[]float64{.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5})
	}
	// All heartbeat pings seed the tracker; workers start closed
	// (assumed up) so the first query is not gated on a sweep.
	c.health = h
	go c.heartbeatLoop(opts.Interval)
}

// heartbeatLoop sweeps every worker at the configured interval.
// Sweeps are sequential (no overlap); within a sweep the pings run in
// parallel so one slow worker doesn't starve detection of the others.
// A worker that answers but fails admit, or whose reply the decoder
// refuses — restarted from another build or snapshot since WaitReady —
// is refused: its breaker opens at once, so gateHealth turns queries
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
			if !h.tracker.ShouldProbe(t) {
				continue
			}
			wg.Add(1)
			go func(t int) {
				defer wg.Done()
				began := time.Now()
				resp, err := c.tr.Call(cluster.Coordinator, t, &cluster.PingRequest{})
				if errors.Is(err, cluster.ErrMalformed) {
					h.tracker.Refuse(t)
					return
				}
				if err != nil {
					h.tracker.ReportFailure(t)
					return
				}
				if h.hbLatency != nil {
					h.hbLatency.Observe(time.Since(began).Seconds())
				}
				if pr, ok := resp.(*cluster.PingResponse); !ok || c.admit(t, pr) != nil {
					h.tracker.Refuse(t)
					return
				}
				h.tracker.ReportSuccess(t)
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

// Healthy reports whether every worker's breaker is closed. Without
// StartHealth it is vacuously true.
func (c *ClusterEngine) Healthy() bool {
	if c.health == nil {
		return true
	}
	return c.health.tracker.AllUp()
}

// HealthReport snapshots the cluster view for /healthz and /stats.
func (c *ClusterEngine) HealthReport() ClusterHealth {
	if c.health == nil {
		return ClusterHealth{Healthy: true}
	}
	healthy := c.health.tracker.AllUp()
	return ClusterHealth{
		Healthy:        healthy,
		FallbackActive: c.fallback && !healthy,
		Workers:        c.health.tracker.Report(),
	}
}

// gateHealth is the pre-dispatch check: with health tracking on, a
// query that would need a down worker fails fast with the machine id
// instead of burning a timeout discovering it.
func (c *ClusterEngine) gateHealth() error {
	if c.health == nil {
		return nil
	}
	for t := 0; t < c.m; t++ {
		if !c.health.tracker.Up(t) {
			return &WorkerDownError{Machine: t}
		}
	}
	return nil
}

// reportOutcome feeds a dispatch result into the breaker. Remote
// (application-level) errors do not count against liveness: the worker
// answered.
func (c *ClusterEngine) reportOutcome(machine int, err error) {
	if c.health == nil {
		return
	}
	if err == nil || errors.Is(err, cluster.ErrRemote) {
		c.health.tracker.ReportSuccess(machine)
		return
	}
	c.health.tracker.ReportFailure(machine)
}
