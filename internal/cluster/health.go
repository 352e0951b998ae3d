package cluster

import (
	"sync"
	"time"
)

// BreakerState is the classic circuit-breaker state machine, tracked
// per worker machine.
type BreakerState int

const (
	// BreakerClosed: the worker is healthy; calls flow normally.
	BreakerClosed BreakerState = iota
	// BreakerHalfOpen: the cooldown elapsed and one probe is in
	// flight; success closes the breaker, failure re-opens it.
	BreakerHalfOpen
	// BreakerOpen: consecutive failures crossed the threshold; the
	// worker is considered down until a probe succeeds.
	BreakerOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	}
	return "unknown"
}

// WorkerHealth is one machine's view in a health report.
type WorkerHealth struct {
	Machine  int     `json:"machine"`
	Up       bool    `json:"up"`
	Breaker  string  `json:"breaker"`
	Failures int     `json:"consecutive_failures"`
	LastSeen float64 `json:"last_seen_seconds_ago"`
}

// HealthTracker keeps a consecutive-failure circuit breaker per worker
// machine. Callers report every RPC outcome; the heartbeat loop asks
// ShouldProbe to decide when an open breaker has cooled down enough to
// risk a half-open probe ping.
type HealthTracker struct {
	threshold int
	cooldown  time.Duration

	mu       sync.Mutex
	workers  []workerState
	onChange func(machine int, up bool)
}

type workerState struct {
	state     BreakerState
	failures  int
	lastSeen  time.Time
	openedAt  time.Time
	everHeard bool
}

// NewHealthTracker tracks m workers. threshold (at least 1) is the
// consecutive failures that open a breaker; cooldown is how long an
// open breaker waits before allowing a half-open probe. The caller
// resolves defaults (rads.ClusterEngine.StartHealth does).
func NewHealthTracker(m, threshold int, cooldown time.Duration) *HealthTracker {
	return &HealthTracker{
		threshold: threshold,
		cooldown:  cooldown,
		workers:   make([]workerState, m),
	}
}

// SetTransitionObserver installs fn, called (outside the tracker lock)
// whenever a worker flips between up and down. Install before
// reporting outcomes.
func (h *HealthTracker) SetTransitionObserver(fn func(machine int, up bool)) {
	h.mu.Lock()
	h.onChange = fn
	h.mu.Unlock()
}

// ReportSuccess records a successful RPC to machine: the breaker
// closes and the failure streak resets.
func (h *HealthTracker) ReportSuccess(machine int) {
	h.mu.Lock()
	w := &h.workers[machine]
	wasUp := w.state == BreakerClosed
	w.state = BreakerClosed
	w.failures = 0
	w.lastSeen = time.Now()
	w.everHeard = true
	fn := h.onChange
	h.mu.Unlock()
	if !wasUp && fn != nil {
		fn(machine, true)
	}
}

// ReportFailure records a failed RPC to machine. Crossing the
// threshold — or failing a half-open probe — opens the breaker.
func (h *HealthTracker) ReportFailure(machine int) { h.fail(machine, false) }

// Refuse opens machine's breaker at once: the worker answered, but the
// coordinator must not dispatch to it (it reports another wire
// contract or partition). A later probe it passes closes the breaker.
func (h *HealthTracker) Refuse(machine int) { h.fail(machine, true) }

func (h *HealthTracker) fail(machine int, open bool) {
	h.mu.Lock()
	w := &h.workers[machine]
	wasUp := w.state == BreakerClosed
	w.failures++
	if open || w.state == BreakerHalfOpen || w.failures >= h.threshold {
		w.state = BreakerOpen
		w.openedAt = time.Now()
	}
	nowDown := w.state != BreakerClosed
	fn := h.onChange
	h.mu.Unlock()
	if wasUp && nowDown && fn != nil {
		fn(machine, false)
	}
}

// Up reports whether machine's breaker is closed.
func (h *HealthTracker) Up(machine int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.workers[machine].state == BreakerClosed
}

// AllUp reports whether every worker's breaker is closed.
func (h *HealthTracker) AllUp() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.workers {
		if h.workers[i].state != BreakerClosed {
			return false
		}
	}
	return true
}

// ShouldProbe reports whether the heartbeat loop should ping machine
// this sweep. Closed and half-open workers are always probed (the
// heartbeat doubles as liveness confirmation); an open breaker is
// probed only after its cooldown, at which point it transitions to
// half-open so a single success can close it.
func (h *HealthTracker) ShouldProbe(machine int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	w := &h.workers[machine]
	if w.state != BreakerOpen {
		return true
	}
	if time.Since(w.openedAt) >= h.cooldown {
		w.state = BreakerHalfOpen
		return true
	}
	return false
}

// State returns machine's breaker state.
func (h *HealthTracker) State(machine int) BreakerState {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.workers[machine].state
}

// Report snapshots every worker's health.
func (h *HealthTracker) Report() []WorkerHealth {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]WorkerHealth, len(h.workers))
	for i := range h.workers {
		w := &h.workers[i]
		ago := -1.0
		if w.everHeard {
			ago = time.Since(w.lastSeen).Seconds()
		}
		out[i] = WorkerHealth{
			Machine:  i,
			Up:       w.state == BreakerClosed,
			Breaker:  w.state.String(),
			Failures: w.failures,
			LastSeen: ago,
		}
	}
	return out
}
