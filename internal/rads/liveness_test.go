package rads

import (
	"errors"
	"fmt"
	"testing"

	"rads/internal/cluster"
)

type flip struct {
	machine int
	up      bool
}

// newLiveness returns an m-machine cluster whose health rule marks a
// worker down after threshold failed calls, and the flips its observer
// has seen so far.
func newLiveness(m, threshold int) (*ClusterEngine, *clusterHealth, *[]flip) {
	flips := new([]flip)
	h := &clusterHealth{
		threshold: threshold,
		onChange:  func(machine int, up bool) { *flips = append(*flips, flip{machine, up}) },
		workers:   make([]workerState, m),
	}
	return &ClusterEngine{m: m, health: h}, h, flips
}

// TestLivenessThresholdAndRecovery pins the two-state rule behind
// gateHealth: threshold failed calls in a row mark a worker down, a
// refused ping marks it down at once, and one successful call (or a
// remote error, which is an answer) marks it up and resets the streak.
func TestLivenessThresholdAndRecovery(t *testing.T) {
	c, h, _ := newLiveness(3, 3)
	remote := fmt.Errorf("machine 2: %w", cluster.ErrRemote)
	steps := []struct {
		what     string
		machine  int
		err      error
		refused  bool
		up       bool
		failures int
	}{
		{"one failure", 1, errFailed, false, true, 1},
		{"threshold-1 failures", 1, errFailed, false, true, 2},
		{"threshold-th failure", 1, errFailed, false, false, 3},
		{"a failure while down", 1, errFailed, false, false, 4},
		{"one success", 1, nil, false, true, 0},
		{"a success while up", 1, nil, false, true, 0},
		{"a refusal", 2, errFailed, true, false, 1},
		{"a remote error", 2, remote, false, true, 0},
	}
	for _, s := range steps {
		if s.refused {
			h.record(s.machine, false, true)
		} else {
			c.reportOutcome(s.machine, s.err)
		}
		w := c.HealthReport().Workers[s.machine]
		if w.Up != s.up || w.Failures != s.failures {
			t.Errorf("after %s: machine %d up %v with %d failures, want up %v with %d",
				s.what, s.machine, w.Up, w.Failures, s.up, s.failures)
		}
		var down *WorkerDownError
		if err := c.gateHealth(); (err == nil) != s.up || c.Healthy() != s.up ||
			(err != nil && (!errors.As(err, &down) || down.Machine != s.machine)) {
			t.Errorf("after %s: gate %v, healthy %v", s.what, err, c.Healthy())
		}
	}
}

// TestLivenessTransitionObserver checks that the observer sees each
// flip exactly once, in order, and nothing for a call that leaves a
// worker where it was.
func TestLivenessTransitionObserver(t *testing.T) {
	c, h, flips := newLiveness(2, 2)
	remote := fmt.Errorf("machine 1: %w", cluster.ErrRemote)
	steps := []struct {
		what    string
		do      func()
		flipped int
	}{
		{"one of two failures", func() { c.reportOutcome(0, errFailed) }, 0},
		{"the second failure", func() { c.reportOutcome(0, errFailed) }, 1},
		{"a failure while down", func() { c.reportOutcome(0, errFailed) }, 1},
		{"a success", func() { c.reportOutcome(0, nil) }, 2},
		{"a success while up", func() { c.reportOutcome(0, nil) }, 2},
		{"a refusal", func() { h.record(1, false, true) }, 3},
		{"a refusal while down", func() { h.record(1, false, true) }, 3},
		{"a remote error", func() { c.reportOutcome(1, remote) }, 4},
	}
	for _, s := range steps {
		s.do()
		if len(*flips) != s.flipped {
			t.Fatalf("after %s: flips %v, want %d", s.what, *flips, s.flipped)
		}
	}
	want := []flip{{0, false}, {0, true}, {1, false}, {1, true}}
	for i := range want {
		if (*flips)[i] != want[i] {
			t.Fatalf("flips %v, want %v", *flips, want)
		}
	}
}

// TestLivenessReportShape checks the health report's rows: one per
// machine in machine order, last_seen_seconds_ago -1 for a machine
// never heard from, and no gating at all without StartHealth.
func TestLivenessReportShape(t *testing.T) {
	c, _, _ := newLiveness(3, 1)
	c.reportOutcome(0, nil)
	c.reportOutcome(2, errFailed)
	rep := c.HealthReport().Workers
	if len(rep) != 3 {
		t.Fatalf("report length %d, want 3", len(rep))
	}
	for i, w := range rep {
		if w.Machine != i {
			t.Errorf("row %d names machine %d", i, w.Machine)
		}
	}
	if !rep[0].Up || rep[0].Failures != 0 || rep[0].LastSeen < 0 {
		t.Errorf("worker 0: %+v", rep[0])
	}
	if !rep[1].Up || rep[1].LastSeen != -1 {
		t.Errorf("never-heard worker 1 should be up with last seen -1: %+v", rep[1])
	}
	if rep[2].Up || rep[2].Failures != 1 || rep[2].LastSeen != -1 {
		t.Errorf("worker 2: %+v", rep[2])
	}

	// No StartHealth, no gate: every worker counts as up.
	bare := &ClusterEngine{m: 3}
	if !bare.Healthy() || bare.gateHealth() != nil || !bare.health.up(2) {
		t.Error("a cluster without StartHealth is gated")
	}
}

var errFailed = errors.New("injected call failure")
