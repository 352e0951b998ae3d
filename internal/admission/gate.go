// Package admission is the serving stack's one admission state machine:
// a concurrency cap with a bounded wait queue and a shutdown that
// fails the queue instead of draining it. The interactive query plane
// (internal/service) and the batch job plane (internal/jobs) both sit
// on a Gate; neither keeps a semaphore of its own.
//
// A unit of work passes through three calls:
//
//	t, err := gate.Enter()   // never blocks: slot, queue seat, or error
//	defer t.Release()        // exactly once, whatever Wait returns
//	err = t.Wait(ctx)        // nil once the ticket holds a slot
//
// Enter is split from Wait so a submitter learns "overloaded" or
// "closed" synchronously while the waiting happens on the worker's own
// goroutine. Queued tickets take freed slots in the order their Wait
// calls parked (the runtime's channel wait order).
package admission

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// Errors returned by Enter and Wait. The planes map them onto their
// own exported ErrOverloaded / ErrClosed.
var (
	ErrFull   = errors.New("admission: queue full")
	ErrClosed = errors.New("admission: closed")
)

// Gate admits at most maxConcurrent tickets at once and lets at most
// maxQueued more wait. Safe for concurrent use.
type Gate struct {
	slots     chan struct{} // cap = maxConcurrent; a held slot is one element
	closing   chan struct{}
	maxQueued int64

	mu sync.Mutex     // orders Enter against Close
	wg sync.WaitGroup // entered tickets not yet released

	running, queued, rejected atomic.Int64
}

// New builds a gate; both bounds must be positive.
func New(maxConcurrent, maxQueued int) *Gate {
	return &Gate{
		slots:     make(chan struct{}, maxConcurrent),
		closing:   make(chan struct{}),
		maxQueued: int64(maxQueued),
	}
}

// Ticket is one unit of work's passage through the gate.
type Ticket struct {
	g    *Gate
	held bool // owns a slot
}

// Enter takes a free slot if there is one, otherwise a seat in the
// wait queue; with the queue full it fails with ErrFull, after Close
// with ErrClosed. Deciding under the lock keeps the queued count
// honest: it only ever counts tickets that found every slot taken.
func (g *Gate) Enter() (*Ticket, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.Closed() {
		return nil, ErrClosed
	}
	t := &Ticket{g: g}
	select {
	case g.slots <- struct{}{}:
		t.held = true
		g.running.Add(1)
	default:
		if g.queued.Load() >= g.maxQueued {
			g.rejected.Add(1)
			return nil, ErrFull
		}
		g.queued.Add(1)
	}
	g.wg.Add(1)
	return t, nil
}

// Wait blocks a queued ticket until it holds a slot (nil), ctx ends
// (ctx.Err()) or the gate closes (ErrClosed). A ticket admitted by
// Enter returns nil at once.
func (t *Ticket) Wait(ctx context.Context) error {
	if t.held {
		return nil
	}
	g := t.g
	defer g.queued.Add(-1)
	select {
	case g.slots <- struct{}{}:
		// Winning a slot races with shutdown: once Close has begun its
		// contract (queued work fails) beats a freed slot.
		select {
		case <-g.closing:
			<-g.slots
			return ErrClosed
		default:
		}
		t.held = true
		g.running.Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-g.closing:
		return ErrClosed
	}
}

// Release ends the ticket, freeing its slot if it holds one. Call it
// exactly once per entered ticket, after the work (or after a failed
// Wait has been reported) — Drain returns when every ticket has.
func (t *Ticket) Release() {
	if t.held {
		t.g.running.Add(-1)
		<-t.g.slots
	}
	t.g.wg.Done()
}

// Close stops admission: later Enters and every queued Wait fail with
// ErrClosed; tickets already holding a slot are unaffected. It does
// not block and is idempotent.
func (g *Gate) Close() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.Closed() {
		close(g.closing)
	}
}

// Closed reports whether Close has been called.
func (g *Gate) Closed() bool {
	select {
	case <-g.closing:
		return true
	default:
		return false
	}
}

// Drain blocks until every entered ticket has been released. Call it
// after Close (before, new tickets could keep arriving).
func (g *Gate) Drain() { g.wg.Wait() }

// Running is the number of tickets holding a slot.
func (g *Gate) Running() int64 { return g.running.Load() }

// Queued is the number of tickets waiting for a slot.
func (g *Gate) Queued() int64 { return g.queued.Load() }

// Rejected counts Enters refused because the queue was full.
func (g *Gate) Rejected() int64 { return g.rejected.Load() }
