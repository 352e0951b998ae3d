package admission

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// enter fails the test unless the gate lets a ticket in.
func enter(t *testing.T, g *Gate) *Ticket {
	t.Helper()
	tk, err := g.Enter()
	if err != nil {
		t.Fatalf("Enter: %v", err)
	}
	return tk
}

// waitAsync parks tk.Wait on its own goroutine and returns its verdict.
func waitAsync(tk *Ticket, ctx context.Context) <-chan error {
	done := make(chan error, 1)
	go func() { done <- tk.Wait(ctx) }()
	return done
}

func recv(t *testing.T, ch <-chan error) error {
	t.Helper()
	select {
	case err := <-ch:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("Wait never returned")
		return nil
	}
}

// TestCapAndHandOff floods a cap-2 gate: never more than two tickets
// hold a slot, every release hands the slot to a queued ticket, and
// nothing is lost.
func TestCapAndHandOff(t *testing.T) {
	const cap, n = 2, 12
	g := New(cap, n)
	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		tk := enter(t, g)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer tk.Release()
			if err := tk.Wait(context.Background()); err != nil {
				t.Errorf("Wait: %v", err)
				return
			}
			c := cur.Add(1)
			for p := peak.Load(); c > p && !peak.CompareAndSwap(p, c); p = peak.Load() {
			}
			if r := g.Running(); r > cap {
				t.Errorf("Running() = %d, cap %d", r, cap)
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > cap {
		t.Errorf("peak concurrency %d exceeds the cap %d", p, cap)
	}
	if g.Running() != 0 || g.Queued() != 0 || g.Rejected() != 0 {
		t.Errorf("idle gate reports running=%d queued=%d rejected=%d", g.Running(), g.Queued(), g.Rejected())
	}
}

// TestFullQueueRejects: one slot, one seat — the third Enter fails
// fast and is counted; the seat frees up again once its ticket runs.
func TestFullQueueRejects(t *testing.T) {
	g := New(1, 1)
	holder := enter(t, g)
	if g.Running() != 1 {
		t.Fatalf("running = %d after an admitted Enter", g.Running())
	}
	queued := enter(t, g)
	if g.Queued() != 1 {
		t.Fatalf("queued = %d, want 1", g.Queued())
	}
	if _, err := g.Enter(); !errors.Is(err, ErrFull) {
		t.Fatalf("third Enter: %v, want ErrFull", err)
	}
	if g.Rejected() != 1 {
		t.Errorf("rejected = %d, want 1", g.Rejected())
	}

	done := waitAsync(queued, context.Background())
	holder.Release()
	if err := recv(t, done); err != nil {
		t.Fatalf("queued ticket after hand-off: %v", err)
	}
	if g.Running() != 1 || g.Queued() != 0 {
		t.Errorf("after hand-off running=%d queued=%d, want 1/0", g.Running(), g.Queued())
	}
	enter(t, g).Release() // the seat is free again
	queued.Release()
}

// TestCancelWhileQueued: a queued ticket whose context ends leaves the
// queue without ever holding a slot.
func TestCancelWhileQueued(t *testing.T) {
	g := New(1, 4)
	holder := enter(t, g)
	queued := enter(t, g)
	ctx, cancel := context.WithCancel(context.Background())
	done := waitAsync(queued, ctx)
	cancel()
	if err := recv(t, done); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait: %v, want context.Canceled", err)
	}
	queued.Release()
	if g.Queued() != 0 || g.Running() != 1 {
		t.Errorf("after cancel running=%d queued=%d, want 1/0", g.Running(), g.Queued())
	}
	holder.Release()
	if g.Running() != 0 {
		t.Errorf("running = %d after the holder released", g.Running())
	}
}

// TestCloseFailsQueuedAndDrains: Close fails the queue, refuses new
// work, leaves the running ticket alone, and Drain returns only once
// every ticket has been released.
func TestCloseFailsQueuedAndDrains(t *testing.T) {
	g := New(1, 4)
	holder := enter(t, g)
	queued := enter(t, g)
	done := waitAsync(queued, context.Background())

	g.Close()
	g.Close() // idempotent
	if !g.Closed() {
		t.Error("Closed() false after Close")
	}
	if err := recv(t, done); !errors.Is(err, ErrClosed) {
		t.Fatalf("queued Wait after Close: %v, want ErrClosed", err)
	}
	if _, err := g.Enter(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Enter after Close: %v, want ErrClosed", err)
	}

	drained := make(chan struct{})
	go func() { g.Drain(); close(drained) }()
	queued.Release()
	select {
	case <-drained:
		t.Fatal("Drain returned while a ticket still held its slot")
	case <-time.After(20 * time.Millisecond):
	}
	holder.Release()
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain hung after the last release")
	}
}

// TestCloseBeatsFreedSlot: a slot freed after Close must not sneak a
// queued ticket through, whichever of the two wake-ups its Wait sees
// first. Many rounds, because the interleaving is the scheduler's.
func TestCloseBeatsFreedSlot(t *testing.T) {
	for i := 0; i < 200; i++ {
		g := New(1, 1)
		holder := enter(t, g)
		queued := enter(t, g)
		done := waitAsync(queued, context.Background())
		g.Close()
		holder.Release()
		if err := recv(t, done); !errors.Is(err, ErrClosed) {
			t.Fatalf("round %d: queued ticket got %v after Close, want ErrClosed", i, err)
		}
		queued.Release()
		g.Drain()
		if g.Running() != 0 || g.Queued() != 0 {
			t.Fatalf("round %d: running=%d queued=%d after drain", i, g.Running(), g.Queued())
		}
	}
}
