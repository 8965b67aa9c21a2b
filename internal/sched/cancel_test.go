package sched

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"evprop/internal/jtree"
	"evprop/internal/taskgraph"
)

// countdownCtx expires at its Done poll after a fixed number of them — a
// deterministic stand-in for a deadline expiring mid-propagation: the run
// fails at a task boundary while other workers may still hold fetched items
// of it. Err reports the expiry without counting.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

// expired is the closed channel an expired countdownCtx's Done returns.
var expired = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

func (c *countdownCtx) Done() <-chan struct{} {
	if c.left.Add(-1) < 0 {
		return expired
	}
	return nil
}

func (c *countdownCtx) Err() error {
	if c.left.Load() < 0 {
		return context.DeadlineExceeded
	}
	return nil
}

// TestPoolRunCancelledTraceDetached: a failed pooled run returns while
// workers may still be executing fetched items of it, so what those
// stragglers write — the run's state and per-worker metrics — must be the
// failed run's alone. Successful runs interleave on the same pool to give a
// straggler's write a victim to collide with; -race flags any sharing, and
// each successful run still counts its own items.
func TestPoolRunCancelledTraceDetached(t *testing.T) {
	collaborative(t, testPoolRunCancelledTraceDetached)
}

func testPoolRunCancelledTraceDetached(t *testing.T) {
	tr, err := jtree.Random(jtree.RandomConfig{N: 40, Width: 4, States: 2, Degree: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.MaterializeRandom(23); err != nil {
		t.Fatal(err)
	}
	g := taskgraph.Build(tr)
	p, err := NewPool(4)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var cancelled, completed atomic.Int64
	var wg sync.WaitGroup
	for gor := 0; gor < 4; gor++ {
		wg.Add(1)
		go func(gor int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				st, err := g.NewState()
				if err != nil {
					t.Error(err)
					return
				}
				opts := Options{Threshold: 8}
				if i%3 != 2 {
					cc := &countdownCtx{Context: context.Background()}
					cc.left.Store(int64(1 + (gor*7+i)%15))
					opts.Ctx = cc
				}
				m, err := p.Run(st, opts)
				if err != nil {
					cancelled.Add(1)
					continue
				}
				completed.Add(1)
				checkItems(t, m)
			}
		}(gor)
	}
	wg.Wait()
	if cancelled.Load() == 0 {
		t.Error("no run was cancelled mid-flight; countdownCtx is broken")
	}
	if completed.Load() == 0 {
		t.Error("no run completed; the test exercised only the failure path")
	}
}
