package sched

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"evprop/internal/jtree"
	"evprop/internal/taskgraph"
)

// countdownCtx fails its Err poll after a fixed number of calls — a
// deterministic stand-in for a deadline expiring mid-propagation: the run
// fails at a task boundary while other workers may still hold fetched items
// of it.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.DeadlineExceeded
	}
	return nil
}

// TestPoolRunCancelledTraceDetached is the regression test for cross-run
// trace corruption: a failed pooled run returns while workers may still be
// appending to its per-worker event slices, so the returned Trace must carry
// no events and share nothing with them — the stragglers' appends land in
// slices no reader and no other run ever sees. Successful traced runs
// interleave on the same pool to give a straggler's append a victim to
// collide with; -race flags any sharing.
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
				opts := Options{Threshold: 8, Trace: true}
				if i%3 != 2 {
					cc := &countdownCtx{Context: context.Background()}
					cc.left.Store(int64(1 + (gor*7+i)%15))
					opts.Ctx = cc
				}
				m, err := p.Run(st, opts)
				if err != nil {
					cancelled.Add(1)
					if m == nil || m.Trace == nil {
						continue
					}
					if len(m.Trace.Events) != 0 {
						t.Errorf("failed run carries %d trace events", len(m.Trace.Events))
					}
					continue
				}
				completed.Add(1)
				if m.Trace == nil {
					t.Error("successful traced run has no trace")
					continue
				}
				if len(m.Trace.Events) == 0 {
					t.Error("successful traced run has no events")
				}
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
