package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"evprop/internal/bayesnet"
	"evprop/internal/obs"
	"evprop/internal/potential"
	"evprop/internal/sched"
	"evprop/internal/taskgraph"
)

// countdownCtx expires at its Done poll after a fixed number of them,
// cancelling a propagation deterministically mid-run (the scheduler polls Done
// once per item) rather than depending on wall-clock deadlines. Err reports
// the expiry without counting, as the engine's check before a run reads it.
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

// TestCancelledRunRecorderIntegrity is the engine-level regression test for
// the failed-run flight-recorder race: a cancelled run returns while pool
// workers may still be executing its items, so the recorder must keep only
// the scalar fields (no per-worker gauges) for it. Cancelled and successful
// propagations interleave on one engine; -race flags reading the
// still-mutating metrics. The network
// is far below the granularity rule, so the runs reach the pool through the
// dispatch seam — the race only exists there.
func TestCancelledRunRecorderIntegrity(t *testing.T) {
	net := bayesnet.RandomNetwork(50, 2, 3, 7)
	tr, err := net.Compile()
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewFlightRecorder(256, 0)
	e, err := NewEngine(tr, Options{Workers: 4, Reroot: true, PartitionThreshold: 8, Recorder: rec, ForceDispatch: true})
	if err != nil {
		t.Fatal(err)
	}
	ev := potential.Evidence{0: 0}

	const perG, goroutines = 30, 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if i%2 == 0 {
					// The countdown always expires mid-run: the graph has far
					// more items than the largest countdown value.
					cc := &countdownCtx{Context: context.Background()}
					cc.left.Store(int64(2 + (g*7+i)%12))
					if _, err := propagate(e, cc, ev, nil, taskgraph.SumProduct); err == nil {
						t.Error("countdown propagation unexpectedly succeeded")
					}
				} else {
					res, err := propagate(e, context.Background(), ev, nil, taskgraph.SumProduct)
					if err != nil {
						t.Error(err)
						return
					}
					res.Release()
				}
			}
		}(g)
	}
	wg.Wait()

	var failed, ok int
	for _, r := range rec.Snapshot() {
		if r.Err != "" {
			failed++
			if r.Report != nil {
				t.Errorf("failed run recorded non-scalar detail: %+v", r)
			}
			continue
		}
		ok++
		if r.Report == nil || r.Report.Executor != sched.ExecPool || r.Report.Workers != 4 {
			t.Errorf("successful run lost its worker gauges: %+v", r)
		}
	}
	if want := goroutines * perG / 2; failed != want || ok != want {
		t.Errorf("recorded %d failed + %d ok runs, want %d each", failed, ok, want)
	}
}

// TestCancelledInlineRun cancels a run on the calling goroutine mid-graph —
// under the serial scheduler, which used to run to completion whatever its
// context said, and on the inline path the granularity rule picks. The run
// must stop at a task boundary with the context's error, leave a scalar-only
// record, keep its half-propagated state out of the pool, and leave the
// engine answering the next query exactly as a fresh one does.
func TestCancelledInlineRun(t *testing.T) {
	net := bayesnet.RandomNetwork(50, 2, 3, 7)
	tr, err := net.Compile()
	if err != nil {
		t.Fatal(err)
	}
	ev := potential.Evidence{0: 0}
	for _, s := range []Scheduler{Serial, Collaborative} {
		rec := obs.NewFlightRecorder(16, 0)
		e, err := NewEngine(tr, Options{Workers: 4, Scheduler: s, Recorder: rec})
		if err != nil {
			t.Fatal(err)
		}
		polls := int64(e.Graph().N() / 2)
		cc := &countdownCtx{Context: context.Background()}
		cc.left.Store(polls)
		if _, err := propagate(e, cc, ev, nil, taskgraph.SumProduct); err != context.DeadlineExceeded {
			t.Fatalf("%v: cancelled run returned %v", s, err)
		}
		// One poll per task boundary: the poll that failed is the last one.
		if over := -cc.left.Load(); over != 1 {
			t.Errorf("%v: context polled %d times past the cancellation", s, over-1)
		}
		failed := rec.Snapshot()[0]
		if failed.Err == "" || failed.Report != nil {
			t.Errorf("%v: cancelled run recorded %+v", s, failed)
		}
		if st := e.statePools[taskgraph.SumProduct].Get(); st != nil {
			t.Errorf("%v: cancelled run recycled its half-run state", s)
		}
		res, err := propagate(e, context.Background(), ev, nil, taskgraph.SumProduct)
		if err != nil {
			t.Fatal(err)
		}
		ok := rec.Snapshot()[1]
		if ok.Report == nil || ok.Report.Executor != sched.ExecInline || ok.Report.Tasks != e.Graph().N() {
			t.Errorf("%v: run after the cancelled one recorded %+v", s, ok.Report)
		}
		fresh, err := e.Graph().NewState()
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.AbsorbEvidence(ev); err != nil {
			t.Fatal(err)
		}
		if err := fresh.RunSerial(); err != nil {
			t.Fatal(err)
		}
		for i, want := range fresh.Clique {
			if got := res.State().Clique[i]; !got.Equal(want, 0) {
				t.Fatalf("%v: clique %d differs from the serial reference", s, i)
			}
		}
	}
}

// gaugeProbeCtx reads the pool's count of runs in flight at every task boundary
// of the run it is passed to (the scheduler's Done poll) and keeps the largest
// it saw.
type gaugeProbeCtx struct {
	context.Context
	e      *Engine
	active int64
}

func (c *gaugeProbeCtx) Done() <-chan struct{} {
	c.active = max(c.active, c.e.pool.Snapshot().ActiveRuns)
	return nil
}

// TestSmallModelSpawnsNoWorkers: an engine whose graphs all fall under the
// granularity rule never starts the process's pool — not for propagations of
// any kind, and not for a gauge read. Its runs still show in the pool's
// ActiveRuns while they are in flight: the count is of runs, not of dispatches.
// (Workers 5 is no other test's, so the pool is this test's to find unstarted.)
func TestSmallModelSpawnsNoWorkers(t *testing.T) {
	tr, err := bayesnet.RandomNetwork(40, 2, 3, 7).Compile()
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(tr, Options{Workers: 5, Reroot: true})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ev := potential.Evidence{3: 1}
	for i := 0; i < 3; i++ {
		if _, err := propagate(e, context.Background(), ev, nil, taskgraph.SumProduct); err != nil {
			t.Fatal(err)
		}
		if _, err := propagate(e, context.Background(), ev, nil, taskgraph.MaxProduct); err != nil {
			t.Fatal(err)
		}
	}
	probe := &gaugeProbeCtx{Context: context.Background(), e: e}
	if _, err := propagate(e, probe, ev, nil, taskgraph.SumProduct); err != nil {
		t.Fatal(err)
	}
	if probe.active != 1 {
		t.Errorf("ActiveRuns read %d during an inline run, want 1", probe.active)
	}
	g := e.pool.Snapshot()
	if len(g.Workers) != 0 || g.ActiveRuns != 0 {
		t.Errorf("gauges of a pool nothing was dispatched to: %+v", g)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after inline runs and gauge reads, %d before", n, before)
	}
	if snap := e.ObsSnapshot(); snap.InlineRuns != 7 || snap.PoolRuns != 0 {
		t.Errorf("%d inline and %d pool runs, want 7 and 0", snap.InlineRuns, snap.PoolRuns)
	}
}
