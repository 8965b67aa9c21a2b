package sched

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"evprop/internal/jtree"
	"evprop/internal/taskgraph"
)

func gaugeTestGraph(t *testing.T, n int, seed int64) *taskgraph.Graph {
	t.Helper()
	tr, err := jtree.Random(jtree.RandomConfig{N: n, Width: 6, States: 2, Degree: 3, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.MaterializeRandom(seed); err != nil {
		t.Fatal(err)
	}
	return taskgraph.Build(tr)
}

// TestPoolGaugesAccountRun checks the pool's gauge surface balances after a
// run: GL depth and LL depths return to zero, completed tasks sum to the
// graph size, and busy time moved.
func TestPoolGaugesAccountRun(t *testing.T) {
	collaborative(t, testPoolGaugesAccountRun)
}

func testPoolGaugesAccountRun(t *testing.T) {
	g := gaugeTestGraph(t, 24, 5)
	p, err := NewPool(4)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	st, err := g.NewState()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(st, Options{Threshold: 8, QueryID: "q-test-1"}); err != nil {
		t.Fatal(err)
	}
	s := p.Snapshot()
	if s.GlobalDepth != 0 {
		t.Errorf("global depth %d after a completed run, want 0", s.GlobalDepth)
	}
	if s.ActiveRuns != 0 {
		t.Errorf("active runs %d, want 0", s.ActiveRuns)
	}
	var completed, items, busy, depth, weight int64
	for _, w := range s.Workers {
		completed += w.Completed
		items += w.Items
		busy += w.BusyNs
		depth += w.QueueDepth
		weight += w.QueueWeight
	}
	if completed != int64(g.N()) {
		t.Errorf("completed %d, want %d", completed, g.N())
	}
	if items < completed {
		t.Errorf("items %d < completed %d (pieces should only add)", items, completed)
	}
	if busy <= 0 {
		t.Errorf("busy %d, want > 0", busy)
	}
	if depth != 0 || weight != 0 {
		t.Errorf("leftover LL depth %d / weight %d after drain", depth, weight)
	}
	if s.TotalBusy() != time.Duration(busy) {
		t.Errorf("TotalBusy %v != summed %v", s.TotalBusy(), time.Duration(busy))
	}
}

// TestGaugesSnapshotDuringRuns races lock-free snapshots against concurrent
// runs; under -race this pins the wait-free read contract of the surface.
func TestGaugesSnapshotDuringRuns(t *testing.T) {
	collaborative(t, testGaugesSnapshotDuringRuns)
}

func testGaugesSnapshotDuringRuns(t *testing.T) {
	g := gaugeTestGraph(t, 24, 7)
	p, err := NewPool(4)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	stop := make(chan struct{})
	var snaps sync.WaitGroup
	snaps.Add(1)
	go func() {
		defer snaps.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := p.Snapshot()
			if s.GlobalDepth < 0 {
				t.Error("negative global depth")
				return
			}
			for _, w := range s.Workers {
				if w.StateName == "unknown" {
					t.Errorf("unknown worker state %d", w.State)
					return
				}
			}
		}
	}()
	var runs sync.WaitGroup
	for i := 0; i < 4; i++ {
		runs.Add(1)
		go func() {
			defer runs.Done()
			for j := 0; j < 3; j++ {
				st, err := g.NewState()
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := p.Run(st, Options{Threshold: 8, QueryID: "q-race"}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	runs.Wait()
	close(stop)
	snaps.Wait()
}

// TestGaugesFailedRunWritesOff: a cancelled run must not leak GL depth.
func TestGaugesFailedRunWritesOff(t *testing.T) {
	collaborative(t, testGaugesFailedRunWritesOff)
}

func testGaugesFailedRunWritesOff(t *testing.T) {
	g := gaugeTestGraph(t, 24, 13)
	p, err := NewPool(2)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, err := g.NewState()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(st, Options{Ctx: ctx}); err == nil {
		t.Fatal("cancelled run succeeded")
	}
	// Stragglers of the failed run may retire a few tasks after the write-off;
	// the invariant is the clamp: depth never goes negative and, once the
	// leftovers drain, settles at 0.
	deadline := time.Now().Add(2 * time.Second)
	for {
		s := p.Snapshot()
		if s.GlobalDepth == 0 && s.ActiveRuns == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gauges did not settle: depth %d, active %d", s.GlobalDepth, s.ActiveRuns)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWorkerStateStrings(t *testing.T) {
	cases := map[WorkerState]string{
		WorkerParked:    "parked",
		WorkerExecuting: "executing",
		WorkerState(99): "unknown",
	}
	for st, want := range cases {
		if got := st.String(); got != want {
			t.Errorf("state %d = %q, want %q", st, got, want)
		}
	}
}

func TestLabelSetNilSafety(t *testing.T) {
	if ls := newLabelSet(context.Background(), ""); ls != nil {
		t.Error("empty query ID should disable labelling")
	}
	wg := NewGauges(1).worker(0)
	var ls *labelSet
	ls.apply(taskgraph.Kind(0), wg) // must not panic
	ls = newLabelSet(nil, "q-1")
	for k := 0; k < taskgraph.NumKinds; k++ {
		ls.apply(taskgraph.Kind(k), wg)
	}
	ls.apply(taskgraph.Kind(taskgraph.NumKinds+3), wg) // out of range → clamped
	ls.apply(taskgraph.Kind(0), wg)                    // cache hit path: same ctx pointer
	ls.apply(taskgraph.Kind(0), wg)
	clearLabels(wg)
	clearLabels(wg) // second clear is a no-op (Swap returns nil)
}

func TestNilGaugesSnapshot(t *testing.T) {
	var g *Gauges
	s := g.Snapshot()
	if s.GlobalDepth != 0 || len(s.Workers) != 0 {
		t.Errorf("nil snapshot %+v", s)
	}
}

// TestProcessPool: every caller asking for P workers gets the same pool; the
// pool it hands out has no goroutines and reports no workers until a run is
// dispatched to it, however many runs it has counted in and priced by then;
// and the price is P ÷ k, never below one.
func TestProcessPool(t *testing.T) {
	if p := ProcessPool(4); ProcessPool(4) != p || ProcessPool(3) == p || ProcessPool(0) != ProcessPool(1) {
		t.Fatal("ProcessPool is not one pool per worker count")
	}
	p := newPool(4) // as ProcessPool makes them, and this test's alone
	defer p.Close()
	before := runtime.NumGoroutine()
	for k, want := range []int{4, 2, 1, 1, 1} {
		if got := p.EnterRun(); got != want {
			t.Errorf("run %d of %d priced at %d workers, want %d", k+1, k+1, got, want)
		}
	}
	if s := p.Snapshot(); s.ActiveRuns != 5 || len(s.Workers) != 0 || runtime.NumGoroutine() != before {
		t.Errorf("before any dispatch: %d runs in flight, %d workers, %d goroutines started",
			s.ActiveRuns, len(s.Workers), runtime.NumGoroutine()-before)
	}
	for p.RunsInFlight() > 0 {
		p.LeaveRun()
	}
	st, err := gaugeTestGraph(t, 8, 3).NewState()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(st, Options{}); err != nil {
		t.Fatal(err)
	}
	if s := p.Snapshot(); len(s.Workers) != 4 || runtime.NumGoroutine() != before+4 {
		t.Errorf("after a dispatch: %d workers, %d goroutines started", len(s.Workers), runtime.NumGoroutine()-before)
	}
}
