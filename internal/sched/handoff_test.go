package sched

import (
	"context"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"evprop/internal/potential"
	"evprop/internal/taskgraph"
)

// scriptExec runs a hand-built graph whose tasks do what script says, so a
// test can hold a worker inside a task or time the moment a task starts.
type scriptExec struct {
	g      *taskgraph.Graph
	script func(id int)
}

func (e *scriptExec) Graph() *taskgraph.Graph                                { return e.g }
func (e *scriptExec) Execute(id int) error                                   { e.script(id); return nil }
func (e *scriptExec) ExecutePiece(int, int, int, *potential.Potential) error { return nil }
func (e *scriptExec) PartitionSize(int) int                                  { return 0 }
func (e *scriptExec) NewPartialBuffer(int) *potential.Potential              { return nil }
func (e *scriptExec) Combine(int, []*potential.Potential) error              { return nil }
func (e *scriptExec) RunSerial() error                                       { return nil }

// handGraph builds a graph of unit-weight tasks, succs[i] the successors of
// task i.
func handGraph(succs ...[]int) *taskgraph.Graph {
	g := &taskgraph.Graph{Tasks: make([]taskgraph.Task, len(succs))}
	for id, ss := range succs {
		g.Tasks[id].ID, g.Tasks[id].Weight, g.Tasks[id].Succs = id, 1, ss
		for _, s := range ss {
			g.Tasks[s].NDeps++
		}
	}
	return g
}

// waitAsleep polls until each of the workers publishes WorkerParked and is
// blocked on its list's condition variable, failing the test if one is not
// within a generous deadline — a worker that never stops spinning.
func waitAsleep(t *testing.T, p *Pool, workers ...int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for _, w := range workers {
		l := p.lists[w]
		for {
			l.mu.Lock()
			asleep := l.asleep
			l.mu.Unlock()
			if asleep && WorkerState(l.g.state.Load()) == WorkerParked {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("worker %d never parked (state %v, asleep %v)", w, WorkerState(l.g.state.Load()), asleep)
			}
			runtime.Gosched()
		}
	}
}

// TestAllocateTieStaysHome: Allocate's argmin sends a ready task to the
// completing worker's own list when it ties for lightest, and to a strictly
// lighter list — the lowest-numbered of those that tie — otherwise.
func TestAllocateTieStaysHome(t *testing.T) {
	p := newPool(3) // never started: the pushes stay queued
	r := &run{g: handGraph(nil), p: p}
	for _, c := range []struct {
		completing int
		want       int
		after      [3]int64
	}{
		{2, 2, [3]int64{0, 0, 1}}, // every list empty: worker 2 keeps it
		{2, 0, [3]int64{1, 0, 1}}, // 0 and 1 are lighter than 2 and tie: 0
		{0, 1, [3]int64{1, 1, 1}}, // 1 is lighter than the completing 0
		{1, 1, [3]int64{1, 2, 1}}, // all three tie: worker 1 keeps it
	} {
		r.allocate(c.completing, r.wholeItem(0))
		var got [3]int64
		for i, l := range p.lists {
			got[i] = l.g.depth()
		}
		if got != c.after {
			t.Fatalf("worker %d completing: list depths %v, want %v (the task on list %d)", c.completing, got, c.after, c.want)
		}
	}
}

// TestSpinEndsWithRun: spinning is for the hand-offs inside a dispatched run.
// Once a run has returned — completed or cancelled mid-flight — the pool
// counts no dispatched run and every worker parks.
func TestSpinEndsWithRun(t *testing.T) {
	g := gaugeTestGraph(t, 24, 5)
	p, err := NewPool(2)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for _, cancel := range []bool{false, true} {
		st, err := g.NewState()
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Threshold: 8}
		if cancel {
			cc := &countdownCtx{Context: context.Background()}
			cc.left.Store(5)
			opts.Ctx = cc
		}
		if _, err := p.Run(st, opts); (err != nil) != cancel {
			t.Fatalf("cancel=%v: run returned %v", cancel, err)
		}
		if n := p.dispatched.Load(); n != 0 {
			t.Fatalf("cancel=%v: %d dispatched runs counted after Run returned", cancel, n)
		}
		if p.spinning() {
			t.Fatalf("cancel=%v: idle workers would spin between runs", cancel)
		}
		waitAsleep(t, p, 0, 1)
	}
}

// TestNoSpinWhenCoresClaimed: with k ≥ P runs in flight the inline runs own
// the cores, so an idle worker parks at once — it neither spins nor takes a
// peer's queued task. Worker 0 is held inside source 0 while source 2 waits
// behind it on its list; worker 1 runs source 1 and must leave source 2 alone.
func TestNoSpinWhenCoresClaimed(t *testing.T) {
	p, err := NewPool(2)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for range p.Workers() {
		p.EnterRun()
		defer p.LeaveRun()
	}
	var held, ranOne atomic.Bool
	release := make(chan struct{})
	ex := &scriptExec{g: handGraph(nil, nil, nil), script: func(id int) {
		switch id {
		case 0:
			held.Store(true)
			<-release
		case 1:
			ranOne.Store(true)
		}
	}}
	type result struct {
		m   *Metrics
		err error
	}
	done := make(chan result)
	go func() {
		m, err := p.Run(ex, Options{Trace: true})
		done <- result{m, err}
	}()
	for !held.Load() || !ranOne.Load() {
		runtime.Gosched()
	}
	if p.spinning() {
		t.Error("idle workers would spin with k ≥ P")
	}
	// Worker 1 has run source 1; with nothing of its own left it must park,
	// source 2 still queued behind source 0 on worker 0's list.
	waitAsleep(t, p, 1)
	close(release)
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	for _, e := range res.m.Trace.Events {
		if e.Worker != e.Task%2 {
			t.Errorf("task %d ran on worker %d, not on the worker whose list it was pushed to", e.Task, e.Worker)
		}
	}
	for w, wm := range res.m.Workers {
		if wm.Steals != 0 {
			t.Errorf("worker %d stole %d items with k ≥ P", w, wm.Steals)
		}
	}
}

// BenchmarkHandoff times how long a handed task waits to start: pushed to a
// parked worker, and to one spinning inside the run. A run of two workers
// holds one worker in source 0 until the other has run source 1 — 200 µs, so
// both are on a core by then, as inside a run they are — and then, for
// parked, well past the spin window, so the other has parked; for spinning,
// 10 µs. Source 0 then readies two 300 µs tasks: Allocate keeps
// one on its worker's list and hands the other to the other worker's. The
// start latency is from source 0's end to the start of the first task the
// other worker runs; start-p50-ns and start-p90-ns are its quantiles over the
// runs that handed one over (handed/op of them; the rest ran both on source
// 0's worker).
func BenchmarkHandoff(b *testing.B) {
	for _, c := range []struct {
		name string
		hold time.Duration
	}{
		{"parked", spinWindow + time.Millisecond},
		{"spinning", 10 * time.Microsecond},
	} {
		b.Run(c.name, func(b *testing.B) {
			p, err := NewPool(2)
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close()
			var oneDone atomic.Bool
			ex := &scriptExec{g: handGraph([]int{2, 3}, nil, nil, nil), script: func(id int) {
				switch id {
				case 0:
					for !oneDone.Load() {
						runtime.Gosched()
					}
					busy(c.hold)
				case 1:
					busy(200 * time.Microsecond)
					oneDone.Store(true)
				default:
					busy(300 * time.Microsecond)
				}
			}}
			var lat []time.Duration
			b.ResetTimer()
			for range b.N {
				oneDone.Store(false)
				m, err := p.Run(ex, Options{Trace: true})
				if err != nil {
					b.Fatal(err)
				}
				// The trace is in (Worker, Start) order; source 0's worker
				// is the one that handed a task over.
				src := m.Trace.Events[slices.IndexFunc(m.Trace.Events, func(e Event) bool { return e.Task == 0 })]
				for _, e := range m.Trace.Events {
					if e.Task > 1 && e.Worker != src.Worker {
						lat = append(lat, e.Start-src.End)
						break
					}
				}
			}
			b.StopTimer()
			if len(lat) == 0 {
				return
			}
			slices.Sort(lat)
			b.ReportMetric(float64(lat[len(lat)/2]), "start-p50-ns")
			b.ReportMetric(float64(lat[len(lat)*9/10]), "start-p90-ns")
			b.ReportMetric(float64(len(lat))/float64(b.N), "handed/op")
		})
	}
}

// busy keeps the calling goroutine on its core for d.
func busy(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}
