package sched

import (
	"context"
	"fmt"
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

// goid returns the calling goroutine's ID.
func goid() int64 {
	var buf [64]byte
	var id int64
	fmt.Sscanf(string(buf[:runtime.Stack(buf[:], false)]), "goroutine %d ", &id)
	return id
}

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
func waitAsleep(t testing.TB, p *Pool, workers ...int) {
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
// behind it on its list; worker 1 runs source 1 and must leave source 2 alone,
// so the goroutine that ran source 0 runs source 2 too.
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
	var ranOn [3]atomic.Int64 // the goroutine that ran each source
	release := make(chan struct{})
	ex := &scriptExec{g: handGraph(nil, nil, nil), script: func(id int) {
		ranOn[id].Store(goid())
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
		m, err := p.Run(ex, Options{})
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
	if on0, on1, on2 := ranOn[0].Load(), ranOn[1].Load(), ranOn[2].Load(); on0 == on1 || on2 != on0 {
		t.Errorf("sources ran on goroutines %d, %d, %d: source 2 left the list it was pushed to", on0, on1, on2)
	}
	for w, wm := range res.m.Workers {
		if wm.Steals != 0 {
			t.Errorf("worker %d stole %d items with k ≥ P", w, wm.Steals)
		}
	}
}

// TestWokenWorkerPollsPeers: a worker woken to an empty list — a spinning
// peer took the item whose push signalled it — polls its peers before it
// parks again. Worker 0 is held inside source 0 with source 2 queued behind it
// on its own list; worker 1, having run source 1, parks (k ≥ P keeps it from
// spinning). Then the cores free up (k = 0), and worker 1 is signalled with
// nothing on its list, as a wake whose item was taken looks. It must take
// source 2 while source 0 still holds worker 0; a worker that parks again
// leaves source 2 waiting for worker 0, and the test fails on the timeout.
func TestWokenWorkerPollsPeers(t *testing.T) {
	p, err := NewPool(2)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for range p.Workers() {
		p.EnterRun()
	}
	var held, ranOne atomic.Bool
	var ranOn [3]atomic.Int64 // the goroutine that ran each source
	release, ranTwo := make(chan struct{}), make(chan struct{})
	ex := &scriptExec{g: handGraph(nil, nil, nil), script: func(id int) {
		ranOn[id].Store(goid())
		switch id {
		case 0:
			held.Store(true)
			<-release
		case 1:
			ranOne.Store(true)
		case 2:
			close(ranTwo)
		}
	}}
	done := make(chan error)
	go func() {
		_, err := p.Run(ex, Options{})
		done <- err
	}()
	for !held.Load() || !ranOne.Load() {
		runtime.Gosched()
	}
	waitAsleep(t, p, 1)
	for range p.Workers() {
		p.LeaveRun()
	}
	l := p.lists[1]
	l.mu.Lock()
	l.cond.Signal()
	l.mu.Unlock()
	select {
	case <-ranTwo:
	case <-time.After(5 * time.Second):
		t.Error("worker 1, woken to an empty list, parked again with source 2 queued behind worker 0's task")
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if on0, on2 := ranOn[0].Load(), ranOn[2].Load(); on2 == on0 {
		t.Errorf("source 2 ran on worker 0's goroutine %d", on0)
	}
}

// BenchmarkHandoff times how long a handed task waits to start: pushed to a
// parked worker, and to one spinning inside the run. A run of two workers
// holds one worker in source 0 until the other has run source 1 — 200 µs, so
// both are on a core by then, as inside a run they are — and then, for
// parked, well past the spin window, so the other has parked; for spinning,
// 10 µs. Source 0 then readies two 300 µs tasks: Allocate keeps
// one on its worker's list and hands the other to the other worker's. The
// script clocks each task itself. A run handed one over when the two tasks
// overlapped — the later one started while the earlier was still running —
// and its start latency is from source 0's end to that later start;
// start-p50-ns and start-p90-ns are its quantiles over the runs that handed
// one over (handed/op of them; the rest ran both, one after the other, on
// source 0's worker).
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
			// The script's clock: when source 0 ended, and when each of the
			// two ready tasks started and ended, as offsets from epoch.
			epoch := time.Now()
			var srcEnd atomic.Int64
			var start, end [4]atomic.Int64
			ex := &scriptExec{g: handGraph([]int{2, 3}, nil, nil, nil), script: func(id int) {
				switch id {
				case 0:
					for !oneDone.Load() {
						runtime.Gosched()
					}
					busy(c.hold)
					srcEnd.Store(int64(time.Since(epoch)))
				case 1:
					busy(200 * time.Microsecond)
					oneDone.Store(true)
				default:
					start[id].Store(int64(time.Since(epoch)))
					busy(300 * time.Microsecond)
					end[id].Store(int64(time.Since(epoch)))
				}
			}}
			var lat []time.Duration
			b.ResetTimer()
			for range b.N {
				// Each run starts with both workers parked: one still
				// spinning from the last run could take source 0 off its
				// peer's list and hold it, waiting for source 1 queued on its
				// own list, forever.
				b.StopTimer()
				waitAsleep(b, p, 0, 1)
				oneDone.Store(false)
				b.StartTimer()
				if _, err := p.Run(ex, Options{}); err != nil {
					b.Fatal(err)
				}
				early, late := 2, 3
				if start[late].Load() < start[early].Load() {
					early, late = late, early
				}
				if start[late].Load() < end[early].Load() {
					lat = append(lat, time.Duration(start[late].Load()-srcEnd.Load()))
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
