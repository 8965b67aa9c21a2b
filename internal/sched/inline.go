package sched

import (
	"context"
	"fmt"
	"runtime/pprof"
	"time"

	"evprop/internal/potential"
	"evprop/internal/taskgraph"
)

// RunInline executes the state's task graph on the calling goroutine, in the
// graph's cached topological order. It is what a run costs when nothing is
// scheduled: no per-run bookkeeping beyond the metrics, no dependency counters,
// no ready lists, no hand-off to another goroutine. Engines take this path when
// InlineWeight says the run's tasks are cheaper than their dispatch at the
// workers it can count on — all of them when it is alone, its share of them
// under load (Pool.EnterRun).
//
// With opts.Threshold zero every task runs whole — task for task the
// arithmetic of Executor.RunSerial, so the potentials afterwards are
// bit-identical to the serial reference. With any other Threshold the run
// replays the partition verdict a pool of opts.Workers would apply to the same
// state (cut: Split under ThresholdAuto, the snapped δ under a fixed one): a
// cut task is executed as the pool executes it, piece by piece — for a
// Marginalize the first into the task's destination, the rest into partial
// buffers that Combine folds in piece order — only one piece after another.
// A partitioned sum is associated differently from a whole one, so this is
// what makes the potentials bit-identical to the pool's instead: a run that
// load moved off the workers computes what it would have computed on them.
//
// The observable surface matches a one-worker scheduled run: opts.Ctx is
// polled at every task boundary, the returned Metrics hold one worker's
// Busy, KindBusy and Tasks (one clock read per boundary, so Busy is the whole
// run and Overhead is zero) with Pieces and Partition counted as the pool
// counts them, opts.Trace records the timeline — one event per task, cut or
// not — and opts.QueryID labels the calling goroutine for the duration of the
// run.
//
// A task opts.Live masks is stepped over — not polled, timed or counted —
// whatever its predecessors did: also how a resumed state's remainder runs.
//
// A failed or cancelled run returns at the task where it stopped. Nothing
// else touches the state, the metrics or the trace afterwards, but the
// state is half-propagated and must not be reused without a Reset.
func RunInline(st taskgraph.Executor, opts Options) (*Metrics, error) {
	g := st.Graph()
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	m := &Metrics{Workers: make([]WorkerMetrics, 1), Executor: ExecInline}
	wm := &m.Workers[0]
	var events []Event
	// A zero Threshold cuts nothing and costs the loop one test per task.
	c := newCut(g, opts.Threshold, opts.Workers)
	var bufs []*potential.Potential // partial buffers of the task being cut
	labels := newLabelSet(opts.Ctx, opts.QueryID)
	labelled := taskgraph.Kind(-1) // kind whose labels the goroutine carries
	if labels != nil {
		restore := opts.Ctx
		if restore == nil {
			restore = context.Background()
		}
		defer pprof.SetGoroutineLabels(restore)
	}
	start := time.Now()
	prev := start
	for _, id := range order {
		if opts.Live != nil && !opts.Live[id] {
			continue
		}
		if opts.Ctx != nil {
			if err = opts.Ctx.Err(); err != nil {
				break
			}
		}
		kind := g.Tasks[id].Kind
		if labels != nil && kind != labelled {
			pprof.SetGoroutineLabels(labels.kindCtx[kind])
			labelled = kind
		}
		size, step := 0, 0
		if !c.none() {
			size, step = c.step(st, id)
		}
		if step == 0 {
			err = st.Execute(id)
		} else {
			m.Partition++
			bufs, err = executeCut(st, id, size, step, bufs[:0], &m.Pieces)
		}
		now := time.Now()
		d := now.Sub(prev)
		wm.Busy += d
		wm.KindBusy[kind] += d
		wm.Tasks++
		if opts.Trace {
			events = append(events, Event{Task: id, Kind: kind, Hi: -1, Start: prev.Sub(start), End: now.Sub(start)})
		}
		prev = now
		if err != nil {
			err = fmt.Errorf("sched: task %s: %w", g.Tasks[id].String(), err)
			break
		}
		m.Tasks++
	}
	m.Elapsed = prev.Sub(start)
	if opts.Trace {
		if err != nil {
			events = nil // as Pool.Run: a failed run's trace carries no events
		}
		m.Trace = &Trace{Workers: 1, Events: events, Total: m.Elapsed}
	}
	return m, err
}

// executeCut runs task id as Pool.partition lays it out — pieces of step
// entries over [0, size), the first writing the task's destination, each later
// one a partial buffer of its own, then the combining subtask over the buffers
// in piece order — on the calling goroutine, one piece after another. bufs is
// the caller's scratch slice for the buffers, returned for reuse; pieces counts
// the pieces executed.
func executeCut(st taskgraph.Executor, id, size, step int, bufs []*potential.Potential, pieces *int) ([]*potential.Potential, error) {
	for lo := 0; lo < size; lo += step {
		var buf *potential.Potential
		if lo > 0 {
			if buf = st.NewPartialBuffer(id); buf != nil {
				bufs = append(bufs, buf)
			}
		}
		*pieces++
		if err := st.ExecutePiece(id, lo, min(lo+step, size), buf); err != nil {
			return bufs, err
		}
	}
	return bufs, st.Combine(id, bufs)
}
