package sched

import (
	"context"
	"fmt"
	"runtime/pprof"
	"time"

	"evprop/internal/taskgraph"
)

// RunInline executes the state's task graph on the calling goroutine, in the
// graph's cached topological order — task for task the arithmetic of
// Executor.RunSerial, so the potentials afterwards are bit-identical to the
// serial reference. It is what a run costs when nothing is scheduled: no
// per-run bookkeeping beyond the metrics, no dependency counters, no ready
// lists, no hand-off to another goroutine. Engines take this path when
// Inline says the graph's tasks are cheaper than their dispatch.
//
// The observable surface matches a one-worker scheduled run: opts.Ctx is
// polled at every task boundary, the returned Metrics hold one worker's
// Busy, KindBusy and Tasks (one clock read per boundary, so Busy is the whole
// run and Overhead is zero), opts.Trace records the timeline into the same
// recycled buffers, and opts.QueryID labels the calling goroutine for the
// duration of the run. Threshold and Workers are ignored: nothing is
// partitioned and there are no workers to observe.
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
	var tbufs *traceBufs
	if opts.Trace {
		tbufs = getTraceBufs(1)
	}
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
		err = st.Execute(id)
		now := time.Now()
		d := now.Sub(prev)
		wm.Busy += d
		wm.KindBusy[kind] += d
		wm.Tasks++
		if tbufs != nil {
			tbufs.record(0, id, kind, 0, -1, false, prev.Sub(start), d)
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
		m.Trace = &Trace{Workers: 1, Total: m.Elapsed, bufs: tbufs}
		if err != nil {
			m.Trace.Release() // as Pool.Run: a failed run's trace carries no events
		} else if !opts.LazyTrace {
			m.Trace.Finalize()
		}
	}
	return m, err
}
