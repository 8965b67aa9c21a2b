package sched

import (
	"context"
	"sync/atomic"
	"time"
)

// Live scheduler introspection: a wait-free gauge surface over the
// collaborative scheduler's internal quantities — per-worker local-list (LL)
// depth and weight counter, worker state, δ-partition counters,
// and a global task-list (GL) depth — readable at any instant while
// propagations run. Writers are the workers themselves: every counter a
// worker updates lives on its own cache-line-padded slot, so the hot path
// never contends, and readers (the internal/obs sampler, /v1/stream) take
// no lock: a snapshot is a sweep of atomic loads.
//
// The surface is deliberately approximate at the edges — a snapshot racing
// an update sees the value a few nanoseconds early or late, and the GL
// depth of a failed run can transiently under-count (see Snapshot) — which
// is the price of keeping the instrumentation inside the paper's <0.9%
// scheduler-overhead budget.

// WorkerState is a worker's instantaneous activity, stored as one atomic
// word per worker.
type WorkerState int32

const (
	// WorkerParked: idle — polling for a hand-off inside a dispatched run, or
	// blocked on its empty local list (workers park between runs).
	WorkerParked WorkerState = iota
	// WorkerExecuting: inside a node-level primitive (or a piece of one).
	WorkerExecuting
)

var workerStateNames = [...]string{
	WorkerParked:    "parked",
	WorkerExecuting: "executing",
}

func (s WorkerState) String() string {
	if int(s) < len(workerStateNames) {
		return workerStateNames[s]
	}
	return "unknown"
}

// workerGauges is one worker's slot. Every field is written either by the
// owning worker or by a worker pushing onto this worker's local list; the
// trailing pad keeps neighbouring workers' slots on different cache lines
// so those writes never false-share (same idea as traceBuf).
type workerGauges struct {
	state atomic.Int32
	_pad  [4]byte
	// llPacked holds the local ready list's depth and the paper's W_i weight
	// counter in one word (see llAdd), so a push or pop maintains both with
	// the single atomic add the scheduler already paid for its weight
	// counter before gauges existed — the gauge costs nothing extra.
	llPacked atomic.Int64
	// busyNs, items, parks and steals are flushed from the run's plain
	// per-worker metrics when a run completes, not per executed item (see
	// Pool.Run), keeping the Execute hot path free of their atomics. Mid-run
	// they lag by the run in flight; queue depth and state stay
	// instantaneous.
	busyNs     atomic.Int64 // cumulative time inside primitives
	items      atomic.Int64 // executed items (tasks, pieces, combiners)
	parks      atomic.Int64 // items fetched after parking (wakes)
	steals     atomic.Int64 // items taken from the head of a peer's list
	completed  atomic.Int64 // original graph tasks completed (Allocate)
	partitions atomic.Int64 // tasks this worker split (δ-partition)
	// lastLabel caches the pprof label context most recently applied on the
	// goroutine driving this slot, so consecutive items of the same kind in
	// the same run skip the SetGoroutineLabels call (see labelSet.apply).
	lastLabel atomic.Pointer[context.Context]
	_         [56]byte // pad the 72-byte body to two cache lines
}

// The packed LL gauge: depth in the top 16 bits, weight in the low 48.
// Both fields are non-negative at every instant (a pop's decrement is
// ordered after its push's increment by the list lock), so neither borrows
// into the other. 48 bits bound the summed queued weight at ~2.8e14 —
// weights are potential-table entry counts, far below that — and 16 bits
// bound the queued depth at 65535.
const (
	llDepthShift = 48
	llWeightMask = int64(1)<<llDepthShift - 1
)

// llAdd adjusts the list gauges by (depth, weight) in one atomic add.
func (g *workerGauges) llAdd(depth, weight int64) {
	g.llPacked.Add(depth<<llDepthShift + weight)
}

// depth reads the local ready list's queued item count.
func (g *workerGauges) depth() int64 {
	return g.llPacked.Load() >> llDepthShift
}

// llWeight reads the W_i weight counter (the Allocate module's argmin key).
func (g *workerGauges) llWeight() int64 {
	return g.llPacked.Load() & llWeightMask
}

// Gauges is the live introspection surface of one Pool. All methods are safe
// for concurrent use; Snapshot never blocks a worker.
type Gauges struct {
	// submitted and aborted track the global task list: submitted counts
	// tasks handed to runs, aborted the tasks of failed runs that will
	// never complete. They are touched once per run, not per task.
	submitted atomic.Int64
	aborted   atomic.Int64
	_         [112]byte // keep the run-level counters off the worker slots
	w         []workerGauges
}

// NewGauges returns a gauge surface for the given worker count.
func NewGauges(workers int) *Gauges {
	if workers < 1 {
		workers = 1
	}
	return &Gauges{w: make([]workerGauges, workers)}
}

// Workers returns the number of worker slots.
func (g *Gauges) Workers() int { return len(g.w) }

func (g *Gauges) worker(w int) *workerGauges { return &g.w[w] }

// runStarted accounts a run's tasks into the GL depth.
func (g *Gauges) runStarted(tasks int) {
	g.submitted.Add(int64(tasks))
}

// runFinished retires a run; leftover counts the tasks a failed run will
// never complete (0 for a successful run).
func (g *Gauges) runFinished(leftover int64) {
	if leftover > 0 {
		g.aborted.Add(leftover)
	}
}

// flushRun folds a completed run's per-worker busy, item, park and steal
// totals into the cumulative gauges — once per run, so the Execute hot path
// never touches these atomics. Callers must ensure the metrics are quiescent
// (a failed pool run's stragglers still write theirs; such runs are not
// flushed).
func (g *Gauges) flushRun(metrics []WorkerMetrics) {
	for w := range metrics {
		if w >= len(g.w) {
			return
		}
		if b := int64(metrics[w].Busy); b > 0 {
			g.w[w].busyNs.Add(b)
		}
		if n := int64(metrics[w].Tasks); n > 0 {
			g.w[w].items.Add(n)
		}
		if n := int64(metrics[w].Parks); n > 0 {
			g.w[w].parks.Add(n)
		}
		if n := int64(metrics[w].Steals); n > 0 {
			g.w[w].steals.Add(n)
		}
	}
}

// WorkerGaugeSnapshot is one worker's gauges at a sampling instant.
type WorkerGaugeSnapshot struct {
	// State is the worker's instantaneous activity.
	State WorkerState `json:"-"`
	// StateName is State rendered for JSON consumers (evtop, /v1/stream):
	// "executing" or "parked". A decoded snapshot has only this.
	StateName string `json:"state"`
	// QueueDepth and QueueWeight are the worker's local ready list: item
	// count and the paper's W_i weight counter.
	QueueDepth  int64 `json:"queue_depth"`
	QueueWeight int64 `json:"queue_weight"`
	// BusyNs is cumulative time inside node-level primitives, the basis of
	// live utilization (delta between two snapshots / wall time). It and
	// Items advance when a run completes, not per item, so they lag a run
	// in flight (serving runs are ms-scale; the 1 s sampler never notices).
	BusyNs int64 `json:"busy_ns"`
	// Items counts executed items; Completed counts original graph tasks
	// this worker retired through the Allocate module.
	Items     int64 `json:"items"`
	Completed int64 `json:"completed"`
	// Partitions counts tasks this worker split into δ-pieces.
	Partitions int64 `json:"partitions"`
	// Parks counts the items this worker fetched after parking — each a wake
	// a run paid for — and Steals those it took from the head of a peer's
	// list while idle inside a run. Both advance when a run completes.
	Parks  int64 `json:"parks"`
	Steals int64 `json:"steals"`
}

// GaugesSnapshot is the whole surface at a sampling instant. It is the
// public evprop.SchedulerGauges and the scheduler block of /v1/stats, so its
// fields' order is the JSON key order.
type GaugesSnapshot struct {
	// PoolSize is P, the pool's worker count. It is the pool's, not a gauge:
	// Pool.Snapshot fills it, Gauges.Snapshot leaves it zero.
	PoolSize int `json:"pool_size"`
	// ActiveRuns is k, the runs in flight over the pool's cores, on the
	// workers and on their callers' goroutines alike, over every engine that
	// shares the pool. A propagation is priced at P ÷ k workers. It is the
	// pool's count, not a gauge: Pool.Snapshot fills it, Gauges.Snapshot
	// leaves it zero.
	ActiveRuns int64 `json:"active_runs"`
	// GlobalDepth is the GL depth: tasks submitted to the scheduler but not
	// yet completed, across all in-flight runs. It can transiently
	// under-count after a failed run (stragglers of the dead run still
	// retire tasks that were already written off), so it is clamped at 0.
	GlobalDepth int64 `json:"global_depth"`
	// Workers holds one entry per worker slot. A pool's is empty until a run
	// is first dispatched to it: the goroutines start then, and reading
	// gauges starts none.
	Workers []WorkerGaugeSnapshot `json:"workers"`
}

// Snapshot sweeps the surface with atomic loads — no locks, and no effect
// on the workers.
func (g *Gauges) Snapshot() GaugesSnapshot {
	if g == nil {
		return GaugesSnapshot{}
	}
	s := GaugesSnapshot{Workers: make([]WorkerGaugeSnapshot, len(g.w))}
	var completed int64
	for i := range g.w {
		wg := &g.w[i]
		st := WorkerState(wg.state.Load())
		ws := &s.Workers[i]
		ws.State = st
		ws.StateName = st.String()
		packed := wg.llPacked.Load()
		ws.QueueDepth = packed >> llDepthShift
		ws.QueueWeight = packed & llWeightMask
		ws.BusyNs = wg.busyNs.Load()
		ws.Items = wg.items.Load()
		ws.Completed = wg.completed.Load()
		ws.Partitions = wg.partitions.Load()
		ws.Parks = wg.parks.Load()
		ws.Steals = wg.steals.Load()
		completed += ws.Completed
	}
	s.GlobalDepth = g.submitted.Load() - g.aborted.Load() - completed
	if s.GlobalDepth < 0 {
		s.GlobalDepth = 0
	}
	return s
}

// TotalBusy sums the per-worker cumulative busy times of a snapshot.
func (s GaugesSnapshot) TotalBusy() time.Duration {
	var t int64
	for i := range s.Workers {
		t += s.Workers[i].BusyNs
	}
	return time.Duration(t)
}
