// Package obs is the observability layer of the serving stack: it turns the
// collaborative scheduler's raw per-worker accounting into the structured
// run reports of the paper's Fig. 8 (per-thread load balance, scheduler
// overhead fraction), aggregates them across an engine's lifetime, and
// provides the lock-cheap latency histogram and Prometheus text exposition
// used by cmd/evserve's /v1/metrics and /v1/stats endpoints.
package obs

import (
	"fmt"
	"io"
	"sync"
	"time"

	"evprop/internal/sched"
	"evprop/internal/taskgraph"
)

// KindNames maps taskgraph.Kind indices to their primitive names, the label
// order of every per-kind breakdown this package emits.
var KindNames = [taskgraph.NumKinds]string{"marginalize", "divide", "extend", "multiply"}

// Report is the structured result of one scheduler run — the Fig. 8
// quantities promoted to a first-class value.
type Report struct {
	// Executor names the path that ran the graph: sched.ExecInline (the
	// caller's goroutine, one worker column) or sched.ExecPool.
	Executor string
	// Workers is the number of worker threads P.
	Workers int
	// Elapsed is the run's wall-clock makespan.
	Elapsed time.Duration
	// Busy and Overhead are the per-worker computation and scheduling
	// (Allocate + Partition) times.
	Busy     []time.Duration
	Overhead []time.Duration
	// KindBusy splits total computation time by primitive kind, indexed by
	// taskgraph.Kind (see KindNames).
	KindBusy [taskgraph.NumKinds]time.Duration
	// Tasks, Pieces and Partitioned are the run's item counters.
	Tasks, Pieces, Partitioned int

	// LoadBalance is max(busy) / mean(busy) across workers: 1.0 is a
	// perfectly balanced run, P is the degenerate single-worker-did-it-all
	// case. The paper's Fig. 8 plots the per-thread busy times this factor
	// summarizes.
	LoadBalance float64
	// OverheadFraction is total scheduling time / total(busy + scheduling)
	// — the Fig. 8 "<0.9% scheduler overhead" number.
	OverheadFraction float64
}

// FromSched builds the run report from a real execution's metrics.
func FromSched(m *sched.Metrics) *Report {
	r := &Report{
		Executor:    m.Executor,
		Workers:     len(m.Workers),
		Elapsed:     m.Elapsed,
		Busy:        make([]time.Duration, len(m.Workers)),
		Overhead:    make([]time.Duration, len(m.Workers)),
		Tasks:       m.Tasks,
		Pieces:      m.Pieces,
		Partitioned: m.Partition,
	}
	for w, wm := range m.Workers {
		r.Busy[w] = wm.Busy
		r.Overhead[w] = wm.Overhead
		for k := 0; k < taskgraph.NumKinds; k++ {
			r.KindBusy[k] += wm.KindBusy[k]
		}
	}
	r.derive()
	return r
}

// FromSim builds a report from the simulated machine's per-core busy and
// overhead times (seconds) — the bridge that lets the Fig. 8 experiment and
// real runs share one set of metric definitions.
func FromSim(busy, overhead []float64, makespan float64) *Report {
	r := &Report{
		Workers:  len(busy),
		Elapsed:  time.Duration(makespan * float64(time.Second)),
		Busy:     make([]time.Duration, len(busy)),
		Overhead: make([]time.Duration, len(overhead)),
	}
	for i, b := range busy {
		r.Busy[i] = time.Duration(b * float64(time.Second))
	}
	for i, o := range overhead {
		r.Overhead[i] = time.Duration(o * float64(time.Second))
	}
	r.derive()
	return r
}

// derive fills the summary factors from the per-worker columns.
func (r *Report) derive() {
	var total, max, overhead time.Duration
	for _, b := range r.Busy {
		total += b
		if b > max {
			max = b
		}
	}
	for _, o := range r.Overhead {
		overhead += o
	}
	if total > 0 && r.Workers > 0 {
		mean := float64(total) / float64(r.Workers)
		r.LoadBalance = float64(max) / mean
	} else {
		r.LoadBalance = 1
	}
	if total+overhead > 0 {
		r.OverheadFraction = float64(overhead) / float64(total+overhead)
	}
}

// TotalBusy sums the per-worker computation times.
func (r *Report) TotalBusy() time.Duration {
	var t time.Duration
	for _, b := range r.Busy {
		t += b
	}
	return t
}

// TotalOverhead sums the per-worker scheduling times.
func (r *Report) TotalOverhead() time.Duration {
	var t time.Duration
	for _, o := range r.Overhead {
		t += o
	}
	return t
}

// Write prints the report in the row shape of the paper's Fig. 8.
func (r *Report) Write(w io.Writer) {
	fmt.Fprintf(w, "run: P=%d elapsed=%v tasks=%d pieces=%d partitioned=%d\n",
		r.Workers, r.Elapsed, r.Tasks, r.Pieces, r.Partitioned)
	fmt.Fprintf(w, "  load balance (max/mean busy): %.3f\n", r.LoadBalance)
	fmt.Fprintf(w, "  scheduler overhead fraction:  %.4f%%\n", 100*r.OverheadFraction)
	for k, name := range KindNames {
		if r.KindBusy[k] > 0 {
			fmt.Fprintf(w, "  %-12s %v\n", name, r.KindBusy[k])
		}
	}
}

// Aggregate accumulates run reports across an engine's lifetime — the
// counters behind /v1/metrics. A single mutex is fine here: it is taken
// once per propagation (not per task), which is noise next to the
// propagation itself.
type Aggregate struct {
	mu                sync.Mutex
	runs              int64
	inlineRuns        int64
	busy              time.Duration
	overhead          time.Duration
	kindBusy          [taskgraph.NumKinds]time.Duration
	tasks             int64
	pieces            int64
	partitioned       int64
	entries           int64
	graphEntries      int64
	lastLoadBalance   float64
	lastOverheadFrac  float64
	lastWorkers       int
	lastElapsed       time.Duration
	totalElapsedOfAll time.Duration
}

// Observe folds one completed run — its record's report and entry counts —
// into the aggregate.
func (a *Aggregate) Observe(rec *QueryRecord) {
	r := rec.Report
	a.mu.Lock()
	defer a.mu.Unlock()
	a.runs++
	a.entries += rec.Entries
	a.graphEntries += rec.GraphEntries
	if r.Executor == sched.ExecInline {
		a.inlineRuns++
	}
	a.busy += r.TotalBusy()
	a.overhead += r.TotalOverhead()
	for k := 0; k < taskgraph.NumKinds; k++ {
		a.kindBusy[k] += r.KindBusy[k]
	}
	a.tasks += int64(r.Tasks)
	a.pieces += int64(r.Pieces)
	a.partitioned += int64(r.Partitioned)
	a.lastLoadBalance = r.LoadBalance
	a.lastOverheadFrac = r.OverheadFraction
	a.lastWorkers = r.Workers
	a.lastElapsed = r.Elapsed
	a.totalElapsedOfAll += r.Elapsed
}

// AggregateSnapshot is a consistent copy of an Aggregate's counters.
type AggregateSnapshot struct {
	// Runs counts scheduler runs folded in; InlineRuns of them ran on the
	// caller's goroutine and PoolRuns were dispatched to workers.
	Runs, InlineRuns, PoolRuns int64
	// Busy and Overhead are lifetime totals across all runs and workers.
	Busy, Overhead time.Duration
	// KindBusy is the lifetime per-primitive-kind computation time.
	KindBusy [taskgraph.NumKinds]time.Duration
	// Tasks, Pieces, Partitioned are lifetime item counters.
	Tasks, Pieces, Partitioned int64
	// Entries sums the table entries the runs ranged over, sliced on each
	// query's evidence; GraphEntries what the same runs cost at the full domain
	// (QueryRecord.Entries, GraphEntries).
	Entries, GraphEntries int64
	// LastLoadBalance and LastOverheadFraction are the most recent run's
	// Fig. 8 factors (gauges).
	LastLoadBalance      float64
	LastOverheadFraction float64
	// LastWorkers and LastElapsed describe the most recent run.
	LastWorkers int
	LastElapsed time.Duration
	// TotalElapsed sums every run's makespan.
	TotalElapsed time.Duration
}

// OverheadFraction is the lifetime scheduler-overhead fraction.
func (s AggregateSnapshot) OverheadFraction() float64 {
	if s.Busy+s.Overhead <= 0 {
		return 0
	}
	return float64(s.Overhead) / float64(s.Busy+s.Overhead)
}

// SlicedShare is the lifetime share of the models' table entries the runs had
// to range over after slicing on their evidence: 1 with no evidence (and with
// no runs), 0.03 when 30 of 60 variables are observed.
func (s AggregateSnapshot) SlicedShare() float64 {
	if s.GraphEntries <= 0 {
		return 1
	}
	return float64(s.Entries) / float64(s.GraphEntries)
}

// Snapshot returns a consistent copy of the aggregate.
func (a *Aggregate) Snapshot() AggregateSnapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := AggregateSnapshot{
		Runs:                 a.runs,
		InlineRuns:           a.inlineRuns,
		PoolRuns:             a.runs - a.inlineRuns,
		Busy:                 a.busy,
		Overhead:             a.overhead,
		KindBusy:             a.kindBusy,
		Tasks:                a.tasks,
		Pieces:               a.pieces,
		Partitioned:          a.partitioned,
		Entries:              a.entries,
		GraphEntries:         a.graphEntries,
		LastLoadBalance:      a.lastLoadBalance,
		LastOverheadFraction: a.lastOverheadFrac,
		LastWorkers:          a.lastWorkers,
		LastElapsed:          a.lastElapsed,
		TotalElapsed:         a.totalElapsedOfAll,
	}
	if s.Runs == 0 {
		s.LastLoadBalance = 1
	}
	return s
}
