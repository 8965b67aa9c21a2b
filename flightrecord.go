package evprop

import (
	"context"
	"encoding/hex"
	"time"

	"evprop/internal/obs"
)

// Per-request observability: every propagation carries a query ID (threaded
// through the context) and leaves a summary in the engine's always-on flight
// recorder — a fixed-size lock-free ring of recent queries, each marked Slow
// when it crossed the slow threshold. Looked up by query ID, the record says
// how the run went: executor, workers, tasks, entries and the Fig. 8 gauges.

// WithQueryID returns a context carrying a query ID. Propagations run under
// this context are recorded under the ID, so an HTTP server that stamps each
// request can later find the matching flight-recorder entry.
func WithQueryID(ctx context.Context, id string) context.Context {
	return obs.WithQueryID(ctx, id)
}

// QueryIDFrom extracts the query ID from a context, "" when none is set.
func QueryIDFrom(ctx context.Context) string { return obs.QueryIDFrom(ctx) }

// NewQueryID returns a process-unique query ID (e.g. "q-9f2c41d3-17").
func NewQueryID() string { return obs.NewQueryID() }

// FlightRecord is one propagation's summary in the engine's flight recorder.
type FlightRecord struct {
	// Seq orders records over the recorder's lifetime.
	Seq uint64 `json:"seq"`
	// ID is the query ID the propagation ran under.
	ID string `json:"id"`
	// Time is when the propagation completed.
	Time time.Time `json:"time"`
	// Mode is "sum-product" or "max-product".
	Mode string `json:"mode"`
	// EvidenceVars is the number of observed variables.
	EvidenceVars int `json:"evidence_vars"`
	// ElapsedUsec is the propagation's wall-clock time in microseconds.
	ElapsedUsec float64 `json:"elapsed_usec"`
	// Executor is the path the run took: "inline" (the caller's goroutine —
	// the serial scheduler, one worker, or a task graph whose mean task is
	// cheaper than one dispatch) or "pool" (the scheduler's workers). Empty,
	// like the run fields below, on cached and failed records: no run's
	// report stands behind them.
	Executor string `json:"executor,omitempty"`
	// Workers and Tasks describe the run: the worker columns it reported
	// (1 for an inline run) and the tasks it completed.
	Workers int `json:"workers"`
	Tasks   int `json:"tasks"`
	// Entries is the work the run was handed, in table entries: the tables of
	// the tasks it ran, as sliced on the hard evidence. GraphEntries is what
	// the whole task graph costs with nothing observed, so their ratio is the
	// share of the model this query had to touch. Omitted (0) on cached records.
	Entries      int64 `json:"entries,omitempty"`
	GraphEntries int64 `json:"graph_entries,omitempty"`
	// TasksSkipped counts the graph's tasks the run left out (Tasks: the ones
	// it ran): messages toward cliques outside a private run's declared targets
	// (Engine.Propagate), or, on the run completing it, all the first run did.
	TasksSkipped int `json:"tasks_skipped,omitempty"`
	// EffectiveWorkers is the worker count the granularity rule priced the run
	// at: the process's workers (Options.Workers) divided by the runs in flight
	// on them when it started — any engine's, itself included — at least 1
	// (SchedulerGauges.ActiveRuns is that count). Equal to Options.Workers when
	// the run was alone; 1 means every core had a query of its own, and the run
	// stayed on its caller's goroutine. Omitted (0) on cached records.
	EffectiveWorkers int `json:"effective_workers,omitempty"`
	// LoadBalance and SchedOverheadFrac are the run's Fig. 8 gauges.
	LoadBalance       float64 `json:"load_balance"`
	SchedOverheadFrac float64 `json:"sched_overhead_fraction"`
	// Error is the propagation failure, omitted on success.
	Error string `json:"error,omitempty"`
	// Slow marks records that crossed the slow threshold.
	Slow bool `json:"slow"`
	// Cached marks queries served from the shared-evidence result cache
	// (no scheduler ran for them).
	Cached bool `json:"cached"`
	// Lazy marks runs executed by the zero-aware lazy engine; the pruning
	// counters that follow explain where the run's work went (messages by
	// fate, table entries processed vs one eager two-pass propagation), so
	// a slow lazy query is explainable straight from the flight recorder.
	Lazy             bool  `json:"lazy,omitempty"`
	LazyMsgSent      int64 `json:"lazy_msg_sent,omitempty"`
	LazyMsgBlocked   int64 `json:"lazy_msg_blocked,omitempty"`
	LazyMsgSkipped   int64 `json:"lazy_msg_skipped,omitempty"`
	LazyFlops        int64 `json:"lazy_flops,omitempty"`
	LazyFlopsFull    int64 `json:"lazy_flops_full,omitempty"`
	LazyMaterialized int64 `json:"lazy_materialized,omitempty"`
	// EvidenceSig is the canonical evidence signature (hex) of the query's
	// inputs — the result-cache key, and the handle that correlates
	// identical queries. The evidence itself is in evserve's audit log,
	// under the same query ID.
	EvidenceSig string `json:"evidence_sig,omitempty"`
}

// FlightRecorderStats summarizes the recorder itself.
type FlightRecorderStats struct {
	// Enabled is false when the engine was compiled with
	// DisableFlightRecorder.
	Enabled bool `json:"enabled"`
	// Size is the ring capacity.
	Size int `json:"size"`
	// Recorded counts propagations recorded over the engine's lifetime.
	Recorded int64 `json:"recorded"`
	// SlowCaptured counts the records marked Slow.
	SlowCaptured int64 `json:"slow_captured"`
	// SlowThresholdUsec is the slow threshold currently in force, 0 while
	// the adaptive threshold is still warming up.
	SlowThresholdUsec float64 `json:"slow_threshold_usec"`
}

// FlightRecorderStats returns the recorder's own counters and current slow
// threshold.
func (e *Engine) FlightRecorderStats() FlightRecorderStats {
	fr := e.recorder()
	if fr == nil {
		return FlightRecorderStats{}
	}
	return FlightRecorderStats{
		Enabled:           true,
		Size:              fr.Size(),
		Recorded:          fr.Total(),
		SlowCaptured:      fr.SlowTotal(),
		SlowThresholdUsec: usec(fr.SlowThreshold()),
	}
}

// RecentQueries returns the flight recorder's current ring contents, oldest
// to newest — the last N propagations with their query IDs, latencies and
// Fig. 8 gauges. It returns nil when the recorder is disabled.
func (e *Engine) RecentQueries() []FlightRecord {
	fr := e.recorder()
	if fr == nil {
		return nil
	}
	recs := fr.Snapshot()
	out := make([]FlightRecord, len(recs))
	for i, rec := range recs {
		out[i] = publicRecord(rec)
	}
	return out
}

func (e *Engine) recorder() *obs.FlightRecorder {
	if e == nil || e.inner == nil {
		return nil
	}
	return e.inner.Recorder()
}

// publicRecord projects an engine record onto the public shape.
func publicRecord(r *obs.QueryRecord) FlightRecord {
	out := FlightRecord{
		Seq:              r.Seq,
		ID:               r.ID,
		Time:             r.Time,
		Mode:             r.Mode,
		EvidenceVars:     r.EvidenceVars,
		ElapsedUsec:      usec(r.Elapsed),
		Entries:          r.Entries,
		GraphEntries:     r.GraphEntries,
		TasksSkipped:     r.TasksSkipped,
		EffectiveWorkers: r.EffectiveWorkers,
		Error:            r.Err,
		Slow:             r.Slow,
		Cached:           r.Cached,
		Lazy:             r.Lazy,
		LazyMsgSent:      r.LazyStats.MessagesSent,
		LazyMsgBlocked:   r.LazyStats.MessagesBlocked,
		LazyMsgSkipped:   r.LazyStats.MessagesSkipped,
		LazyFlops:        r.LazyStats.Flops,
		LazyFlopsFull:    r.LazyStats.FlopsFull,
		LazyMaterialized: r.LazyStats.MaterializedEntries,
		EvidenceSig:      hex.EncodeToString([]byte(r.EvidenceSig)),
	}
	if rep := r.Report; rep != nil {
		out.Executor = rep.Executor
		out.Workers = rep.Workers
		out.Tasks = rep.Tasks
		out.LoadBalance = rep.LoadBalance
		out.SchedOverheadFrac = rep.OverheadFraction
	}
	return out
}

func usec(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
