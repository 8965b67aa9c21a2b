package obs

import (
	"sort"
	"sync/atomic"
	"time"

	"evprop/internal/lazy"
)

// FlightRecorder is the always-on black box of the serving stack: a
// fixed-size lock-free ring of recent query records, each marked Slow when
// its run crossed the slow threshold. A slow query's timeline is not kept
// here: the request's trace, which tail sampling keeps by the same
// threshold (SlowThreshold), holds its spans.
//
// Record takes no lock: one atomic cursor add, one histogram observation
// and one atomic pointer store, so concurrent propagations never serialize
// on the recorder.
type FlightRecorder struct {
	slots  []atomic.Pointer[QueryRecord]
	cursor atomic.Uint64 // next sequence number

	// hist accumulates all recorded latencies; it feeds the adaptive
	// (p99-relative) slow threshold.
	hist Histogram
	// floorNs is the flag-set slow threshold in ns. >0 pins the threshold;
	// 0 selects the adaptive rule (slowFactor × p99 once enough samples).
	floorNs int64
	// slowTotal counts the records marked Slow.
	slowTotal atomic.Int64
}

const (
	// defaultRecorderSize is the ring capacity when unset.
	defaultRecorderSize = 256
	// slowMinSamples gates the adaptive threshold: below this count p99 is
	// noise and nothing is marked slow.
	slowMinSamples = 64
	// slowFactor scales p99 into the adaptive threshold.
	slowFactor = 2
)

// QueryRecord is the one record of one propagation. The engine builds it
// once, when the run (or the cache lookup that replaced it) ends, and every
// observability view — the flight-recorder ring, the engine's run
// aggregate, the propagate span's attributes, QueryResult.Metrics, the
// server's access log, windows and audit log — reads it; none of them keeps
// a second copy of its facts.
//
// Ownership: the engine fills every field but Seq and Slow; Record stamps
// those two before it publishes the pointer into the ring. After that the
// record is immutable and shared between any number of readers.
type QueryRecord struct {
	// Seq is the record's position in the recorder's lifetime sequence
	// (zero on engines without a recorder).
	Seq uint64
	// ID is the query ID threaded through the propagation's context.
	ID string
	// Time is when the propagation completed.
	Time time.Time
	// Mode names the run's semiring: "sum-product" or "max-product" (the
	// taskgraph.Mode string).
	Mode string
	// EvidenceVars is the number of observed variables.
	EvidenceVars int
	// Elapsed is the propagation's wall-clock time.
	Elapsed time.Duration
	// Entries is the work the run was handed, in table entries: the sum over
	// the tasks it ran of the table each ranges over, as sliced on the hard
	// evidence. GraphEntries is the sum over every task of the graph at the
	// full domain — what the graph costs with nothing observed and nothing
	// skipped — so Entries/GraphEntries is the share of the model this query
	// had to touch. Both are 0 when no run was started (cache-served queries).
	Entries, GraphEntries int64
	// TasksSkipped counts the graph's tasks the run left out: distribute messages
	// off a private run's targets, or, completing it, all that the first run did.
	TasksSkipped int
	// EffectiveWorkers is the P the granularity rule priced the run at: the
	// process's workers divided by the runs in flight on them when it
	// started, itself included, at least 1 (sched.Pool.EnterRun). Below the
	// worker count it says the run had company. 0 when no run was started.
	EffectiveWorkers int
	// Report is the run's Fig. 8 report, built once per run; its Executor
	// says whether the run took the caller's goroutine or the workers. It
	// is nil when nothing ran to completion: cache-served queries, and
	// failed or cancelled runs — pool workers may still be draining such a
	// run's queue and mutating its per-worker metrics, so only the scalar
	// fields are recorded.
	Report *Report
	// Err is the propagation failure, "" on success.
	Err string
	// Slow marks records that crossed the slow threshold.
	Slow bool
	// Cached marks queries served from the shared-evidence result cache
	// (a hit, or a singleflight waiter collapsed onto another caller's
	// propagation): no scheduler ran for them. Cached records land in the
	// ring but stay out of the recorder's latency histogram —
	// sub-microsecond lookups must not drag the adaptive slow threshold
	// down to where every real propagation reads as slow — and are never
	// marked slow.
	Cached bool
	// Lazy marks runs executed by the zero-aware lazy engine; LazyStats
	// then holds its pruning counters as of the end of the scheduler run
	// (messages by fate, flops vs one eager two-pass), so a slow lazy query
	// is explainable straight from the recorder without a trace.
	Lazy      bool
	LazyStats lazy.Stats
	// EvidenceSig is the canonical signature of the run's inputs (the
	// result-cache key): the handle that correlates identical queries. The
	// evidence itself is the audit log's, under the same query ID.
	EvidenceSig string
}

// NewFlightRecorder returns a recorder with the given ring capacity
// (0 or negative selects the default) and slow threshold floor (0 selects
// the adaptive p99-relative threshold).
func NewFlightRecorder(size int, slowFloor time.Duration) *FlightRecorder {
	if size <= 0 {
		size = defaultRecorderSize
	}
	return &FlightRecorder{
		slots:   make([]atomic.Pointer[QueryRecord], size),
		floorNs: slowFloor.Nanoseconds(),
	}
}

// SlowThreshold returns the slow threshold currently in force: the
// flag-set floor when one was configured, otherwise slowFactor × the
// observed p99 once slowMinSamples latencies have been recorded. 0 means
// nothing is slow yet (adaptive threshold still warming up).
func (fr *FlightRecorder) SlowThreshold() time.Duration {
	if fr.floorNs > 0 {
		return time.Duration(fr.floorNs)
	}
	if fr.hist.Count() < slowMinSamples {
		return 0
	}
	return slowFactor * fr.hist.Quantile(0.99)
}

// Record publishes one finished propagation's record into the ring,
// marking it Slow when the run crossed the slow threshold.
func (fr *FlightRecorder) Record(rec *QueryRecord) {
	// Seq and Slow are stamped before the atomic store publishes the
	// record: readers only ever see the finished record.
	rec.Seq = fr.cursor.Add(1) - 1
	if !rec.Cached {
		thr := fr.SlowThreshold()
		fr.hist.Observe(rec.Elapsed)
		if rec.Slow = thr > 0 && rec.Elapsed > thr; rec.Slow {
			fr.slowTotal.Add(1)
		}
	}
	fr.slots[rec.Seq%uint64(len(fr.slots))].Store(rec)
}

// Snapshot returns the ring's current records ordered oldest to newest. The
// copy is taken slot by slot with atomic loads, so it is safe against
// concurrent writers; records overwritten mid-snapshot appear with their new
// content.
func (fr *FlightRecorder) Snapshot() []*QueryRecord {
	out := make([]*QueryRecord, 0, len(fr.slots))
	for i := range fr.slots {
		if rec := fr.slots[i].Load(); rec != nil {
			out = append(out, rec)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Total returns how many runs have been recorded over the recorder's
// lifetime (≥ the ring size once it wrapped).
func (fr *FlightRecorder) Total() int64 { return int64(fr.cursor.Load()) }

// SlowTotal returns how many records were marked Slow over the recorder's
// lifetime.
func (fr *FlightRecorder) SlowTotal() int64 { return fr.slowTotal.Load() }

// Size returns the ring capacity.
func (fr *FlightRecorder) Size() int { return len(fr.slots) }
