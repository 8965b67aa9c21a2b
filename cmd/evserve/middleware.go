package main

import (
	"context"
	"log/slog"
	"math"
	"net/http"
	"sync/atomic"
	"time"

	"evprop"
	"evprop/internal/obs/trace"
	"evprop/internal/registry"
)

// Per-request observability: instrument wraps every handler so each request
// gets a query ID (minted here, or honored from the client's X-Query-ID
// header when it passes validQueryID), an optional deadline, and one
// structured access-log record on
// completion. The ID rides the request context into Engine.Propagate and the
// scheduler, so the access-log line, the HTTP response header and the
// flight-recorder entry all carry the same ID.

// reqInfo holds one request's totals: finish folds each of the request's
// outcomes into it (see fold), and instrument reads it back into the access
// log and the model's window when the handler returns. The totals are atomics
// because /v1/batch runs its sub-queries on concurrent goroutines.
type reqInfo struct {
	queryID string
	// traceID is the request's 32-hex distributed-trace ID, "" when tracing
	// is off. Written once by instrument before the handler runs, so plain
	// reads from handler goroutines are ordered.
	traceID      string
	evidenceVars atomic.Int64
	propagations atomic.Int64
	// overheadFrac and loadBalance hold the most recent propagation's
	// gauges as float bits, executor the path it took ("inline" or "pool").
	overheadFrac atomic.Uint64
	loadBalance  atomic.Uint64
	executor     atomic.Pointer[string]
	// entries sums what the request's propagations ranged over, in table
	// entries sliced on their evidence, graphEntries what the same task graphs
	// cost with nothing observed.
	entries      atomic.Int64
	graphEntries atomic.Int64
	// cacheLookups counts the request's answers on cache-enabled engines and
	// cacheHits the ones that cost no propagation of their own; both stay
	// zero on engines compiled without a cache.
	cacheHits    atomic.Int64
	cacheLookups atomic.Int64
	// answered is the latency in ns of the request's last successful answer,
	// 0 when none succeeded: the exemplar instrument gives the model's latency
	// histogram once tail sampling kept the request's trace.
	answered atomic.Int64
	// ms is where the request is counted — its errors, its window sample: the
	// server's noModel until routing resolves a model, that model's counters
	// from then on.
	// version is the model version acquire pinned, nil when none was. Both are
	// written on the request's own goroutine before any sub-query starts.
	ms      *modelStats
	version *registry.Version
}

type reqInfoKey struct{}

// reqInfoFrom returns the request's annotation record, nil for contexts that
// did not pass through instrument (direct engine use, tests).
func reqInfoFrom(ctx context.Context) *reqInfo {
	ri, _ := ctx.Value(reqInfoKey{}).(*reqInfo)
	return ri
}

// fold adds one finished outcome to the request's totals: its evidence
// size, the executor and Fig. 8 gauges of each run its engine records carry,
// and — on engines with a cache — one cache consultation per answer, a hit
// when the answer cost no propagation of its own.
func (ri *reqInfo) fold(o *outcome, cacheOn bool) {
	ri.evidenceVars.Add(int64(len(o.evidence)))
	for i := range o.runs {
		if run := &o.runs[i]; run.Executor != "" {
			ri.propagations.Add(1)
			ri.overheadFrac.Store(math.Float64bits(run.SchedOverheadFrac))
			ri.loadBalance.Store(math.Float64bits(run.LoadBalance))
			ri.executor.Store(&run.Executor)
			ri.entries.Add(run.Entries)
			ri.graphEntries.Add(run.GraphEntries)
		}
	}
	if cacheOn && o.err == nil {
		ri.cacheLookups.Add(1)
		if o.cached {
			ri.cacheHits.Add(1)
		}
	}
}

// lastExecutor returns the path the request's most recent propagation
// took, "" when none ran (cache hits, failures).
func (ri *reqInfo) lastExecutor() string {
	if p := ri.executor.Load(); p != nil {
		return *p
	}
	return ""
}

func (ri *reqInfo) lastLoadBalance() float64 {
	return math.Float64frombits(ri.loadBalance.Load())
}

func (ri *reqInfo) lastOverheadFrac() float64 {
	return math.Float64frombits(ri.overheadFrac.Load())
}

// slowThreshold is tail sampling's "slow" rule for one request: the flight
// recorder's adaptive 2×p99 threshold (or the -slow-threshold floor) of the
// model version the request pinned, 0 — no slow rule — when it pinned none.
func (ri *reqInfo) slowThreshold() time.Duration {
	if ri.version == nil {
		return 0
	}
	return time.Duration(ri.version.Engine.FlightRecorderStats().SlowThresholdUsec * 1e3)
}

// queryIDMaxLen bounds client-supplied query IDs: anything longer is
// replaced with a generated ID rather than retained in the access log and
// the flight-recorder ring.
const queryIDMaxLen = 64

// validQueryID reports whether a client-supplied X-Query-ID may be adopted
// as the request's query ID: non-empty, at most queryIDMaxLen bytes, and
// limited to [A-Za-z0-9._:-] so an arbitrary header cannot pollute the
// structured logs or the recorder with control characters, separators or
// oversized values. Generated IDs ("q-9f2c41d3-17") satisfy this too.
func validQueryID(id string) bool {
	if id == "" || len(id) > queryIDMaxLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		switch c := id[i]; {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == ':', c == '-':
		default:
			return false
		}
	}
	return true
}

// statusWriter captures the response status and size for the access log.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// instrument wraps a handler with the per-request observability layer.
func (s *server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get("X-Query-ID")
		if !validQueryID(id) {
			id = evprop.NewQueryID()
		}
		ri := &reqInfo{queryID: id, ms: s.noModel}
		ctx := evprop.WithQueryID(r.Context(), id)
		ctx = context.WithValue(ctx, reqInfoKey{}, ri)
		// Open the request's trace: honor a caller-supplied W3C traceparent
		// (same trace ID end to end, remote span as the root's parent), mint
		// a fresh ID otherwise. The span rides the context into the engine;
		// the keep decision is deferred to Finish (tail sampling).
		var (
			arena *trace.Trace
			root  *trace.Span
		)
		if s.tracer != nil {
			parent, _ := trace.ParseTraceparent(r.Header.Get("traceparent"))
			if parent.IsValid() {
				parent.State = r.Header.Get("tracestate")
			}
			arena, root = s.tracer.StartRequest(endpoint, parent)
			root.SetAttr(trace.String("http.method", r.Method), trace.String("query.id", id))
			ctx = trace.ContextWith(ctx, root)
			ri.traceID = root.TraceID().String()
			w.Header().Set("X-Trace-ID", ri.traceID)
		}
		if s.timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.timeout)
			defer cancel()
		}
		w.Header().Set("X-Query-ID", id)
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r.WithContext(ctx))
		latency := time.Since(start)
		status := sw.code
		if status == 0 {
			status = http.StatusOK
		}
		if root != nil {
			root.SetAttr(trace.Int("http.status", int64(status)))
			if status >= 500 {
				root.Fail(http.StatusText(status))
			}
			root.End()
			arena.SetSlowThreshold(ri.slowThreshold())
			if d := ri.answered.Load(); s.tracer.Finish(arena, root) && d > 0 {
				ri.ms.latency.SetExemplar(time.Duration(d), ri.traceID)
			}
		}
		// A request that resolved no model — a scrape, a dashboard's poll, an
		// unknown name — is in the access log and noModel's error count, and in
		// no window: observers must not read as traffic.
		if ri.ms != s.noModel {
			ri.ms.window.Observe(latency, status >= 400, ri.lastLoadBalance())
			ri.ms.window.ObserveCache(ri.cacheHits.Load(), ri.cacheLookups.Load())
		}
		s.log.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("id", id),
			slog.String("trace_id", ri.traceID),
			slog.String("method", r.Method),
			slog.String("endpoint", endpoint),
			slog.String("model", ri.ms.name),
			slog.Int("status", status),
			slog.Int("bytes", sw.bytes),
			slog.Int64("evidence_vars", ri.evidenceVars.Load()),
			slog.Int64("propagations", ri.propagations.Load()),
			slog.Int64("cache_hits", ri.cacheHits.Load()),
			slog.String("executor", ri.lastExecutor()),
			slog.Int64("entries", ri.entries.Load()),
			slog.Int64("graph_entries", ri.graphEntries.Load()),
			slog.Float64("sched_overhead_fraction", ri.lastOverheadFrac()),
			slog.Float64("load_balance", ri.lastLoadBalance()),
			slog.Duration("latency", latency),
		)
	}
}
