package main

import (
	"context"
	"encoding/hex"
	"net/http"
	"sync"
	"time"

	"evprop/internal/obs"
	"evprop/internal/obs/trace"
	"evprop/internal/registry"
)

// Per-request observability: instrument wraps every handler so each request
// gets a query ID (minted here, or honored from the client's X-Query-ID
// header when it passes validQueryID), an optional deadline, and one
// access-log line on completion (see accesslog.go). The ID rides the request
// context into Engine.Propagate and the scheduler, so the access-log line,
// the HTTP response header and the flight-recorder entry all carry the same
// ID.

// reqInfo is one request: the context its handler runs under, the writer it
// answers through, and its totals, which finish folds each of the request's
// outcomes into (see fold) and instrument reads back into the access log and
// the model's window when the handler returns.
type reqInfo struct {
	// Context is the request's own. reqInfo answers for the values the
	// request carries itself (see Value), so opening a request wraps no
	// context.
	context.Context
	queryID string
	// traceID is the request's 32-hex distributed-trace ID and root its root
	// span, "" and inert when tracing is off. queryID, traceID and root are
	// written by instrument before the handler runs, so plain reads from
	// handler goroutines are ordered.
	traceID string
	root    trace.Span
	// sw is the writer the handler answers through; hdr backs the values of
	// the X-Query-Id and X-Trace-Id response headers.
	sw  statusWriter
	hdr [2]string
	// ms is where the request is counted — its errors, its window sample: the
	// server's noModel until routing resolves a model, that model's counters
	// from then on.
	// version is the model version acquire pinned, nil when none was. Both are
	// written on the request's own goroutine before any sub-query starts.
	ms      *modelStats
	version *registry.Version

	// mu guards totals: /v1/batch folds its sub-queries' outcomes from
	// concurrent goroutines.
	mu     sync.Mutex
	totals reqTotals
}

// reqTotals is what a request's outcomes add up to.
type reqTotals struct {
	evidenceVars, propagations int64
	// entries sums what the request's propagations ranged over, in table
	// entries sliced on their evidence, graphEntries what the same task graphs
	// cost with nothing observed.
	entries, graphEntries int64
	// cacheLookups counts the request's answers on cache-enabled engines and
	// cacheHits the ones that cost no propagation of their own; both stay
	// zero on engines compiled without a cache.
	cacheHits, cacheLookups int64
	// executor is the path the most recent propagation took ("inline" or
	// "pool", "" when none ran), overheadFrac and loadBalance its Fig. 8
	// gauges.
	executor                  string
	overheadFrac, loadBalance float64
	// answered is the latency of the request's last successful answer, 0
	// when none succeeded: the exemplar instrument gives the model's latency
	// histogram once tail sampling kept the request's trace.
	answered time.Duration
}

type reqInfoKey struct{}

// Value answers for the values a request carries — its reqInfo, its query ID
// and its root span — and asks the request's own context for anything else.
func (ri *reqInfo) Value(key any) any {
	switch key.(type) {
	case reqInfoKey:
		return ri
	case obs.QueryIDKey:
		return &ri.queryID
	case trace.SpanKey:
		if ri.traceID != "" {
			return &ri.root
		}
	}
	return ri.Context.Value(key)
}

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
	ri.mu.Lock()
	defer ri.mu.Unlock()
	t := &ri.totals
	t.evidenceVars += int64(len(o.evidence))
	for _, run := range o.runs[:o.nruns] {
		if run.Executor != "" {
			t.propagations++
			t.executor, t.overheadFrac, t.loadBalance = run.Executor, run.SchedOverheadFrac, run.LoadBalance
			t.entries += run.Entries
			t.graphEntries += run.GraphEntries
		}
	}
	if cacheOn && o.err == nil {
		t.cacheLookups++
		if o.cached {
			t.cacheHits++
		}
	}
	if o.err == nil {
		t.answered = o.elapsed
	}
}

// snapshot returns the request's totals.
func (ri *reqInfo) snapshot() reqTotals {
	ri.mu.Lock()
	defer ri.mu.Unlock()
	return ri.totals
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
		ri := &reqInfo{Context: r.Context(), sw: statusWriter{ResponseWriter: w}, ms: s.noModel}
		// Open the request's trace: honor a caller-supplied W3C traceparent
		// (same trace ID end to end, remote span as the root's parent), mint
		// a fresh ID otherwise. The span rides the context into the engine;
		// the keep decision is deferred to Finish (tail sampling).
		var arena *trace.Trace
		if s.tracer != nil {
			parent, _ := trace.ParseTraceparent(r.Header.Get("Traceparent"))
			if parent.IsValid() {
				parent.State = r.Header.Get("Tracestate")
			}
			arena = s.tracer.Start(endpoint, parent, &ri.root)
		}
		// The query ID — the client's when it is valid, else minted here —
		// and the trace ID's hex are appended into one string.
		ri.queryID = r.Header.Get("X-Query-Id")
		var idBuf [80]byte
		ids := idBuf[:0]
		if !validQueryID(ri.queryID) {
			ids = obs.AppendQueryID(ids)
		}
		minted := len(ids)
		if arena != nil {
			tid := ri.root.TraceID()
			ids = hex.AppendEncode(ids, tid[:])
		}
		if len(ids) > 0 {
			both := string(ids)
			if minted > 0 {
				ri.queryID = both[:minted]
			}
			ri.traceID = both[minted:]
		}
		// Header keys are canonical and values are backed by ri, so setting
		// them allocates nothing.
		hdr := w.Header()
		ri.hdr = [2]string{ri.queryID, ri.traceID}
		hdr["X-Query-Id"] = ri.hdr[0:1:1]
		if arena != nil {
			hdr["X-Trace-Id"] = ri.hdr[1:2:2]
			ri.root.SetAttr(trace.String("http.method", r.Method), trace.String("query.id", ri.queryID))
		}
		var ctx context.Context = ri
		if s.timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.timeout)
			defer cancel()
		}
		h(&ri.sw, r.WithContext(ctx))
		end := time.Now()
		latency := end.Sub(start)
		status := ri.sw.code
		if status == 0 {
			status = http.StatusOK
		}
		t := ri.snapshot()
		if arena != nil {
			root := &ri.root
			root.SetAttr(trace.Int("http.status", int64(status)))
			if status >= 500 {
				root.Fail(http.StatusText(status))
			}
			root.End()
			arena.SetSlowThreshold(ri.slowThreshold())
			if s.tracer.Finish(arena, root) && t.answered > 0 {
				ri.ms.latency.SetExemplar(t.answered, ri.traceID)
			}
		}
		// A request that resolved no model — a scrape, a dashboard's poll, an
		// unknown name — is in the access log and noModel's error count, and in
		// no window: observers must not read as traffic.
		if ri.ms != s.noModel {
			ri.ms.window.Observe(latency, status >= 400, t.loadBalance)
			ri.ms.window.ObserveCache(t.cacheHits, t.cacheLookups)
		}
		s.access.write(&accessLine{
			time:         end,
			id:           ri.queryID,
			traceID:      ri.traceID,
			method:       r.Method,
			endpoint:     endpoint,
			model:        ri.ms.name,
			status:       status,
			bytes:        ri.sw.bytes,
			evidenceVars: t.evidenceVars,
			propagations: t.propagations,
			cacheHits:    t.cacheHits,
			executor:     t.executor,
			entries:      t.entries,
			graphEntries: t.graphEntries,
			overheadFrac: t.overheadFrac,
			loadBalance:  t.loadBalance,
			latency:      latency,
		})
	}
}
