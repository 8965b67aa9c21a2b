package evclient

import (
	"time"

	"evprop"
	"evprop/internal/audit"
	"evprop/internal/obs/trace"
	"evprop/internal/registry"
)

// The wire. Every JSON body evserve reads or writes is declared once: a body
// only the wire has is a struct in this file, and what the server encodes
// straight from the type that produces it — the engine's records and counters,
// the registry's model info, the audit writer's and the tracer's counters — is
// an alias of that type. evserve decodes its requests into these types and
// answers with them, so nothing can be on the wire that a client does not
// decode.

// Evidence maps variable names to observed state indices.
type Evidence = evprop.Evidence

// QueryRequest is the body of POST /v1/models/{name}/query and one item of a
// batch.
type QueryRequest struct {
	Evidence Evidence `json:"evidence"`
	// Query names the posteriors to answer; none: every non-evidence variable.
	Query []string `json:"query,omitempty"`
}

// QueryResponse is one query's answer. Model and Version identify the
// engine build that answered (versions increment on hot reload).
type QueryResponse struct {
	PEvidence  float64              `json:"p_evidence"`
	Posteriors map[string][]float64 `json:"posteriors"`
	Model      string               `json:"model,omitempty"`
	Version    int64                `json:"version,omitempty"`
}

// BatchRequest is the body of POST /v1/models/{name}/batch.
type BatchRequest struct {
	Queries []QueryRequest `json:"queries"`
}

// BatchResult is one sub-query's outcome; Error is set when that sub-query
// failed (its siblings still answer), and the answer fields are not.
type BatchResult struct {
	PEvidence  float64              `json:"p_evidence,omitempty"`
	Posteriors map[string][]float64 `json:"posteriors,omitempty"`
	Error      string               `json:"error,omitempty"`
}

// BatchResponse carries every sub-query's result in request order, all
// answered by one engine build: a batch is never split across a hot reload.
type BatchResponse struct {
	Results []BatchResult `json:"results"`
	Model   string        `json:"model,omitempty"`
	Version int64         `json:"version,omitempty"`
}

// MPERequest is the body of POST /v1/models/{name}/mpe.
type MPERequest struct {
	Evidence Evidence `json:"evidence"`
}

// MPEResponse is the most probable explanation under the evidence.
type MPEResponse struct {
	Assignment  map[string]int `json:"assignment"`
	Probability float64        `json:"probability"`
	Model       string         `json:"model,omitempty"`
	Version     int64          `json:"version,omitempty"`
}

// DSepRequest asks POST /v1/models/{name}/dsep whether X ⫫ Y | Z.
type DSepRequest struct {
	X []string `json:"x"`
	Y []string `json:"y"`
	Z []string `json:"z"`
}

// DSepResponse is the d-separation verdict.
type DSepResponse struct {
	Separated bool `json:"separated"`
}

// ErrorEnvelope is the body of every failure: {"error": {"code", "message",
// "query_id", "trace_id"}}.
type ErrorEnvelope struct {
	Error APIError `json:"error"`
}

// ModelInfo is one model's lifecycle row, as listed by GET /v1/models. State
// is "compiling", "ready" or "failed".
type ModelInfo = registry.Info

// ModelList is the GET /v1/models body.
type ModelList struct {
	Models []ModelInfo `json:"models"`
}

// Variable is one network variable: name and state count.
type Variable struct {
	Name   string `json:"name"`
	States int    `json:"states"`
}

// ModelSchema is GET /v1/models/{name}: the info row plus the variable schema
// of the current version. On the wire "variables" is the schema list, which
// shadows the info row's count; Client.Model sets the count from the list.
type ModelSchema struct {
	ModelInfo
	Variables []Variable `json:"variables"`
}

// Stats is GET /v1/stats, and one /v1/stream event (see Snapshot): the
// server-wide totals, the process's scheduler, one row per model, the
// catch-all row, the audit and trace pipelines. Everything is counted on a
// model; Totals is the sum over Models and Unresolved at the instant the rows
// were read.
type Stats struct {
	Time      time.Time `json:"time"`
	UptimeSec float64   `json:"uptime_sec"`
	Totals    Counters  `json:"totals"`
	// Scheduler is the server process's worker pool, shared by every model:
	// its size, the runs in flight over all models (inline ones too), the GL
	// depth and one entry per worker (none until a run has been dispatched).
	// A decoded worker's state is its StateName; State is not on the wire.
	Scheduler evprop.SchedulerGauges `json:"scheduler"`
	// Models has one row per registered model, sorted by name.
	Models []ModelStats `json:"models"`
	// Unresolved counts what was asked of no model — an unknown name, a wrong
	// method on a route that names none; only its Errors move, and nothing
	// lands in its window.
	Unresolved ModelStats  `json:"unresolved"`
	Audit      AuditStatus `json:"audit"`
	Trace      TraceStats  `json:"trace"`
}

// Counters are what a stats row counts — requests by kind, HTTP error
// responses, the current engine's propagations — and, summed over the rows,
// the server-wide totals.
type Counters struct {
	Queries      int64 `json:"queries"`
	Batches      int64 `json:"batches"`
	MPEs         int64 `json:"mpes"`
	Errors       int64 `json:"errors"`
	Propagations int64 `json:"propagations"`
}

// ModelStats is one model's stats row: a row of Stats.Models and the body of
// GET /v1/models/{name}/stats. Counters and latencies cover the process
// lifetime, Window the last 60 seconds; Cache, Recorder and the run counters
// are the model's current engine's. The latencies are zeros, never NaN, before
// anything was observed.
type ModelStats struct {
	ModelInfo
	Counters
	Workers   int    `json:"workers"`
	Scheduler string `json:"scheduler"`
	// InlineRuns and PoolRuns split the propagations by the executor that ran
	// them, the caller's goroutine or the workers.
	InlineRuns int64 `json:"inline_runs"`
	PoolRuns   int64 `json:"pool_runs"`
	// SlicedShare is the share of the model's task-graph table entries its
	// runs had to range over once the tables were sliced on each query's hard
	// evidence; 1 before anything has run.
	SlicedShare float64 `json:"sliced_share"`
	// LoadBalance and SchedOverheadFrac are the most recent run's Fig. 8
	// gauges (max/mean per-worker busy time; scheduling fraction of total
	// worker time).
	LoadBalance       float64             `json:"load_balance"`
	SchedOverheadFrac float64             `json:"sched_overhead_fraction"`
	Observed          int64               `json:"observed"`
	AvgLatencyUsec    float64             `json:"avg_latency_usec"`
	MaxLatencyUsec    float64             `json:"max_latency_usec"`
	P50LatencyUsec    float64             `json:"p50_latency_usec"`
	P95LatencyUsec    float64             `json:"p95_latency_usec"`
	P99LatencyUsec    float64             `json:"p99_latency_usec"`
	Window            WindowStats         `json:"window"`
	Cache             CacheCounters       `json:"cache"`
	Recorder          FlightRecorderStats `json:"recorder"`
}

// WindowStats summarizes the last 60 seconds of one model's traffic.
type WindowStats struct {
	Seconds        int     `json:"seconds"`
	Requests       int64   `json:"requests"`
	Errors         int64   `json:"errors"`
	QPS            float64 `json:"qps"`
	ErrorRate      float64 `json:"error_rate"`
	P50LatencyUsec float64 `json:"p50_latency_usec"`
	P99LatencyUsec float64 `json:"p99_latency_usec"`
	LoadBalance    float64 `json:"load_balance"`
	// QPSSeries is per-second request counts, oldest first; the last entry is
	// the current (incomplete) second.
	QPSSeries []int64 `json:"qps_series"`
	// CacheHitRate is the result-cache hit fraction over the window, and
	// CacheHitRateSeries its per-second trajectory aligned with QPSSeries.
	CacheHitRate       float64   `json:"cache_hit_rate"`
	CacheHitRateSeries []float64 `json:"cache_hit_rate_series"`
}

// CacheCounters is one model's result-cache block in its stats row.
type CacheCounters = evprop.CacheStats

// FlightRecord is one propagation's summary from the server's flight
// recorder.
type FlightRecord = evprop.FlightRecord

// FlightRecorderStats summarizes the recorder itself.
type FlightRecorderStats = evprop.FlightRecorderStats

// FlightRecorderPage is one page of GET /v1/debug/flightrecorder: records
// oldest to newest and the cursor for the next page, which repeats the
// request's since when no record matched.
type FlightRecorderPage struct {
	Model     string              `json:"model"`
	Recorder  FlightRecorderStats `json:"recorder"`
	Records   []FlightRecord      `json:"records"`
	NextSince uint64              `json:"next_since"`
}

// AuditStatus is GET /v1/audit and the audit block of Stats: the durable audit
// pipeline's configuration, counters and chain head. Every field but Enabled
// is zero when the server runs without -audit-dir.
type AuditStatus struct {
	Enabled bool   `json:"enabled"`
	Dir     string `json:"dir,omitempty"`
	AuditCounters
	// Segments and Bytes describe the on-disk segment store.
	Segments int   `json:"segments"`
	Bytes    int64 `json:"bytes"`
}

// AuditCounters are the audit writer's counters: records enqueued, dropped and
// spilled, batches appended, store failures, flush latency and the chain head.
type AuditCounters = audit.WriterStats

// TraceStats is the tracing block of Stats: traced requests, tail-sampling
// keeps, store fill and, with -otlp-endpoint, the OTLP exporter's counters.
type TraceStats struct {
	Enabled    bool    `json:"enabled"`
	SampleRate float64 `json:"sample_rate,omitempty"`
	TracerCounters
	Exporter *ExporterStats `json:"exporter,omitempty"`
}

// TracerCounters are the tracer's lifetime counters.
type TracerCounters = trace.TracerStats

// ExporterStats are the OTLP exporter's counters.
type ExporterStats = trace.ExporterStats

// TraceSpan is one span of a fetched trace.
type TraceSpan struct {
	SpanID       string         `json:"span_id"`
	ParentSpanID string         `json:"parent_span_id,omitempty"`
	Name         string         `json:"name"`
	Start        time.Time      `json:"start"`
	DurationUsec float64        `json:"duration_usec"`
	Status       string         `json:"status,omitempty"`
	Attrs        map[string]any `json:"attrs,omitempty"`
}

// TraceResponse is one kept trace from GET /v1/debug/trace?id=.
type TraceResponse struct {
	TraceID string `json:"trace_id"`
	Sampled bool   `json:"sampled"`
	State   string `json:"tracestate,omitempty"`
	// Reason is the tail-sampling verdict that kept the trace: "error",
	// "slow", "flagged" or "head".
	Reason       string      `json:"reason"`
	DroppedSpans int64       `json:"dropped_spans,omitempty"`
	Spans        []TraceSpan `json:"spans"`
}

// TraceList is GET /v1/debug/trace without an id: the most recently kept
// trace IDs, newest first, and the tracer's counters.
type TraceList struct {
	Recent []string   `json:"recent"`
	Stats  TraceStats `json:"stats"`
}

// Health is GET /v1/healthz: liveness plus build info.
type Health struct {
	Status     string  `json:"status"`
	Version    string  `json:"version"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	UptimeSec  float64 `json:"uptime_sec"`
}
