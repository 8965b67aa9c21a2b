package main

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"evprop"
	"evprop/internal/obs"
	"evprop/internal/registry"
)

// One set of books. A request is counted once, on the model it resolved to
// (modelStats), and everything engine-side — cache, scheduler report, flight
// recorder — is read from that model's engine. One row type (modelRow) carries
// both halves, and /v1/stats, /v1/models/{name}/stats, /v1/stream and
// /v1/metrics are all renderings of the same rows, so no two of them can
// disagree. Server-wide totals are sums over the rows, taken when they are
// read. What no model owns is beside the rows: the workers and the count of
// runs in flight are the process's (evprop.ProcessScheduler), one scheduler
// block per view.

// noModelName names the catch-all row: requests that resolved no model — an
// unknown or unready model, a wrong method on a route that names none, a path
// that matches no route, an observer's scrape. Its parentheses keep it outside the registry's model-name
// alphabet, so no upload can collide with it.
const noModelName = "(none)"

// modelStats is one model's serving counters: request counts by kind, error
// count, latency histogram, and a 60 s traffic window. Stats outlive version
// swaps (they belong to the model, not the version) and are dropped when the
// model is deleted.
type modelStats struct {
	name    string
	queries atomic.Int64
	batches atomic.Int64
	mpes    atomic.Int64
	// errors counts HTTP error responses, incremented exactly once per
	// request inside writeErrorCode (the single choke point). Per-query
	// failures inside a /v1/batch body are reported in place and are not
	// HTTP errors.
	errors  atomic.Int64
	latency obs.Histogram
	window  *obs.Window
}

// modelStatsFor returns the named model's stats, creating them on first
// use.
func (s *server) modelStatsFor(name string) *modelStats {
	if v, ok := s.perModel.Load(name); ok {
		return v.(*modelStats)
	}
	v, _ := s.perModel.LoadOrStore(name, &modelStats{name: name, window: obs.NewWindow()})
	return v.(*modelStats)
}

// modelRow is one model's stats: a row of /v1/stats and of every /v1/stream
// event, the whole body of /v1/models/{name}/stats, and one label value of
// every per-model family in /v1/metrics. Every latency field derives from the
// histogram, and the observed == 0 case yields plain zeros — never a 0/0 NaN,
// which would be invalid JSON.
type modelRow struct {
	registry.Info
	counters
	Workers   int    `json:"workers"`
	Scheduler string `json:"scheduler"`
	// InlineRuns and PoolRuns split the propagations by the executor that ran
	// them, the caller's goroutine or the workers.
	InlineRuns int64 `json:"inline_runs"`
	PoolRuns   int64 `json:"pool_runs"`
	// SlicedShare is the share of the model's task-graph entries those runs
	// ranged over after slicing their tables on each query's hard evidence
	// (1 before anything has run).
	SlicedShare float64 `json:"sliced_share"`
	// LoadBalance and SchedOverheadFrac are the most recent propagation's
	// Fig. 8 gauges (max/mean per-worker busy time; scheduling fraction of
	// total worker time).
	LoadBalance       float64 `json:"load_balance"`
	SchedOverheadFrac float64 `json:"sched_overhead_fraction"`
	Observed          int64   `json:"observed"`
	AvgLatencyUsec    float64 `json:"avg_latency_usec"`
	MaxLatencyUsec    float64 `json:"max_latency_usec"`
	P50LatencyUsec    float64 `json:"p50_latency_usec"`
	P95LatencyUsec    float64 `json:"p95_latency_usec"`
	P99LatencyUsec    float64 `json:"p99_latency_usec"`
	// Window covers only the last 60 seconds of the model's traffic, where
	// the fields above aggregate over the whole process lifetime.
	Window   windowStats                `json:"window"`
	Cache    evprop.CacheStats          `json:"cache"`
	Recorder evprop.FlightRecorderStats `json:"recorder"`

	// What /v1/metrics renders beyond the JSON fields: the histogram's buckets
	// and the scheduler report's lifetime totals.
	ms    *modelStats
	sched evprop.SchedulerReport
}

// windowStats is the JSON shape of the 60-second sliding window.
type windowStats struct {
	Seconds        int     `json:"seconds"`
	Requests       int64   `json:"requests"`
	Errors         int64   `json:"errors"`
	QPS            float64 `json:"qps"`
	ErrorRate      float64 `json:"error_rate"`
	P50LatencyUsec float64 `json:"p50_latency_usec"`
	P99LatencyUsec float64 `json:"p99_latency_usec"`
	LoadBalance    float64 `json:"load_balance"`
	// QPSSeries is per-second request counts, oldest first; the last entry
	// is the current (incomplete) second.
	QPSSeries []int64 `json:"qps_series"`
	// CacheHitRate is the result-cache hit fraction over the window, and
	// CacheHitRateSeries its per-second trajectory aligned with QPSSeries
	// (both all-zero when the cache is off or idle).
	CacheHitRate       float64   `json:"cache_hit_rate"`
	CacheHitRateSeries []float64 `json:"cache_hit_rate_series"`
}

func toWindowStats(ws obs.WindowSnapshot) windowStats {
	return windowStats{
		Seconds:            ws.Seconds,
		Requests:           ws.Requests,
		Errors:             ws.Errors,
		QPS:                ws.QPS,
		ErrorRate:          ws.ErrorRate,
		P50LatencyUsec:     float64(ws.P50.Nanoseconds()) / 1e3,
		P99LatencyUsec:     float64(ws.P99.Nanoseconds()) / 1e3,
		LoadBalance:        ws.LoadBalance,
		QPSSeries:          ws.QPSSeries,
		CacheHitRate:       ws.CacheHitRate,
		CacheHitRateSeries: ws.CacheHitRateSeries,
	}
}

// newRow reads one model's counters and its current version's wait-free
// engine surfaces into a row. evprop.Engine methods are nil-safe: a model with
// no published version (v nil), and the catch-all, get the engine half at its
// zero values.
func newRow(ms *modelStats, info registry.Info, v *registry.Version) modelRow {
	var eng *evprop.Engine
	if v != nil {
		eng = v.Engine
	}
	es, sr, h := eng.Stats(), eng.SchedulerReport(), &ms.latency
	row := modelRow{
		Info: info,
		counters: counters{
			Queries:      ms.queries.Load(),
			Batches:      ms.batches.Load(),
			MPEs:         ms.mpes.Load(),
			Errors:       ms.errors.Load(),
			Propagations: es.Propagations,
		},
		Workers:           es.Workers,
		Scheduler:         es.Scheduler,
		InlineRuns:        sr.InlineRuns,
		PoolRuns:          sr.PoolRuns,
		SlicedShare:       sr.SlicedShare,
		LoadBalance:       sr.LastLoadBalance,
		SchedOverheadFrac: sr.LastOverheadFraction,
		Observed:          h.Count(),
		Window:            toWindowStats(ms.window.Snapshot()),
		Cache:             eng.CacheStats(),
		Recorder:          eng.FlightRecorderStats(),
		ms:                ms,
		sched:             sr,
	}
	if row.Observed > 0 {
		row.AvgLatencyUsec = float64(h.Mean()) / 1e3
		row.MaxLatencyUsec = float64(h.Max()) / 1e3
		row.P50LatencyUsec = float64(h.Quantile(0.50)) / 1e3
		row.P95LatencyUsec = float64(h.Quantile(0.95)) / 1e3
		row.P99LatencyUsec = float64(h.Quantile(0.99)) / 1e3
	}
	return row
}

// counters are what a row counts — requests by kind, HTTP error responses,
// and the current version's completed scheduler invocations — and, summed over
// the rows, the catch-all included, the server-wide totals.
type counters struct {
	Queries      int64 `json:"queries"`
	Batches      int64 `json:"batches"`
	MPEs         int64 `json:"mpes"`
	Errors       int64 `json:"errors"`
	Propagations int64 `json:"propagations"`
}

func (c *counters) add(o counters) {
	c.Queries += o.Queries
	c.Batches += o.Batches
	c.MPEs += o.MPEs
	c.Errors += o.Errors
	c.Propagations += o.Propagations
}

// statsResponse is the GET /v1/stats body and the payload of every
// /v1/stream event.
type statsResponse struct {
	// Time is when the rows were read; UptimeSec is process uptime.
	Time      time.Time `json:"time"`
	UptimeSec float64   `json:"uptime_sec"`
	Totals    counters  `json:"totals"`
	// Scheduler is the process's worker pool, which every model's dispatched
	// runs share: its size P, the runs in flight k over all models (inline
	// ones too), the GL depth and one entry per worker.
	Scheduler evprop.SchedulerGauges `json:"scheduler"`
	// Models has one row per registered model, sorted by name.
	Models []modelRow `json:"models"`
	// Unresolved is the catch-all row: what was asked of no model. Only its
	// errors ever move, and nothing lands in its window.
	Unresolved modelRow `json:"unresolved"`
	// Audit reports the durable query-audit pipeline (-audit-dir): spill,
	// drop and flush counters plus on-disk segment totals.
	Audit auditStats `json:"audit"`
	// Trace reports the distributed-tracing pipeline: traced requests,
	// tail-sampling keeps, store fill, and OTLP export counters.
	Trace traceStatsSummary `json:"trace"`
}

// statsNow reads every row off the wait-free surfaces and sums the totals.
func (s *server) statsNow() statsResponse {
	infos := s.reg.List()
	versions := s.reg.CurrentVersions()
	resp := statsResponse{
		Time:       time.Now(),
		UptimeSec:  time.Since(s.started).Seconds(),
		Scheduler:  evprop.ProcessScheduler(s.workers),
		Models:     make([]modelRow, 0, len(infos)),
		Unresolved: newRow(s.noModel, registry.Info{Name: noModelName}, nil),
		Audit:      s.auditStats(),
		Trace:      s.traceStats(),
	}
	for _, info := range infos {
		resp.Models = append(resp.Models, newRow(s.modelStatsFor(info.Name), info, versions[info.Name]))
	}
	resp.eachRow(func(r *modelRow) { resp.Totals.add(r.counters) })
	return resp
}

// eachRow visits every model's row, then the catch-all.
func (st *statsResponse) eachRow(fn func(*modelRow)) {
	for i := range st.Models {
		fn(&st.Models[i])
	}
	fn(&st.Unresolved)
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeErrorCode(w, r, http.StatusMethodNotAllowed, "method_not_allowed", "GET only")
		return
	}
	s.writeJSON(w, s.statsNow())
}

// handleModelStats serves GET /v1/models/{name}/stats: that model's row.
func (s *server) handleModelStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeErrorCode(w, r, http.StatusMethodNotAllowed, "method_not_allowed", "GET only")
		return
	}
	name := r.PathValue("name")
	info, ok := s.modelInfo(name)
	if !ok {
		s.writeError(w, r, fmt.Errorf("%w: %q", registry.ErrNotFound, name))
		return
	}
	v, _ := s.reg.Current(name) // nil while the model has no published version
	s.writeJSON(w, newRow(s.modelStatsFor(name), info, v))
}

// exposition writes the per-model families of /v1/metrics: one # HELP/# TYPE
// header per quantity, one series per row labelled model=.
type exposition struct {
	w    io.Writer
	rows []*modelRow
}

func (e exposition) family(name, help, typ string, value func(*modelRow) float64) {
	obs.WriteHeader(e.w, name, help, typ)
	for _, r := range e.rows {
		obs.WriteSample(e.w, name, map[string]string{"model": r.Name}, value(r))
	}
}

// sample is one series of a family that has a second label.
type sample struct {
	label string
	value float64
}

// familyBy is family with a second label: one series per row and sample.
func (e exposition) familyBy(name, help, typ, label string, series func(*modelRow) []sample) {
	obs.WriteHeader(e.w, name, help, typ)
	for _, r := range e.rows {
		for _, sm := range series(r) {
			obs.WriteSample(e.w, name, map[string]string{"model": r.Name, label: sm.label}, sm.value)
		}
	}
}

// handleMetrics serves the Prometheus text exposition. Everything a model
// owns — request counters, latency histogram, window, cache, scheduler report,
// flight recorder — is one family per quantity with one series per model; a
// server-wide figure is a sum over the label. The request and error counters
// carry the catch-all row too; the engine-side families only the models that
// have a published version. The worker pool, the audit and the trace pipelines
// are the process's own and stay unlabelled.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeErrorCode(w, r, http.StatusMethodNotAllowed, "method_not_allowed", "GET only")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	st := s.statsNow()
	all, ready := exposition{w: w}, exposition{w: w}
	st.eachRow(func(r *modelRow) {
		all.rows = append(all.rows, r)
		if r.State == registry.StateReady {
			ready.rows = append(ready.rows, r)
		}
	})

	obs.WriteHeader(w, "evprop_model_info", "Registered models: state and current version as labels, value 1.", "gauge")
	for i := range st.Models {
		info := &st.Models[i].Info
		obs.WriteSample(w, "evprop_model_info", map[string]string{
			"model": info.Name, "state": string(info.State), "version": strconv.FormatInt(info.Version, 10),
		}, 1)
	}
	all.familyBy("evprop_http_requests_total", "HTTP requests by model and kind.", "counter", "kind",
		func(r *modelRow) []sample {
			return []sample{{"query", float64(r.Queries)}, {"batch", float64(r.Batches)}, {"mpe", float64(r.MPEs)}}
		})
	all.family("evprop_http_errors_total", "HTTP error responses by model; (none) counts the requests that resolved no model.", "counter",
		func(r *modelRow) float64 { return float64(r.Errors) })

	ready.family("evprop_propagations_total", "Completed scheduler invocations (current version).", "counter",
		func(r *modelRow) float64 { return float64(r.Propagations) })
	ready.family("evprop_workers", "Configured propagation workers.", "gauge",
		func(r *modelRow) float64 { return float64(r.Workers) })
	// One histogram per model — cumulative le buckets, _sum and _count, a model
	// label on every series; buckets with an observation whose trace was kept
	// carry its exemplar.
	const duration = "evprop_request_duration_seconds"
	obs.WriteHeader(w, duration, "End-to-end propagation latency of successful requests.", "histogram")
	for _, r := range ready.rows {
		h := &r.ms.latency
		bounds, cumulative := h.Buckets()
		for i, b := range bounds {
			obs.WriteSampleExemplar(w, duration+"_bucket",
				map[string]string{"model": r.Name, "le": strconv.FormatFloat(b, 'g', -1, 64)},
				float64(cumulative[i]), h.BucketExemplar(i))
		}
		obs.WriteSample(w, duration+"_sum", map[string]string{"model": r.Name}, h.Sum().Seconds())
		obs.WriteSample(w, duration+"_count", map[string]string{"model": r.Name}, float64(h.Count()))
	}

	ready.family("evprop_sched_runs_total", "Completed scheduler runs.", "counter",
		func(r *modelRow) float64 { return float64(r.sched.Runs) })
	ready.family("evprop_sched_inline_runs_total", "Runs executed on the caller's goroutine (mean task cheaper than one dispatch).", "counter",
		func(r *modelRow) float64 { return float64(r.InlineRuns) })
	ready.family("evprop_sched_pool_runs_total", "Runs dispatched to the scheduler's workers.", "counter",
		func(r *modelRow) float64 { return float64(r.PoolRuns) })
	ready.family("evprop_sched_busy_seconds_total", "Worker time inside node-level primitives.", "counter",
		func(r *modelRow) float64 { return r.sched.Busy.Seconds() })
	ready.family("evprop_sched_overhead_seconds_total", "Worker time in the Allocate and Partition scheduler modules.", "counter",
		func(r *modelRow) float64 { return r.sched.Overhead.Seconds() })
	ready.familyBy("evprop_sched_kind_busy_seconds_total", "Computation time by primitive kind.", "counter", "kind",
		func(r *modelRow) []sample {
			out := make([]sample, len(obs.KindNames))
			for k, kind := range obs.KindNames {
				out[k] = sample{kind, r.sched.BusyByKind[kind].Seconds()}
			}
			return out
		})
	ready.family("evprop_sched_tasks_total", "Executed items (tasks, pieces, combiners).", "counter",
		func(r *modelRow) float64 { return float64(r.sched.Tasks) })
	ready.family("evprop_sched_pieces_total", "Partitioned pieces executed.", "counter",
		func(r *modelRow) float64 { return float64(r.sched.Pieces) })
	ready.family("evprop_sched_partitions_total", "Tasks split by the Partition module.", "counter",
		func(r *modelRow) float64 { return float64(r.sched.Partitioned) })
	ready.family("evprop_sched_load_balance", "Last run's max/mean per-worker busy time (1.0 = perfectly balanced).", "gauge",
		func(r *modelRow) float64 { return r.LoadBalance })
	ready.family("evprop_sched_overhead_fraction", "Last run's scheduler-overhead fraction of total worker time.", "gauge",
		func(r *modelRow) float64 { return r.SchedOverheadFrac })
	ready.family("evprop_sched_overhead_fraction_lifetime", "Lifetime scheduler-overhead fraction across all runs.", "gauge",
		func(r *modelRow) float64 { return r.sched.OverheadFraction })
	obs.WriteHeader(w, "evprop_sched_global_depth", "Tasks submitted to the process's workers but not yet completed.", "gauge")
	obs.WriteSample(w, "evprop_sched_global_depth", nil, float64(st.Scheduler.GlobalDepth))
	obs.WriteHeader(w, "evprop_sched_active_runs", "Propagations in flight in the process, on the workers or inline.", "gauge")
	obs.WriteSample(w, "evprop_sched_active_runs", nil, float64(st.Scheduler.ActiveRuns))

	ready.family("evprop_window_requests", "Requests in the last 60 seconds.", "gauge",
		func(r *modelRow) float64 { return float64(r.Window.Requests) })
	ready.family("evprop_window_qps", "Mean requests/second over the last 60 seconds.", "gauge",
		func(r *modelRow) float64 { return r.Window.QPS })
	ready.family("evprop_window_error_rate", "Error fraction over the last 60 seconds.", "gauge",
		func(r *modelRow) float64 { return r.Window.ErrorRate })
	ready.familyBy("evprop_window_latency_seconds", "Latency quantiles over the last 60 seconds.", "gauge", "quantile",
		func(r *modelRow) []sample {
			return []sample{{"0.5", r.Window.P50LatencyUsec / 1e6}, {"0.99", r.Window.P99LatencyUsec / 1e6}}
		})
	ready.family("evprop_window_load_balance", "Mean load-balance factor over the last 60 seconds.", "gauge",
		func(r *modelRow) float64 { return r.Window.LoadBalance })
	ready.family("evprop_window_cache_hit_rate", "Result-cache hit fraction over the last 60 seconds.", "gauge",
		func(r *modelRow) float64 { return r.Window.CacheHitRate })

	ready.family("evprop_cache_hits_total", "Result-cache hits (current version).", "counter",
		func(r *modelRow) float64 { return float64(r.Cache.Hits) })
	ready.family("evprop_cache_misses_total", "Result-cache misses.", "counter",
		func(r *modelRow) float64 { return float64(r.Cache.Misses) })
	ready.family("evprop_cache_collapsed_total", "Queries collapsed onto another caller's in-flight propagation.", "counter",
		func(r *modelRow) float64 { return float64(r.Cache.Collapsed) })
	ready.family("evprop_cache_first_sight_total", "Result-cache misses on the first sight of their signature: run privately, nothing retained.", "counter",
		func(r *modelRow) float64 { return float64(r.Cache.FirstSight) })
	ready.family("evprop_cache_entries", "Result-cache entries currently held.", "gauge",
		func(r *modelRow) float64 { return float64(r.Cache.Entries) })
	ready.family("evprop_cache_capacity", "Result-cache effective capacity in entries.", "gauge",
		func(r *modelRow) float64 { return float64(r.Cache.Capacity) })
	ready.family("evprop_cache_bytes", "Table bytes pinned by the result-cache entries.", "gauge",
		func(r *modelRow) float64 { return float64(r.Cache.Bytes) })

	ready.family("evprop_flightrecorder_recorded_total", "Propagations seen by the flight recorder.", "counter",
		func(r *modelRow) float64 { return float64(r.Recorder.Recorded) })
	ready.family("evprop_flightrecorder_slow_total", "Propagations the flight recorder marked slow.", "counter",
		func(r *modelRow) float64 { return float64(r.Recorder.SlowCaptured) })
	ready.family("evprop_flightrecorder_slow_threshold_seconds", "Current slow-query threshold (0 while calibrating).", "gauge",
		func(r *modelRow) float64 { return r.Recorder.SlowThresholdUsec / 1e6 })

	// Per-worker gauges of the process's pool: no series until a run has been
	// dispatched to the workers, which is when they start.
	worker := func(name, help, typ string, value func(*evprop.WorkerGauges) float64) {
		obs.WriteHeader(w, name, help, typ)
		for i := range st.Scheduler.Workers {
			obs.WriteSample(w, name, map[string]string{"worker": strconv.Itoa(i)}, value(&st.Scheduler.Workers[i]))
		}
	}
	worker("evprop_worker_queue_depth", "Items queued on the worker's local ready list.", "gauge",
		func(g *evprop.WorkerGauges) float64 { return float64(g.QueueDepth) })
	worker("evprop_worker_queue_weight", "Weight counter of the worker's local ready list.", "gauge",
		func(g *evprop.WorkerGauges) float64 { return float64(g.QueueWeight) })
	worker("evprop_worker_busy_seconds_total", "Worker time inside node-level primitives.", "counter",
		func(g *evprop.WorkerGauges) float64 { return float64(g.BusyNs) / 1e9 })
	worker("evprop_worker_items_total", "Items executed by the worker (tasks, pieces, combiners).", "counter",
		func(g *evprop.WorkerGauges) float64 { return float64(g.Items) })
	worker("evprop_worker_completed_total", "Original graph tasks retired by the worker.", "counter",
		func(g *evprop.WorkerGauges) float64 { return float64(g.Completed) })
	worker("evprop_worker_partitions_total", "Tasks the worker split into δ-pieces.", "counter",
		func(g *evprop.WorkerGauges) float64 { return float64(g.Partitions) })
	obs.WriteHeader(w, "evprop_worker_state", "Worker state (one series per worker, state as label, value 1).", "gauge")
	for i, g := range st.Scheduler.Workers {
		obs.WriteSample(w, "evprop_worker_state", map[string]string{"worker": strconv.Itoa(i), "state": g.State}, 1)
	}

	writeAuditMetrics(w, st.Audit)
	s.writeTraceMetrics(w)
}
