package main

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"evprop"
	evclient "evprop/client"
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

// modelRow is one model's stats: its wire row (a row of /v1/stats and of every
// /v1/stream event, the whole body of /v1/models/{name}/stats) and what
// /v1/metrics renders beyond it, the histogram's buckets and the scheduler
// report's lifetime totals; every per-model family of /v1/metrics is one
// series per row.
type modelRow struct {
	evclient.ModelStats
	ms    *modelStats
	sched evprop.SchedulerReport
}

func toWindowStats(ws obs.WindowSnapshot) evclient.WindowStats {
	return evclient.WindowStats{
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
// zero values. Every latency derives from the histogram, and the observed == 0
// case yields plain zeros — never a 0/0 NaN, which would be invalid JSON.
func newRow(ms *modelStats, info registry.Info, v *registry.Version) modelRow {
	var eng *evprop.Engine
	if v != nil {
		eng = v.Engine
	}
	es, sr, h := eng.Stats(), eng.SchedulerReport(), &ms.latency
	row := modelRow{ModelStats: evclient.ModelStats{
		ModelInfo: info,
		Counters: evclient.Counters{
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
		SlicedShare:       sr.SlicedShare(),
		LoadBalance:       sr.LastLoadBalance,
		SchedOverheadFrac: sr.LastOverheadFraction,
		Observed:          h.Count(),
		Window:            toWindowStats(ms.window.Snapshot()),
		Cache:             eng.CacheStats(),
		Recorder:          eng.FlightRecorderStats(),
	}, ms: ms, sched: sr}
	if row.Observed > 0 {
		row.AvgLatencyUsec = float64(h.Mean()) / 1e3
		row.MaxLatencyUsec = float64(h.Max()) / 1e3
		row.P50LatencyUsec = float64(h.Quantile(0.50)) / 1e3
		row.P95LatencyUsec = float64(h.Quantile(0.95)) / 1e3
		row.P99LatencyUsec = float64(h.Quantile(0.99)) / 1e3
	}
	return row
}

// rows reads every registered model's row, sorted by name, and then the
// catch-all's.
func (s *server) rows() []modelRow {
	infos := s.reg.List()
	versions := s.reg.CurrentVersions()
	rows := make([]modelRow, 0, len(infos)+1)
	for _, info := range infos {
		rows = append(rows, newRow(s.modelStatsFor(info.Name), info, versions[info.Name]))
	}
	return append(rows, newRow(s.noModel, registry.Info{Name: noModelName}, nil))
}

// statsNow is the GET /v1/stats body and the payload of every /v1/stream
// event: every row, their totals summed at that instant, the process's worker
// pool, and the audit and trace pipelines.
func (s *server) statsNow() evclient.Stats {
	rows := s.rows()
	n := len(rows) - 1
	st := evclient.Stats{
		Time:       time.Now(),
		UptimeSec:  time.Since(s.started).Seconds(),
		Scheduler:  evprop.ProcessScheduler(s.workers),
		Models:     make([]evclient.ModelStats, n),
		Unresolved: rows[n].ModelStats,
		Audit:      s.auditStats(),
		Trace:      s.traceStats(),
	}
	for i, r := range rows {
		if i < n {
			st.Models[i] = r.ModelStats
		}
		t := &st.Totals
		t.Queries += r.Queries
		t.Batches += r.Batches
		t.MPEs += r.MPEs
		t.Errors += r.Errors
		t.Propagations += r.Propagations
	}
	return st
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
	s.writeJSON(w, newRow(s.modelStatsFor(name), info, v).ModelStats)
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
	rows := s.rows()
	all, ready := exposition{w: w}, exposition{w: w}
	for i := range rows {
		all.rows = append(all.rows, &rows[i])
		if rows[i].State == registry.StateReady {
			ready.rows = append(ready.rows, &rows[i])
		}
	}
	sched := evprop.ProcessScheduler(s.workers)

	obs.WriteHeader(w, "evprop_model_info", "Registered models: state and current version as labels, value 1.", "gauge")
	for i := range rows[:len(rows)-1] {
		info := &rows[i].ModelInfo
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
				out[k] = sample{kind, r.sched.KindBusy[k].Seconds()}
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
		func(r *modelRow) float64 { return r.sched.OverheadFraction() })
	obs.WriteHeader(w, "evprop_sched_global_depth", "Tasks submitted to the process's workers but not yet completed.", "gauge")
	obs.WriteSample(w, "evprop_sched_global_depth", nil, float64(sched.GlobalDepth))
	obs.WriteHeader(w, "evprop_sched_active_runs", "Propagations in flight in the process, on the workers or inline.", "gauge")
	obs.WriteSample(w, "evprop_sched_active_runs", nil, float64(sched.ActiveRuns))

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
		for i := range sched.Workers {
			obs.WriteSample(w, name, map[string]string{"worker": strconv.Itoa(i)}, value(&sched.Workers[i]))
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
	for i, g := range sched.Workers {
		obs.WriteSample(w, "evprop_worker_state", map[string]string{"worker": strconv.Itoa(i), "state": g.StateName}, 1)
	}

	writeAuditMetrics(w, s.auditStats())
	s.writeTraceMetrics(w)
}
