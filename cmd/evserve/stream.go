package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"evprop"
	"evprop/internal/buildinfo"
	"evprop/internal/obs"
)

// Live introspection: /v1/stream pushes one JSON snapshot per second over
// Server-Sent Events — the transport evtop consumes. Snapshots are taken by
// an obs.Sampler off the same wait-free surfaces the pull endpoints read
// (the 60 s window, the scheduler gauge surface, the cache counters), so a
// streaming dashboard costs the serving path nothing beyond one snapshot
// per second. /v1/healthz and /v1/readyz are the liveness/readiness pair:
// healthz always answers (with build info and uptime), readyz flips false
// the moment shutdown drain begins so load balancers stop routing here.

// streamInterval is the snapshot cadence of /v1/stream.
const streamInterval = time.Second

// streamSnapshot is one /v1/stream event: the last-minute traffic summary
// plus the scheduler's live gauge surface.
type streamSnapshot struct {
	// Time is when the snapshot was taken; UptimeSec is process uptime.
	Time      time.Time `json:"time"`
	UptimeSec float64   `json:"uptime_sec"`
	// QPS, ErrorRate, latency quantiles and CacheHitRate summarize the
	// sliding 60 s window (same definitions as /v1/stats).
	Requests     int64   `json:"window_requests"`
	QPS          float64 `json:"qps"`
	ErrorRate    float64 `json:"error_rate"`
	P50Usec      float64 `json:"p50_usec"`
	P99Usec      float64 `json:"p99_usec"`
	LoadBalance  float64 `json:"load_balance"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	// Propagations and Errors are lifetime totals (monotone counters, so
	// consumers can take rates between events).
	Propagations int64 `json:"propagations"`
	Errors       int64 `json:"errors"`
	// Scheduler names the engine's execution strategy; Workers its size.
	Scheduler string `json:"scheduler"`
	Workers   int    `json:"workers"`
	// Models is how many models the registry currently serves.
	Models int `json:"models"`
	// Gauges is the default model's live scheduler surface: GL depth,
	// active runs, and per-worker state/queue/partition gauges.
	Gauges evprop.SchedulerGauges `json:"gauges"`
}

// snapshotNow assembles one stream snapshot from the wait-free surfaces.
// Traffic numbers aggregate over every model; the scheduler gauge surface
// is the default model's (the one evtop renders).
func (s *server) snapshotNow() streamSnapshot {
	ws := s.window.Snapshot()
	eng := s.defaultEngine()
	es := eng.Stats()
	return streamSnapshot{
		Time:         time.Now(),
		UptimeSec:    time.Since(s.started).Seconds(),
		Requests:     ws.Requests,
		QPS:          ws.QPS,
		ErrorRate:    ws.ErrorRate,
		P50Usec:      float64(ws.P50.Nanoseconds()) / 1e3,
		P99Usec:      float64(ws.P99.Nanoseconds()) / 1e3,
		LoadBalance:  ws.LoadBalance,
		CacheHitRate: ws.CacheHitRate,
		Propagations: s.propagationsTotal(),
		Errors:       s.stats.errors.Load(),
		Scheduler:    es.Scheduler,
		Workers:      es.Workers,
		Models:       len(s.reg.Names()),
		Gauges:       eng.SchedulerGauges(),
	}
}

// startSampler begins the 1 s snapshot cadence feeding /v1/stream.
func (s *server) startSampler() {
	s.sampler.Start()
}

// beginDrain flips the server into shutdown mode: readyz goes false and the
// sampler stops, which closes every /v1/stream subscription so the SSE
// handlers return instead of pinning http.Server.Shutdown until its grace
// deadline. Idempotent; wired to the HTTP server via RegisterOnShutdown.
func (s *server) beginDrain() {
	s.drainOnce.Do(func() {
		s.ready.Store(false)
		close(s.drain)
		s.sampler.Stop()
	})
}

// handleStream serves GET /v1/stream: text/event-stream, one `data:` event
// per second carrying a streamSnapshot, the sample sequence number as the
// SSE event id. The first event is written immediately (a dashboard should
// not stare at a blank screen for a second), then the handler follows its
// sampler subscription until the client goes away or the server drains.
//
// The route deliberately bypasses instrument: a long-lived stream is not a
// request — logging it on connect and counting minutes-long "latency" into
// the QPS window would pollute both.
func (s *server) handleStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeErrorCode(w, r, http.StatusMethodNotAllowed, "method_not_allowed", "GET only")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		s.writeErrorCode(w, r, http.StatusInternalServerError, "internal", "streaming unsupported")
		return
	}
	// Subscribe before the first event so no sample between it and the loop
	// is missed; a slow client skips samples (seq gaps) instead of exerting
	// backpressure on the sampler.
	ch, cancel := s.sampler.Subscribe(4)
	defer cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no") // defeat proxy buffering
	w.WriteHeader(http.StatusOK)
	seq := int64(-1)
	if latest, ok := s.sampler.Latest(); ok {
		seq = latest.Seq
		if writeSSE(w, latest.Seq, latest.Data) != nil {
			return
		}
	} else if writeSSE(w, 0, s.snapshotNow()) != nil {
		return
	}
	fl.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.drain:
			return
		case sm, ok := <-ch:
			if !ok {
				return // sampler stopped: server is draining
			}
			if sm.Seq <= seq {
				continue // the initial event already covered this sample
			}
			seq = sm.Seq
			if writeSSE(w, sm.Seq, sm.Data) != nil {
				return
			}
			fl.Flush()
		}
	}
}

// writeSSE emits one Server-Sent-Events frame.
func writeSSE(w http.ResponseWriter, id int64, snap streamSnapshot) error {
	payload, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\ndata: %s\n\n", id, payload)
	return err
}

// healthzResponse is the GET /v1/healthz body: liveness plus build info.
type healthzResponse struct {
	Status     string  `json:"status"`
	Version    string  `json:"version"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	UptimeSec  float64 `json:"uptime_sec"`
}

// handleHealthz is liveness: it answers 200 whenever the process can serve
// HTTP at all, including during drain (the process is alive while it
// finishes in-flight work — that is readyz's distinction to make).
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeErrorCode(w, r, http.StatusMethodNotAllowed, "method_not_allowed", "GET only")
		return
	}
	s.writeJSON(w, healthzResponse{
		Status:     "ok",
		Version:    buildinfo.Version,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		UptimeSec:  time.Since(s.started).Seconds(),
	})
}

// handleReadyz is readiness: 200 once the engine is compiled and the server
// is accepting queries, 503 before that and again as soon as shutdown drain
// begins, so load balancers pull the instance before its listener closes.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeErrorCode(w, r, http.StatusMethodNotAllowed, "method_not_allowed", "GET only")
		return
	}
	if !s.ready.Load() {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(map[string]bool{"ready": false})
		return
	}
	s.writeJSON(w, map[string]bool{"ready": true})
}

// writeGaugeMetrics renders the live gauge surface as Prometheus series —
// the /v1/metrics half of the introspection layer.
func (s *server) writeGaugeMetrics(w http.ResponseWriter) {
	gg := s.defaultEngine().SchedulerGauges()
	obs.WriteHeader(w, "evprop_sched_global_depth", "Tasks submitted to the scheduler but not yet completed.", "gauge")
	obs.WriteSample(w, "evprop_sched_global_depth", nil, float64(gg.GlobalDepth))
	obs.WriteHeader(w, "evprop_sched_active_runs", "Propagations currently in flight.", "gauge")
	obs.WriteSample(w, "evprop_sched_active_runs", nil, float64(gg.ActiveRuns))
	if len(gg.Workers) == 0 {
		return
	}
	obs.WriteHeader(w, "evprop_worker_queue_depth", "Items queued on the worker's local ready list.", "gauge")
	for i, wg := range gg.Workers {
		obs.WriteSample(w, "evprop_worker_queue_depth", workerLabel(i), float64(wg.QueueDepth))
	}
	obs.WriteHeader(w, "evprop_worker_queue_weight", "Weight counter of the worker's local ready list.", "gauge")
	for i, wg := range gg.Workers {
		obs.WriteSample(w, "evprop_worker_queue_weight", workerLabel(i), float64(wg.QueueWeight))
	}
	obs.WriteHeader(w, "evprop_worker_busy_seconds_total", "Worker time inside node-level primitives.", "counter")
	for i, wg := range gg.Workers {
		obs.WriteSample(w, "evprop_worker_busy_seconds_total", workerLabel(i), float64(wg.BusyNs)/1e9)
	}
	obs.WriteHeader(w, "evprop_worker_items_total", "Items executed by the worker (tasks, pieces, combiners).", "counter")
	for i, wg := range gg.Workers {
		obs.WriteSample(w, "evprop_worker_items_total", workerLabel(i), float64(wg.Items))
	}
	obs.WriteHeader(w, "evprop_worker_completed_total", "Original graph tasks retired by the worker.", "counter")
	for i, wg := range gg.Workers {
		obs.WriteSample(w, "evprop_worker_completed_total", workerLabel(i), float64(wg.Completed))
	}
	obs.WriteHeader(w, "evprop_worker_partitions_total", "Tasks the worker split into δ-pieces.", "counter")
	for i, wg := range gg.Workers {
		obs.WriteSample(w, "evprop_worker_partitions_total", workerLabel(i), float64(wg.Partitions))
	}
	obs.WriteHeader(w, "evprop_worker_state", "Worker state (one series per worker, state as label, value 1).", "gauge")
	for i, wg := range gg.Workers {
		obs.WriteSample(w, "evprop_worker_state", map[string]string{
			"worker": fmt.Sprintf("%d", i), "state": wg.State,
		}, 1)
	}
}

func workerLabel(i int) map[string]string {
	return map[string]string{"worker": fmt.Sprintf("%d", i)}
}
