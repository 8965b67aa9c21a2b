package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"time"

	evclient "evprop/client"
	"evprop/internal/buildinfo"
)

// Live introspection: /v1/stream pushes one JSON snapshot per second over
// Server-Sent Events — the transport evtop consumes. A snapshot is what GET
// /v1/stats answers at that instant (statsNow: every model's row, the totals,
// the audit block), taken by an obs.Sampler off the wait-free surfaces, so a
// streaming dashboard costs the serving path nothing beyond one snapshot
// per second. /v1/healthz and /v1/readyz are the liveness/readiness pair:
// healthz always answers (with build info and uptime), readyz flips false
// the moment shutdown drain begins so load balancers stop routing here.

// streamInterval is the snapshot cadence of /v1/stream.
const streamInterval = time.Second

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
// per second carrying an evclient.Stats, the sample sequence number as the
// SSE event id. The first event is written immediately, then the handler
// follows its sampler subscription until the client goes away or the server
// drains.
//
// The route deliberately bypasses instrument: a long-lived stream is not a
// request, and it names no model — there is nothing to log on connect and no
// window for its minutes-long "latency".
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
	// The first event is read now, not taken from the sampler: a dashboard
	// should not stare at a blank screen, nor evtop -once print a second-old
	// one. Every sample taken so far is older than it, so the loop skips them.
	first, seq := s.statsNow(), int64(-1)
	if latest, ok := s.sampler.Latest(); ok {
		seq = latest.Seq
	}
	if writeSSE(w, max(seq, 0), first) != nil {
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
func writeSSE(w http.ResponseWriter, id int64, snap evclient.Stats) error {
	payload, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\ndata: %s\n\n", id, payload)
	return err
}

// handleHealthz is liveness: it answers 200 whenever the process can serve
// HTTP at all, including during drain (the process is alive while it
// finishes in-flight work — that is readyz's distinction to make).
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeErrorCode(w, r, http.StatusMethodNotAllowed, "method_not_allowed", "GET only")
		return
	}
	s.writeJSON(w, evclient.Health{
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
