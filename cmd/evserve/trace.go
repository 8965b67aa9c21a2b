package main

import (
	"encoding/hex"
	"net/http"

	evclient "evprop/client"
	"evprop/internal/obs"
	otrace "evprop/internal/obs/trace"
)

// Distributed-tracing surface of the server: every instrumented request
// runs under a span arena (see middleware.go), tail sampling keeps the
// interesting traces in a bounded in-memory store, and this file serves
// them back — GET /v1/debug/trace?id=<32-hex trace id> returns one span
// tree, no id returns the recent keep list — plus the tracer's counters
// for /v1/stats and /v1/metrics.

// traceStats is the tracer block of /v1/stats and of the trace list.
func (s *server) traceStats() evclient.TraceStats {
	if s.tracer == nil {
		return evclient.TraceStats{}
	}
	out := evclient.TraceStats{Enabled: true, SampleRate: s.tracer.SampleRate, TracerCounters: s.tracer.Stats()}
	if s.tracer.Exporter != nil {
		es := s.tracer.Exporter.Stats()
		out.Exporter = &es
	}
	return out
}

func attrsMap(attrs []otrace.Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		switch a.Kind {
		case otrace.AttrString:
			m[a.Key] = a.Str
		case otrace.AttrInt:
			m[a.Key] = a.Int
		case otrace.AttrFloat:
			m[a.Key] = a.F64
		case otrace.AttrBool:
			m[a.Key] = a.Bool
		}
	}
	return m
}

func toTraceResponse(td *otrace.TraceData) evclient.TraceResponse {
	resp := evclient.TraceResponse{
		TraceID:      td.TraceID.String(),
		Sampled:      td.Flags&otrace.FlagSampled != 0,
		State:        td.State,
		Reason:       td.Reason,
		DroppedSpans: td.Dropped,
		Spans:        make([]evclient.TraceSpan, 0, len(td.Spans)),
	}
	for _, sd := range td.Spans {
		sp := evclient.TraceSpan{
			SpanID:       sd.SpanID.String(),
			Name:         sd.Name,
			Start:        sd.Start,
			DurationUsec: float64(sd.Duration.Nanoseconds()) / 1e3,
			Status:       sd.Status,
			Attrs:        attrsMap(sd.Attrs),
		}
		if sd.Parent.IsValid() {
			sp.ParentSpanID = sd.Parent.String()
		}
		resp.Spans = append(resp.Spans, sp)
	}
	return resp
}

// handleTrace serves GET /v1/debug/trace. With ?id=<32-hex trace id> it
// returns the kept trace's span tree (404 trace_not_found when tail
// sampling dropped it or it was evicted); without an id it lists the most
// recently kept trace IDs.
func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeErrorCode(w, r, http.StatusMethodNotAllowed, "method_not_allowed", "GET only")
		return
	}
	if s.tracer == nil || s.tracer.Store == nil {
		s.writeErrorCode(w, r, http.StatusNotFound, "tracing_disabled", "tracing is disabled (-trace=false)")
		return
	}
	raw := r.URL.Query().Get("id")
	if raw == "" {
		ids := s.tracer.Store.Recent(32)
		resp := evclient.TraceList{Recent: make([]string, 0, len(ids)), Stats: s.traceStats()}
		for _, id := range ids {
			resp.Recent = append(resp.Recent, id.String())
		}
		s.writeJSON(w, resp)
		return
	}
	var id otrace.TraceID
	if n, err := hex.Decode(id[:], []byte(raw)); err != nil || n != len(id) || len(raw) != 2*len(id) {
		s.writeErrorCode(w, r, http.StatusBadRequest, "bad_request", "id must be a 32-char hex trace ID")
		return
	}
	td := s.tracer.Store.Get(id)
	if td == nil {
		s.writeErrorCode(w, r, http.StatusNotFound, "trace_not_found", "trace not retained (tail sampling drops fast, error-free traces)")
		return
	}
	s.writeJSON(w, toTraceResponse(td))
}

// writeTraceMetrics renders the tracer's Prometheus series.
func (s *server) writeTraceMetrics(w http.ResponseWriter) {
	if s.tracer == nil {
		return
	}
	ts := s.tracer.Stats()
	obs.WriteHeader(w, "evprop_trace_started_total", "Requests traced.", "counter")
	obs.WriteSample(w, "evprop_trace_started_total", nil, float64(ts.Started))
	obs.WriteHeader(w, "evprop_trace_kept_total", "Traces kept by tail sampling.", "counter")
	obs.WriteSample(w, "evprop_trace_kept_total", nil, float64(ts.Kept))
	obs.WriteHeader(w, "evprop_trace_spans_dropped_total", "Spans dropped to arena overflow.", "counter")
	obs.WriteSample(w, "evprop_trace_spans_dropped_total", nil, float64(ts.SpansDropped))
	obs.WriteHeader(w, "evprop_trace_store_traces", "Traces currently retained by the debug store.", "gauge")
	obs.WriteSample(w, "evprop_trace_store_traces", nil, float64(ts.StoreLen))
	if s.tracer.Exporter != nil {
		es := s.tracer.Exporter.Stats()
		obs.WriteHeader(w, "evprop_trace_export_spans_total", "OTLP spans by export outcome.", "counter")
		obs.WriteSample(w, "evprop_trace_export_spans_total", map[string]string{"result": "exported"}, float64(es.Exported))
		obs.WriteSample(w, "evprop_trace_export_spans_total", map[string]string{"result": "dropped"}, float64(es.Dropped))
		obs.WriteHeader(w, "evprop_trace_export_retries_total", "OTLP POSTs retried.", "counter")
		obs.WriteSample(w, "evprop_trace_export_retries_total", nil, float64(es.Retries))
	}
}
