package main

import (
	"maps"
	"net/http"
	"time"

	"evprop/internal/audit"
	"evprop/internal/obs"
)

// Durable query auditing: with -audit-dir set, every completed query and
// MPE request — answered or failed — is recorded with enough detail to
// re-execute it (model, version, evidence, requested variables) and to
// check the answer it got (P(e), posteriors, assignment). Records flow
// through a wait-free ring into Merkle-chained batches on disk (see
// internal/audit); the enqueue below is the only cost the serving hot
// path pays (in finish, server.go), and under backpressure records are
// dropped and counted, never blocked on.
//
// evreplay reads the resulting segments: -mode verify checks the chain,
// -mode load re-drives the recorded traffic, -mode diff re-executes every
// query and compares answers bit for bit.

// auditRecord projects the outcome onto the audit codec's record. The
// evidence map and the target list are cloned — the writer owns the record
// after Enqueue, and request data must not be shared with the asynchronous
// encoder. Posteriors and assignments are fresh per-answer maps that nobody
// mutates, so they are attached as is.
func (o *outcome) auditRecord(id, model string) *audit.Record {
	rec := &audit.Record{
		TimeUnixNano: time.Now().UnixNano(),
		Kind:         o.kind,
		ID:           id,
		Model:        model,
		Version:      o.v.ID,
		Cached:       o.cached,
		ElapsedUsec:  float64(o.elapsed.Nanoseconds()) / 1e3,
		Evidence:     maps.Clone(o.evidence),
		Query:        append([]string(nil), o.targets...),
	}
	if o.err != nil {
		rec.Error = o.err.Error()
		return rec
	}
	rec.PEvidence, rec.Posteriors = o.pe, o.posteriors
	rec.Assignment, rec.Probability = o.assignment, o.probability
	return rec
}

// auditStats is the audit section of /v1/stats and the GET /v1/audit body.
type auditStats struct {
	// Enabled is false when the server runs without -audit-dir; every other
	// field is zero then.
	Enabled bool `json:"enabled"`
	// Dir is the segment directory.
	Dir string `json:"dir,omitempty"`
	audit.WriterStats
	// Segments and Bytes describe the on-disk store.
	Segments int   `json:"segments"`
	Bytes    int64 `json:"bytes"`
}

func (s *server) auditStats() auditStats {
	if s.aud == nil {
		return auditStats{}
	}
	st := auditStats{Enabled: true, Dir: s.auditDir, WriterStats: s.aud.Stats()}
	if s.audStore != nil {
		fs := s.audStore.Status()
		st.Segments, st.Bytes = fs.Segments, fs.Bytes
	}
	return st
}

// handleAudit serves GET /v1/audit: the audit pipeline's configuration,
// counters and chain head. It answers with Enabled false (200) when
// auditing is off, so probes need no special-casing.
func (s *server) handleAudit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeErrorCode(w, r, http.StatusMethodNotAllowed, "method_not_allowed", "GET only")
		return
	}
	s.writeJSON(w, s.auditStats())
}

// writeAuditMetrics renders the audit pipeline's Prometheus series. The
// series exist (at zero) even with auditing off, so dashboards and alerts
// can be authored before the flag is ever set.
func writeAuditMetrics(w http.ResponseWriter, st auditStats) {
	obs.WriteHeader(w, "evprop_audit_enqueued_total", "Audit records enqueued for spilling.", "counter")
	obs.WriteSample(w, "evprop_audit_enqueued_total", nil, float64(st.Enqueued))
	obs.WriteHeader(w, "evprop_audit_dropped_total", "Audit records dropped under backpressure or failed appends.", "counter")
	obs.WriteSample(w, "evprop_audit_dropped_total", nil, float64(st.Dropped))
	obs.WriteHeader(w, "evprop_audit_spilled_total", "Audit records flushed into durable batches.", "counter")
	obs.WriteSample(w, "evprop_audit_spilled_total", nil, float64(st.Spilled))
	obs.WriteHeader(w, "evprop_audit_batches_total", "Audit batches appended to the store.", "counter")
	obs.WriteSample(w, "evprop_audit_batches_total", nil, float64(st.Batches))
	obs.WriteHeader(w, "evprop_audit_store_errors_total", "Failed audit store appends.", "counter")
	obs.WriteSample(w, "evprop_audit_store_errors_total", nil, float64(st.StoreErrors))
	obs.WriteHeader(w, "evprop_audit_flush_seconds_total", "Cumulative audit flush (store append) time.", "counter")
	obs.WriteSample(w, "evprop_audit_flush_seconds_total", nil, st.FlushTotalUsec/1e6)
	obs.WriteHeader(w, "evprop_audit_flush_max_seconds", "Slowest single audit flush.", "gauge")
	obs.WriteSample(w, "evprop_audit_flush_max_seconds", nil, st.FlushMaxUsec/1e6)
	obs.WriteHeader(w, "evprop_audit_segments", "Audit segment files on disk.", "gauge")
	obs.WriteSample(w, "evprop_audit_segments", nil, float64(st.Segments))
	obs.WriteHeader(w, "evprop_audit_segment_bytes", "Total audit log size on disk.", "gauge")
	obs.WriteSample(w, "evprop_audit_segment_bytes", nil, float64(st.Bytes))
}
