package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"evprop"
	evclient "evprop/client"
	"evprop/internal/audit"
)

// auditTestServer boots a server with the durable audit pipeline attached,
// spilling into a per-test temp directory, mirroring the -audit-dir boot.
func auditTestServer(t *testing.T) (*httptest.Server, *server, string) {
	t.Helper()
	srv := newTestServer(t, evprop.Asia(), evprop.Options{Workers: 2})
	logTo(t, srv, "text", io.Discard)
	dir := attachAudit(t, srv)
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)
	return ts, srv, dir
}

// attachAudit gives srv a file-backed audit writer over a per-test temp
// directory, closed when the test ends. Call it before the first request.
func attachAudit(t *testing.T, srv *server) string {
	t.Helper()
	dir := t.TempDir()
	store, err := audit.OpenFileStore(dir, audit.FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := audit.NewWriter(store, audit.Config{BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv.aud, srv.audStore, srv.auditDir = w, store, dir
	t.Cleanup(func() { w.Close() })
	return dir
}

// auditedRecords flushes the writer and reads everything spilled so far,
// verifying the chain along the way.
func auditedRecords(t *testing.T, srv *server, dir string) []*audit.Record {
	t.Helper()
	srv.aud.Flush()
	batches, err := audit.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := audit.VerifyChain(batches); err != nil {
		t.Fatalf("chain verification: %v", err)
	}
	var recs []*audit.Record
	for _, b := range batches {
		for _, raw := range b.Records {
			r, err := audit.DecodeRecord(raw)
			if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, r)
		}
	}
	return recs
}

func TestAuditSpillsQueries(t *testing.T) {
	ts, srv, dir := auditTestServer(t)

	// One successful query, one MPE, one failing query.
	r1 := post(t, ts.URL+modelPath+"/query", map[string]any{
		"evidence": map[string]int{"XRay": 1},
		"query":    []string{"Lung"},
	})
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", r1.StatusCode)
	}
	var qr evclient.QueryResponse
	decode(t, r1, &qr)
	r2 := post(t, ts.URL+modelPath+"/mpe", map[string]any{
		"evidence": map[string]int{"XRay": 1},
	})
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("mpe status %d", r2.StatusCode)
	}
	r3 := post(t, ts.URL+modelPath+"/query", map[string]any{
		"evidence": map[string]int{"NoSuchVar": 1},
	})
	if r3.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad query status %d", r3.StatusCode)
	}

	recs := auditedRecords(t, srv, dir)
	if len(recs) != 3 {
		t.Fatalf("got %d audit records, want 3", len(recs))
	}
	q, m, bad := recs[0], recs[1], recs[2]
	if q.Kind != audit.KindQuery || q.Error != "" {
		t.Fatalf("first record: kind %d error %q", q.Kind, q.Error)
	}
	if q.Model != testModel || q.Version == 0 {
		t.Errorf("query record model %q version %d", q.Model, q.Version)
	}
	if q.Evidence["XRay"] != 1 || len(q.Query) != 1 || q.Query[0] != "Lung" {
		t.Errorf("query record inputs: evidence %v query %v", q.Evidence, q.Query)
	}
	if q.PEvidence != qr.PEvidence {
		t.Errorf("audited P(e) %v != served %v", q.PEvidence, qr.PEvidence)
	}
	if len(q.Posteriors["Lung"]) != 2 {
		t.Errorf("audited posteriors %v", q.Posteriors)
	}
	if q.ID == "" || q.TimeUnixNano == 0 || q.ElapsedUsec <= 0 {
		t.Errorf("query record metadata: id %q time %d elapsed %v", q.ID, q.TimeUnixNano, q.ElapsedUsec)
	}
	if m.Kind != audit.KindMPE || m.Error != "" {
		t.Fatalf("second record: kind %d error %q", m.Kind, m.Error)
	}
	if len(m.Assignment) == 0 || m.Probability <= 0 {
		t.Errorf("mpe record: assignment %v probability %v", m.Assignment, m.Probability)
	}
	if bad.Kind != audit.KindQuery || bad.Error == "" {
		t.Errorf("third record: kind %d error %q — want a failed query", bad.Kind, bad.Error)
	}
}

func TestAuditStatusEndpointAndStats(t *testing.T) {
	ts, srv, dir := auditTestServer(t)
	post(t, ts.URL+modelPath+"/query", map[string]any{"evidence": map[string]int{"XRay": 1}})
	srv.aud.Flush()

	resp, err := http.Get(ts.URL + "/v1/audit")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st evclient.AuditStatus
	decode(t, resp, &st)
	if !st.Enabled || st.Dir != dir {
		t.Fatalf("audit status: enabled %v dir %q", st.Enabled, st.Dir)
	}
	if st.Enqueued < 1 || st.Spilled < 1 || st.Batches < 1 {
		t.Errorf("audit counters: %+v", st.AuditCounters)
	}
	if st.Segments < 1 || st.Bytes <= 0 {
		t.Errorf("audit store: segments %d bytes %d", st.Segments, st.Bytes)
	}
	if st.LastRoot == "" {
		t.Error("audit status missing chain head")
	}

	// The same block appears under /v1/stats.
	r2, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	var sr statsBody
	decode(t, r2, &sr)
	if !sr.Audit.Enabled || sr.Audit.Spilled < 1 {
		t.Errorf("stats audit section: %+v", sr.Audit)
	}
}

func TestAuditDisabledStatus(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/v1/audit")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var st evclient.AuditStatus
	decode(t, resp, &st)
	if st.Enabled {
		t.Error("audit reported enabled without a writer")
	}
}

func TestAuditMetricsSeries(t *testing.T) {
	ts, srv, _ := auditTestServer(t)
	post(t, ts.URL+modelPath+"/query", map[string]any{"evidence": map[string]int{"XRay": 1}})
	srv.aud.Flush()

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, name := range []string{
		"evprop_audit_enqueued_total",
		"evprop_audit_dropped_total",
		"evprop_audit_spilled_total",
		"evprop_audit_batches_total",
		"evprop_audit_store_errors_total",
		"evprop_audit_flush_seconds_total",
		"evprop_audit_flush_max_seconds",
		"evprop_audit_segments",
		"evprop_audit_segment_bytes",
	} {
		if !strings.Contains(text, "# TYPE "+name+" ") {
			t.Errorf("metrics missing %s", name)
		}
	}
	if !strings.Contains(text, "evprop_audit_spilled_total 1") {
		t.Error("spilled counter not reflected in metrics")
	}
}

func TestFlightRecorderPagination(t *testing.T) {
	ts, _ := testServerFull(t, evprop.Options{Workers: 2, CacheSize: 0})
	for i := 0; i < 5; i++ {
		post(t, ts.URL+modelPath+"/query", map[string]any{"evidence": map[string]int{"XRay": i % 2}})
	}

	page := func(query string) evclient.FlightRecorderPage {
		t.Helper()
		resp, err := http.Get(ts.URL + recorderPath + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", query, resp.StatusCode)
		}
		var fr evclient.FlightRecorderPage
		decode(t, resp, &fr)
		return fr
	}

	full := page("")
	if len(full.Records) != 5 {
		t.Fatalf("got %d records, want 5", len(full.Records))
	}
	// Record 0 must survive an absent ?since (since is exclusive only when
	// present).
	if full.Records[0].Seq != 0 {
		t.Fatalf("first record seq %d", full.Records[0].Seq)
	}
	if full.NextSince != full.Records[4].Seq {
		t.Errorf("next_since %d, want %d", full.NextSince, full.Records[4].Seq)
	}

	// Page through with limit 2: 2 + 2 + 1, then an empty page that echoes
	// the cursor back.
	var got []uint64
	cursor, pages := uint64(0), 0
	first := true
	for {
		q := fmt.Sprintf("&limit=2&since=%d", cursor)
		if first {
			q, first = "&limit=2", false
		}
		fr := page(q)
		if len(fr.Records) == 0 {
			if fr.NextSince != cursor {
				t.Errorf("empty page next_since %d, want echo %d", fr.NextSince, cursor)
			}
			break
		}
		for _, r := range fr.Records {
			got = append(got, r.Seq)
		}
		cursor = fr.NextSince
		if pages++; pages > 10 {
			t.Fatal("pagination did not terminate")
		}
	}
	if len(got) != 5 {
		t.Fatalf("paged %d records, want 5 (%v)", len(got), got)
	}
	for i, seq := range got {
		if seq != full.Records[i].Seq {
			t.Fatalf("page order mismatch: %v vs %v", got, full.Records)
		}
	}

	// Every record carries its evidence signature.
	if full.Records[0].EvidenceSig == "" {
		t.Error("flight record missing evidence signature")
	}

	// Malformed cursors are 400s.
	for _, q := range []string{"&since=abc", "&since=-1", "&limit=x", "&limit=-2"} {
		resp, err := http.Get(ts.URL + recorderPath + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}
