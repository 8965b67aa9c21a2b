package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"regexp"
	"testing"
	"time"

	"evprop"
	evclient "evprop/client"
	"evprop/internal/obs/trace"
)

// HTTP-level tracing conformance: a caller-supplied W3C traceparent must
// survive evserve end to end (same trace ID in the X-Trace-ID header, the
// error envelope, and the kept trace, with the remote span as the root's
// parent), and batch sub-queries must appear as child spans (the batch's span
// tree is checked in TestBatchIdenticalSubQueriesCollapse).

// postTraced posts body with a traceparent header and returns the response.
func postTraced(t *testing.T, url, traceparent string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// fetchTrace polls GET /v1/debug/trace?id= until the trace lands in the
// store (Finish runs after the response is written, so the store can trail
// the client by a beat).
func fetchTrace(t *testing.T, baseURL, id string) traceResponse {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := http.Get(baseURL + "/v1/debug/trace?id=" + id)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			var tr traceResponse
			decode(t, resp, &tr)
			resp.Body.Close()
			return tr
		}
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatalf("trace %s not retained", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (tr traceResponse) span(t *testing.T, name string) traceSpanJSON {
	t.Helper()
	for _, sp := range tr.Spans {
		if sp.Name == name {
			return sp
		}
	}
	t.Fatalf("trace has no span %q (got %v)", name, spanNames(tr))
	return traceSpanJSON{}
}

func (tr traceResponse) has(name string) bool {
	for _, sp := range tr.Spans {
		if sp.Name == name {
			return true
		}
	}
	return false
}

func spanNames(tr traceResponse) []string {
	names := make([]string, len(tr.Spans))
	for i, sp := range tr.Spans {
		names[i] = sp.Name
	}
	return names
}

// TestTraceparentSurvivesEndToEnd: the caller's trace ID is adopted, echoed
// in X-Trace-ID, and the kept trace's root span links to the caller's span.
func TestTraceparentSurvivesEndToEnd(t *testing.T) {
	ts, _ := testServerFull(t, evprop.Options{Workers: 2})
	const (
		callerTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
		callerSpan  = "00f067aa0ba902b7"
	)
	parent := "00-" + callerTrace + "-" + callerSpan + "-01"
	resp := postTraced(t, ts.URL+modelPath+"/query", parent,
		queryRequest{Evidence: evprop.Evidence{"XRay": 1}, Query: []string{"Lung"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Trace-ID"); got != callerTrace {
		t.Fatalf("X-Trace-ID %q, want the caller's trace ID %q", got, callerTrace)
	}
	tr := fetchTrace(t, ts.URL, callerTrace)
	if tr.TraceID != callerTrace {
		t.Errorf("stored trace ID %q", tr.TraceID)
	}
	if !tr.Sampled {
		t.Error("caller's sampled flag was dropped")
	}
	// Reason: the caller flagged the trace, which outranks the head coin.
	if tr.Reason != "flagged" {
		t.Errorf("keep reason %q, want flagged", tr.Reason)
	}
	root := tr.span(t, "/v1/models/{name}/query")
	if root.ParentSpanID != callerSpan {
		t.Errorf("root parent %q, want the caller's span %q", root.ParentSpanID, callerSpan)
	}
	if st, ok := root.Attrs["http.status"].(float64); !ok || int(st) != http.StatusOK {
		t.Errorf("root http.status attr %v", root.Attrs["http.status"])
	}
	// The engine's pipeline stages hang under the root.
	for _, stage := range []string{"absorb", "propagate"} {
		sp := tr.span(t, stage)
		if sp.ParentSpanID != root.SpanID {
			t.Errorf("%s parent %q, want root %q", stage, sp.ParentSpanID, root.SpanID)
		}
	}
}

// TestTraceErrorEnvelopeAndKeep: a failed request's envelope carries the
// trace ID, and tail sampling keeps the trace with reason "error"
// regardless of the head coin.
func TestTraceErrorEnvelopeAndKeep(t *testing.T) {
	ts, srv := testServerFull(t, evprop.Options{Workers: 2})
	srv.tracer.SampleRate = 0 // tail rules only
	resp := post(t, ts.URL+modelPath+"/query", queryRequest{Query: []string{"nope"}})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var env errorEnvelope
	decode(t, resp, &env)
	id := resp.Header.Get("X-Trace-ID")
	if env.Error.TraceID != id || len(id) != 32 {
		t.Fatalf("envelope trace_id %q, header %q", env.Error.TraceID, id)
	}
	// 4xx is not a server error: the root span did not Fail, so the trace
	// is kept only if the handler marked it — it should NOT be in the store
	// (client errors at rate 0 are noise, not incidents).
	deadline := time.Now().Add(50 * time.Millisecond)
	for time.Now().Before(deadline) {
		r2, err := http.Get(ts.URL + "/v1/debug/trace?id=" + id)
		if err != nil {
			t.Fatal(err)
		}
		r2.Body.Close()
		if r2.StatusCode == http.StatusOK {
			t.Fatal("422 trace kept at sample rate 0; only 5xx should trip the error rule")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTraceDebugEndpoint: the list form, the 404 and the 400.
func TestTraceDebugEndpoint(t *testing.T) {
	ts, _ := testServerFull(t, evprop.Options{Workers: 2})
	resp := post(t, ts.URL+modelPath+"/query", queryRequest{Evidence: evprop.Evidence{"XRay": 1}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	want := resp.Header.Get("X-Trace-ID")
	fetchTrace(t, ts.URL, want) // wait for Finish to land it

	r, err := http.Get(ts.URL + "/v1/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	var list traceListResponse
	decode(t, r, &list)
	r.Body.Close()
	found := false
	for _, id := range list.Recent {
		if id == want {
			found = true
		}
	}
	if !found {
		t.Errorf("recent list %v missing %s", list.Recent, want)
	}
	if !list.Stats.Enabled || list.Stats.Started == 0 || list.Stats.Kept == 0 {
		t.Errorf("tracer stats %+v", list.Stats)
	}

	r, err = http.Get(ts.URL + "/v1/debug/trace?id=" + trace.NewTraceID().String())
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id status %d, want 404", r.StatusCode)
	}
	r, err = http.Get(ts.URL + "/v1/debug/trace?id=xyz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("bad id status %d, want 400", r.StatusCode)
	}
}

// TestExemplarsNameKeptTraces: a latency bucket's exemplar names a trace
// that GET /v1/debug/trace returns. At sample rate 0 a fast, successful,
// unflagged request's trace is dropped, and its latency is counted with no
// exemplar; a flagged request's trace is kept, and its latency's exemplar
// resolves.
func TestExemplarsNameKeptTraces(t *testing.T) {
	ts, srv := testServerFull(t, evprop.Options{Workers: 2})
	srv.tracer.SampleRate = 0
	var logBuf syncBuffer
	srv.log = slog.New(slog.NewTextHandler(&logBuf, nil))
	exemplar := regexp.MustCompile(`evprop_request_duration_seconds_bucket\{[^}]*model="test"\} \d+ # \{trace_id="([0-9a-f]{32})"\}`)
	// query posts one query and returns its trace ID once the access-log line
	// is written: instrument has then finished with the request.
	query := func(traceparent string) string {
		resp := postTraced(t, ts.URL+modelPath+"/query", traceparent, queryRequest{Evidence: evprop.Evidence{"XRay": 1}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		waitForLogLine(t, &logBuf, "id="+resp.Header.Get("X-Query-ID"))
		return resp.Header.Get("X-Trace-ID")
	}
	exemplars := func() []string {
		resp, err := http.Get(ts.URL + "/v1/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		var ids []string
		for _, m := range exemplar.FindAllStringSubmatch(string(body), -1) {
			ids = append(ids, m[1])
		}
		return ids
	}

	dropped := query("")
	resp, err := http.Get(ts.URL + "/v1/debug/trace?id=" + dropped)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("dropped trace answers %d, want 404", resp.StatusCode)
	}
	if ids := exemplars(); len(ids) != 0 {
		t.Errorf("a dropped trace left exemplars %v (dropped: %s)", ids, dropped)
	}

	traceparent, flagged := evclient.NewTraceparent(true)
	if got := query(traceparent); got != flagged {
		t.Fatalf("X-Trace-ID %s, want the caller's %s", got, flagged)
	}
	ids := exemplars()
	if len(ids) != 1 || ids[0] != flagged {
		t.Fatalf("exemplars %v, want the flagged trace %s alone", ids, flagged)
	}
	fetchTrace(t, ts.URL, ids[0])
}
