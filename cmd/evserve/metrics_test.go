package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"evprop"
	evclient "evprop/client"
)

// TestStatsFreshServer pins the observed == 0 guard: a stats scrape before
// any traffic must be valid JSON with zero latency fields. Pre-fix the
// average was 0/0 = NaN, which json.Marshal cannot encode at all.
func TestStatsFreshServer(t *testing.T) {
	ts := testServer(t)
	s := statsSnapshot(t, ts).row(t, testModel) // decode fails outright on a NaN body
	if s.Observed != 0 {
		t.Fatalf("fresh server observed %d", s.Observed)
	}
	if s.AvgLatencyUsec != 0 || s.MaxLatencyUsec != 0 ||
		s.P50LatencyUsec != 0 || s.P95LatencyUsec != 0 || s.P99LatencyUsec != 0 {
		t.Errorf("fresh server reports nonzero latency: %+v", s)
	}
	if s.LoadBalance != 1 {
		t.Errorf("fresh server load balance %v, want the neutral 1", s.LoadBalance)
	}
}

func TestStatsPercentiles(t *testing.T) {
	ts := testServer(t)
	for i := 0; i < 5; i++ {
		post(t, ts.URL+modelPath+"/query", evclient.QueryRequest{Evidence: evprop.Evidence{"XRay": 1}, Query: []string{"Lung"}})
	}
	s := statsSnapshot(t, ts).row(t, testModel)
	if s.Observed != 5 {
		t.Fatalf("observed %d, want 5", s.Observed)
	}
	if s.P50LatencyUsec <= 0 {
		t.Errorf("p50 %v", s.P50LatencyUsec)
	}
	if s.P50LatencyUsec > s.P95LatencyUsec || s.P95LatencyUsec > s.P99LatencyUsec {
		t.Errorf("percentiles not monotone: p50 %v p95 %v p99 %v",
			s.P50LatencyUsec, s.P95LatencyUsec, s.P99LatencyUsec)
	}
	if s.P99LatencyUsec > 2*s.MaxLatencyUsec+1 {
		t.Errorf("p99 %v far above max %v", s.P99LatencyUsec, s.MaxLatencyUsec)
	}
	// The scheduler gauges come from real propagations now.
	if s.LoadBalance < 1 {
		t.Errorf("load balance %v below 1", s.LoadBalance)
	}
	if s.SchedOverheadFrac < 0 || s.SchedOverheadFrac >= 1 {
		t.Errorf("scheduler overhead fraction %v outside [0, 1)", s.SchedOverheadFrac)
	}
}

// TestErrorCountedOncePerRequest pins the audited error semantics: every
// rejected request increments one counter exactly once, whichever path
// rejected it — its model's when its route names one, the catch-all's when it
// resolved none — so the rows always add up to the totals. Pre-fix, malformed
// JSON and wrong-method rejections were not counted at all.
func TestErrorCountedOncePerRequest(t *testing.T) {
	ts := testServer(t)
	// check reads /v1/stats and returns the model's, the catch-all's
	// and the total error counts.
	check := func(after string, onModel, onNone int64) {
		t.Helper()
		st := statsSnapshot(t, ts)
		checkRowsAddUp(t, st)
		if m, n := st.row(t, testModel).Errors, st.Unresolved.Errors; m != onModel || n != onNone || st.Totals.Errors != onModel+onNone {
			t.Errorf("after %s: %d errors on the model, %d on no model, %d in all; want %d, %d and their sum",
				after, m, n, st.Totals.Errors, onModel, onNone)
		}
	}
	check("nothing", 0, 0)
	// Malformed JSON → 400, one error.
	r, err := http.Post(ts.URL+modelPath+"/query", "application/json", bytes.NewReader([]byte("{oops")))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	check("malformed JSON", 1, 0)
	// Wrong method → 405, one error.
	g, err := http.Get(ts.URL + modelPath + "/query")
	if err != nil {
		t.Fatal(err)
	}
	g.Body.Close()
	check("wrong method", 2, 0)
	// Unknown variable → one error (not two, despite the failure passing
	// through both the answer function and writeError).
	post(t, ts.URL+modelPath+"/query", evclient.QueryRequest{Query: []string{"nope"}})
	check("unknown variable", 3, 0)
	// Unknown model → 404 model_not_found: no model to count it on.
	if resp := post(t, ts.URL+"/v1/models/ghost/query", evclient.QueryRequest{}); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown model: status %d, want 404", resp.StatusCode)
	}
	check("unknown model", 3, 1)
	// Wrong method on a route that names no model → 405 on the catch-all; so
	// is one on a route outside instrument.
	for _, path := range []string{"/v1/stats", "/v1/healthz"} {
		if resp := post(t, ts.URL+path, struct{}{}); resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s: status %d, want 405", path, resp.StatusCode)
		}
	}
	check("wrong methods on no model", 3, 3)
}

// TestBatchSubQueryFailuresNotHTTPErrors pins the other half of the audit: a
// batch that succeeds as an HTTP request does not bump the error counter for
// sub-queries that fail in place. Pre-fix each failing sub-query counted.
func TestBatchSubQueryFailuresNotHTTPErrors(t *testing.T) {
	ts := testServer(t)
	resp := post(t, ts.URL+modelPath+"/batch", evclient.BatchRequest{Queries: []evclient.QueryRequest{
		{Evidence: evprop.Evidence{"XRay": 1}},
		{Query: []string{"nope"}}, // fails in place
		{Query: []string{"also-nope"}},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var b evclient.BatchResponse
	decode(t, resp, &b)
	if b.Results[1].Error == "" || b.Results[2].Error == "" {
		t.Fatal("sub-query failures not reported in place")
	}
	if got := statsSnapshot(t, ts).Totals.Errors; got != 0 {
		t.Errorf("in-place batch failures counted as HTTP errors: %d", got)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts := testServer(t)
	post(t, ts.URL+modelPath+"/query", evclient.QueryRequest{Evidence: evprop.Evidence{"XRay": 1}})
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		`evprop_http_requests_total{kind="query",model="test"} 1`,
		`evprop_http_errors_total{model="test"} 0`,
		`evprop_http_errors_total{model="(none)"} 0`,
		`evprop_propagations_total{model="test"} 1`,
		`evprop_workers{model="test"} 2`,
		`evprop_request_duration_seconds_count{model="test"} 1`,
		`evprop_request_duration_seconds_bucket{le="+Inf",model="test"} 1`,
		`evprop_sched_runs_total{model="test"} 1`,
		`evprop_sched_load_balance{model="test"}`,
		`evprop_sched_overhead_fraction{model="test"}`,
		`evprop_sched_kind_busy_seconds_total{kind="multiply",model="test"}`,
		"# TYPE evprop_request_duration_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestPprofGating checks the profiling endpoints are absent by default and
// present when opted in.
func TestPprofGating(t *testing.T) {
	srv := newTestServer(t, evprop.Asia(), evprop.Options{Workers: 2})
	off := httptest.NewServer(srv.mux())
	t.Cleanup(off.Close)
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof reachable without -pprof: status %d", resp.StatusCode)
	}

	srv2 := newTestServer(t, evprop.Asia(), evprop.Options{Workers: 2})
	srv2.pprofEnabled = true
	on := httptest.NewServer(srv2.mux())
	t.Cleanup(on.Close)
	resp2, err := http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("pprof index with -pprof: status %d", resp2.StatusCode)
	}
}
