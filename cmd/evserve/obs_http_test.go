package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"evprop"
	evclient "evprop/client"
	"evprop/internal/audit"
	"evprop/internal/obs/trace"
)

// syncBuffer is a locked bytes.Buffer for capturing slog output: the access
// log is written after the handler returns, concurrently with the test
// goroutine reading it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitForLogLine polls for an access-log line containing all substrings; the
// log record lands after the response is written, so a fresh read can race it.
func waitForLogLine(t *testing.T, buf *syncBuffer, want ...string) string {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		sc := bufio.NewScanner(strings.NewReader(buf.String()))
	lines:
		for sc.Scan() {
			for _, w := range want {
				if !strings.Contains(sc.Text(), w) {
					continue lines
				}
			}
			return sc.Text()
		}
		if time.Now().After(deadline) {
			t.Fatalf("no log line with %q in:\n%s", want, buf.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestQueryIDCorrelation is the acceptance path: one request's X-Query-ID
// header locates the matching flight-recorder entry and access-log line.
func TestQueryIDCorrelation(t *testing.T) {
	ts, srv := testServerFull(t, evprop.Options{Workers: 2})
	var buf syncBuffer
	logTo(t, srv, "text", &buf)

	resp := post(t, ts.URL+modelPath+"/query", evclient.QueryRequest{
		Evidence: evprop.Evidence{"XRay": 1},
		Query:    []string{"Lung"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	id := resp.Header.Get("X-Query-ID")
	if !strings.HasPrefix(id, "q-") {
		t.Fatalf("X-Query-ID %q", id)
	}

	// The same ID indexes the flight recorder…
	fr, err := http.Get(ts.URL + recorderPath + "&id=" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Body.Close()
	var dump evclient.FlightRecorderPage
	decode(t, fr, &dump)
	if !dump.Recorder.Enabled {
		t.Fatal("recorder disabled")
	}
	if len(dump.Records) != 1 {
		t.Fatalf("%d records for id %q, want 1", len(dump.Records), id)
	}
	rec := dump.Records[0]
	if rec.Mode != "sum-product" || rec.EvidenceVars != 1 || rec.ElapsedUsec <= 0 {
		t.Errorf("record %+v", rec)
	}

	// …and the access log.
	line := waitForLogLine(t, &buf, "id="+id, "endpoint=/v1/models/{name}/query")
	for _, field := range []string{"status=200", "evidence_vars=1", "latency=", "sched_overhead_fraction="} {
		if !strings.Contains(line, field) {
			t.Errorf("access log line missing %q: %s", field, line)
		}
	}
}

// TestClientSuppliedQueryID checks the header is honored end to end.
func TestClientSuppliedQueryID(t *testing.T) {
	ts, srv := testServerFull(t, evprop.Options{Workers: 2})
	body := bytes.NewReader([]byte(`{"evidence":{"XRay":1},"query":["Lung"]}`))
	req, err := http.NewRequest(http.MethodPost, ts.URL+modelPath+"/query", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Query-ID", "trace-me-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Query-ID"); got != "trace-me-42" {
		t.Errorf("echoed ID %q", got)
	}
	var found bool
	for _, rec := range engineOf(t, srv, testModel).RecentQueries() {
		if rec.ID == "trace-me-42" {
			found = true
		}
	}
	if !found {
		t.Error("client-supplied ID not in flight recorder")
	}
}

// TestQueryIDValidation: a client-supplied ID that is oversized or outside
// the safe charset must not reach the log or the recorder — the server
// replaces it with a generated one.
func TestQueryIDValidation(t *testing.T) {
	ts, srv := testServerFull(t, evprop.Options{Workers: 2})
	// Control characters are rejected by net/http itself before the request
	// leaves the client, so only transport-legal but unsafe IDs appear here;
	// TestValidQueryID covers the rest.
	for _, bad := range []string{
		strings.Repeat("a", queryIDMaxLen+1),
		"spoof id",
		"непечатный",
	} {
		body := bytes.NewReader([]byte(`{"evidence":{"XRay":1},"query":["Lung"]}`))
		req, err := http.NewRequest(http.MethodPost, ts.URL+modelPath+"/query", body)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Query-ID", bad)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		got := resp.Header.Get("X-Query-ID")
		if got == bad || !strings.HasPrefix(got, "q-") {
			t.Errorf("ID %q was not replaced (response carries %q)", bad, got)
		}
		for _, rec := range engineOf(t, srv, testModel).RecentQueries() {
			if rec.ID == bad {
				t.Errorf("invalid ID %q reached the flight recorder", bad)
			}
		}
	}
}

func TestValidQueryID(t *testing.T) {
	for id, want := range map[string]bool{
		"trace-me-42":                        true,
		"q-9f2c41d3-17":                      true,
		"A.b_c:D-9":                          true,
		strings.Repeat("x", queryIDMaxLen):   true,
		"":                                   false,
		strings.Repeat("x", queryIDMaxLen+1): false,
		"has space":                          false,
		"new\nline":                          false,
		"q/slash":                            false,
	} {
		if got := validQueryID(id); got != want {
			t.Errorf("validQueryID(%q) = %v, want %v", id, got, want)
		}
	}
}

// TestFlightRecorderEndpointSlowCapture pins the slow threshold so every
// propagation is slow, then answers "why was that query slow?" the two ways
// there are: its ring record, looked up by X-Query-ID, is marked slow and
// describes the run, and its trace, kept by tail sampling as "slow", has a
// propagate span naming the executor and the tasks — an inline run on Asia,
// a pool run on a model that crosses the granularity rule. Neither is stored
// twice: the dump has no slow array.
func TestFlightRecorderEndpointSlowCapture(t *testing.T) {
	opts := evprop.Options{Workers: 2, SlowQueryThreshold: time.Nanosecond}
	ts, srv := testServerFull(t, opts)
	pooled, psrv := testServerNet(t, poolNetwork(), opts)
	for _, tc := range []struct {
		url      string
		srv      *server
		evidence evprop.Evidence
		executor string
		workers  int
	}{
		{ts.URL, srv, evprop.Evidence{"XRay": 1}, "inline", 1},
		{pooled.URL, psrv, evprop.Evidence{"A": 1}, "pool", 2},
	} {
		tc.srv.tracer.SampleRate = 0 // kept by the slow rule alone
		resp := post(t, tc.url+modelPath+"/query", evclient.QueryRequest{Evidence: tc.evidence})
		fr, err := http.Get(tc.url + recorderPath + "&id=" + resp.Header.Get("X-Query-ID"))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(fr.Body)
		fr.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var dump evclient.FlightRecorderPage
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(body, &dump); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(body, &fields); err != nil {
			t.Fatal(err)
		}
		if _, ok := fields["slow"]; ok || dump.Recorder.SlowCaptured != 1 || len(dump.Records) != 1 {
			t.Fatalf("%s: dump %s", tc.executor, body)
		}
		rec := dump.Records[0]
		if !rec.Slow || rec.Executor != tc.executor || rec.Workers != tc.workers || rec.Tasks == 0 ||
			rec.Entries == 0 || rec.EffectiveWorkers != 2 || rec.LoadBalance < 1 {
			t.Errorf("%s: record %+v", tc.executor, rec)
		}
		tr := fetchTrace(t, tc.url, resp.Header.Get("X-Trace-ID"))
		if tr.Reason != "slow" {
			t.Errorf("%s: trace kept for reason %q, want slow", tc.executor, tr.Reason)
		}
		sp := tr.span(t, "propagate")
		if sp.Attrs["executor"] != tc.executor || sp.Attrs["tasks"] != float64(rec.Tasks) ||
			sp.Attrs["workers.effective"] != float64(2) {
			t.Errorf("%s: propagate span %v, want executor %s and the record's %d tasks", tc.executor, sp.Attrs, tc.executor, rec.Tasks)
		}
	}
	// POST is rejected.
	resp := post(t, ts.URL+"/v1/debug/flightrecorder", map[string]any{})
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST status %d", resp.StatusCode)
	}
}

// TestSlowTraceKeptWithoutDefaultModel: tail sampling judges a request
// against the slow threshold of the model it resolved to, whatever that model
// is called. With the threshold pinned so every run is slow and head sampling
// off, a query of the server's one model is kept, and kept as "slow".
func TestSlowTraceKeptWithoutDefaultModel(t *testing.T) {
	srv := newMultiServer(evprop.Options{Workers: 2, SlowQueryThreshold: time.Nanosecond})
	t.Cleanup(srv.close)
	loadModel(t, srv, "asia", evprop.Asia())
	srv.tracer = &trace.Tracer{SampleRate: 0, Store: trace.NewStore(64)}
	logTo(t, srv, "text", io.Discard)
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)
	resp := post(t, ts.URL+"/v1/models/asia/query", evclient.QueryRequest{Evidence: evprop.Evidence{"XRay": 1}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if tr := fetchTrace(t, ts.URL, resp.Header.Get("X-Trace-ID")); tr.Reason != "slow" {
		t.Errorf("trace kept for reason %q, want slow", tr.Reason)
	}
}

// TestStatsWindow checks the 60-second window rides along in /v1/stats and
// /v1/metrics.
func TestStatsWindow(t *testing.T) {
	ts, _ := testServerFull(t, evprop.Options{Workers: 2})
	for i := 0; i < 3; i++ {
		post(t, ts.URL+modelPath+"/query", evclient.QueryRequest{Evidence: evprop.Evidence{"XRay": 1}})
	}
	post(t, ts.URL+modelPath+"/query", "not an object") // one 400 for the error rate

	w := statsSnapshot(t, ts).row(t, testModel).Window
	if w.Seconds != 60 || len(w.QPSSeries) != 60 {
		t.Fatalf("window shape %+v", w)
	}
	if w.Requests != 4 || w.Errors != 1 {
		t.Errorf("window requests %d errors %d", w.Requests, w.Errors)
	}
	if w.ErrorRate != 0.25 || w.QPS <= 0 || w.P50LatencyUsec <= 0 {
		t.Errorf("window rates %+v", w)
	}
	if w.LoadBalance < 1 {
		t.Errorf("window load balance %v", w.LoadBalance)
	}
	var tail int64
	for _, n := range w.QPSSeries {
		tail += n
	}
	if tail != 4 {
		t.Errorf("series sums to %d, want 4", tail)
	}

	met, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer met.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, met.Body); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, metric := range []string{
		`evprop_window_qps{model="test"}`, `evprop_window_error_rate{model="test"} 0.25`,
		`evprop_window_latency_seconds{model="test",quantile="0.99"}`,
		`evprop_flightrecorder_recorded_total{model="test"} 3`,
	} {
		if !strings.Contains(body, metric) {
			t.Errorf("metrics missing %s", metric)
		}
	}
}

// TestObserversLeaveWindowsAlone: a request that resolves no model lands in
// no model's window. Scrapes, dashboard polls and misses are in the access
// log and — when they fail — in the catch-all's error count, but they are not
// traffic: an idle server watched by Prometheus and evtop used to read qps 1.0
// with the stats handler's latency as its p99.
func TestObserversLeaveWindowsAlone(t *testing.T) {
	ts, _ := testServerFull(t, evprop.Options{Workers: 2})
	post(t, ts.URL+modelPath+"/query", evclient.QueryRequest{Evidence: evprop.Evidence{"XRay": 1}})
	requests := func(st statsBody) map[string]int64 {
		out := map[string]int64{}
		st.eachRow(func(r *evclient.ModelStats) { out[r.Name] = r.Window.Requests })
		return out
	}
	before := statsSnapshot(t, ts)
	if got := requests(before); got[testModel] != 1 || got[noModelName] != 0 {
		t.Fatalf("window requests before any scrape: %v", got)
	}
	for i := 0; i < 5; i++ {
		for _, path := range []string{
			"/v1/stats", "/v1/metrics", "/v1/audit", "/v1/models", modelPath + "/stats",
			recorderPath, "/v1/debug/trace", "/v1/models/ghost", "/v1/healthz",
		} {
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
	}
	after := statsSnapshot(t, ts)
	for name, n := range requests(after) {
		if n != requests(before)[name] {
			t.Errorf("row %s: window.requests %d → %d across the scrapes", name, requests(before)[name], n)
		}
	}
	// The five 404s were counted, once each, on no model.
	if got := after.Unresolved.Errors - before.Unresolved.Errors; got != 5 || after.Totals.Errors != 5 {
		t.Errorf("errors on no model moved by %d, totals say %d; want 5 and 5", got, after.Totals.Errors)
	}
}

// TestRequestTimeout sets a deadline so small the propagation cannot finish;
// the engine must observe it and the server map it to 504. The MPE's
// max-product run is under the same deadline: with the sum-product result
// already cached (a hit needs no run, so it still succeeds), an expired
// request must answer 504 without starting the max-product propagation.
func TestRequestTimeout(t *testing.T) {
	ts, srv := testServerFull(t, evprop.Options{Workers: 2, CacheSize: 16})
	srv.timeout = time.Nanosecond
	resp := post(t, ts.URL+modelPath+"/query", evclient.QueryRequest{Evidence: evprop.Evidence{"XRay": 1}})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("status %d, want 504", resp.StatusCode)
	}

	eng := engineOf(t, srv, testModel)
	for sight := 0; sight < 2; sight++ { // the second one is cached
		res, err := eng.Propagate(evprop.Evidence{"Dysp": 1})
		if err != nil {
			t.Fatal(err)
		}
		res.Close()
	}
	if eng.CacheStats().Entries != 1 {
		t.Fatalf("sum-product result not cached: %+v", eng.CacheStats())
	}
	before := eng.Stats().Propagations
	resp = post(t, ts.URL+modelPath+"/mpe", evclient.MPERequest{Evidence: evprop.Evidence{"Dysp": 1}})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("mpe status %d, want 504", resp.StatusCode)
	}
	if got := eng.Stats().Propagations; got != before {
		t.Errorf("expired /v1/mpe ran %d propagation(s)", got-before)
	}
}

// TestViewsAgree drives every kind of answer through one server with every
// view switched on — access log, flight recorder, audit log, tracing, the
// stats window — and checks that, per query ID, they tell the same story:
// the same ID, model and version, the same evidence — the audit record's
// map, signed as the flight records' evidence_sig — the same cached flag
// and error, the same executor behind every propagation that ran, and
// cache-hit counts that moved by exactly the number of answers that cost no
// propagation of their own, and first-sight counts by the misses that pinned
// nothing. It does so once on a model whose graphs run
// inline and once on one whose graphs go to the pool.
func TestViewsAgree(t *testing.T) {
	t.Run("inline", func(t *testing.T) {
		viewsAgree(t, evprop.Asia(), "inline", evprop.Evidence{"XRay": 1}, evprop.Evidence{"Dysp": 1}, "Lung")
	})
	t.Run("pool", func(t *testing.T) {
		viewsAgree(t, poolNetwork(), "pool", evprop.Evidence{"A": 1}, evprop.Evidence{"B": 1}, "C")
	})
}

func viewsAgree(t *testing.T, net *evprop.Network, executor string, xray, dysp evprop.Evidence, target string) {
	srv := newTestServer(t, net, evprop.Options{Workers: 2, CacheSize: 16})
	var logBuf syncBuffer
	logTo(t, srv, "json", &logBuf)
	srv.tracer = &trace.Tracer{SampleRate: 0, Store: trace.NewStore(64)}
	store := audit.NewMemStore()
	var err error
	srv.aud, err = audit.NewWriter(store, audit.Config{BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(func() {
		ts.Close()
		srv.aud.Close()
	})
	eng := engineOf(t, srv, testModel)
	version, err := srv.reg.Current(testModel)
	if err != nil {
		t.Fatal(err)
	}

	rows := []struct {
		name, path string
		body       any
		evidence   []evprop.Evidence // one per answer
		status     int
		cached     bool     // every answer of the request
		modes      []string // flight-recorder records, in order
		engineHits int64    // engine result-cache hits
		firstSight int64    // engine first sights: private runs, nothing pinned
	}{
		// A result is admitted on the second sight of its evidence: the hit
		// legs warm with two queries, and the first of them says so.
		{"query first sight", "/query", evclient.QueryRequest{Evidence: xray, Query: []string{target}},
			[]evprop.Evidence{xray}, 200, false, []string{"sum-product"}, 0, 1},
		{"query miss", "/query", evclient.QueryRequest{Evidence: xray, Query: []string{target}},
			[]evprop.Evidence{xray}, 200, false, []string{"sum-product"}, 0, 0},
		{"query hit", "/query", evclient.QueryRequest{Evidence: xray, Query: []string{target}},
			[]evprop.Evidence{xray}, 200, true, []string{"sum-product"}, 1, 0},
		{"mpe first sight", "/mpe", evclient.MPERequest{Evidence: dysp},
			[]evprop.Evidence{dysp}, 200, false, []string{"sum-product", "max-product"}, 0, 2},
		{"mpe miss", "/mpe", evclient.MPERequest{Evidence: dysp},
			[]evprop.Evidence{dysp}, 200, false, []string{"sum-product", "max-product"}, 0, 0},
		{"mpe hit", "/mpe", evclient.MPERequest{Evidence: dysp},
			[]evprop.Evidence{dysp}, 200, true, []string{"sum-product", "max-product"}, 2, 0},
		// Two sub-queries on evidence the engine already holds: each is an
		// engine cache hit with its own record.
		{"batch", "/batch", evclient.BatchRequest{Queries: []evclient.QueryRequest{{Evidence: xray}, {Evidence: xray}}},
			[]evprop.Evidence{xray, xray}, 200, true, []string{"sum-product", "sum-product"}, 2, 0},
		{"failing query", "/query", evclient.QueryRequest{Evidence: evprop.Evidence{"NoSuchVar": 1}},
			[]evprop.Evidence{{"NoSuchVar": 1}}, 422, false, nil, 0, 0},
	}
	ids := map[string]bool{}
	var answers, cachedAnswers int
	var ranEntries, ranGraphEntries int64 // over every run of every row
	for i, row := range rows {
		id := fmt.Sprintf("views-%d", i)
		ids[id] = true
		statsBefore := eng.CacheStats()

		buf, err := json.Marshal(row.body)
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, ts.URL+modelPath+row.path, bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		traceparent, traceID := evclient.NewTraceparent(true) // flagged: tail sampling keeps it
		req.Header.Set("traceparent", traceparent)
		req.Header.Set("X-Query-ID", id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var envelope evclient.ErrorEnvelope
		if resp.StatusCode != http.StatusOK {
			decode(t, resp, &envelope)
		}
		resp.Body.Close()
		if resp.StatusCode != row.status || resp.Header.Get("X-Query-ID") != id {
			t.Fatalf("%s: status %d id %q", row.name, resp.StatusCode, resp.Header.Get("X-Query-ID"))
		}
		wantCached := 0
		if row.cached {
			wantCached = len(row.evidence)
		}
		if row.status == http.StatusOK {
			answers += len(row.evidence)
			cachedAnswers += wantCached
		}
		// Only a propagation that ran has an executor: cached answers and
		// failures leave the field empty in every view.
		wantExecutor := ""
		if row.status == http.StatusOK && !row.cached {
			wantExecutor = executor
		}

		// Access log.
		var line struct {
			ID, Model    string
			TraceID      string `json:"trace_id"`
			Status       int
			EvidenceVars int `json:"evidence_vars"`
			CacheHits    int `json:"cache_hits"`
			Executor     string
			Entries      int64
			GraphEntries int64 `json:"graph_entries"`
		}
		if err := json.Unmarshal([]byte(waitForLogLine(t, &logBuf, `"id":"`+id+`"`)), &line); err != nil {
			t.Fatal(err)
		}
		evidenceVars := 0
		for _, ev := range row.evidence {
			evidenceVars += len(ev)
		}
		if line.Model != testModel || line.TraceID != traceID || line.Status != row.status ||
			line.EvidenceVars != evidenceVars || line.CacheHits != wantCached || line.Executor != wantExecutor {
			t.Errorf("%s: access log %+v, want model %s trace %s status %d evidence_vars %d cache_hits %d executor %q",
				row.name, line, testModel, traceID, row.status, evidenceVars, wantCached, wantExecutor)
		}
		statsAfter := eng.CacheStats()
		if got := statsAfter.Hits - statsBefore.Hits; got != row.engineHits {
			t.Errorf("%s: engine cache hits moved by %d, want %d", row.name, got, row.engineHits)
		}
		if got := statsAfter.FirstSight - statsBefore.FirstSight; got != row.firstSight {
			t.Errorf("%s: engine first sights moved by %d, want %d", row.name, got, row.firstSight)
		}

		// Flight recorder: exactly the request's propagations, under its ID.
		fresp, err := http.Get(ts.URL + recorderPath + "&id=" + id)
		if err != nil {
			t.Fatal(err)
		}
		var dump evclient.FlightRecorderPage
		decode(t, fresp, &dump)
		fresp.Body.Close()
		if len(dump.Records) != len(row.modes) {
			t.Errorf("%s: %d flight records, want %d (%v)", row.name, len(dump.Records), len(row.modes), row.modes)
			dump.Records = nil
		}
		// Only a propagation that ran ranged over tables: fewer entries than
		// its task graph has, since one observed variable slices every table
		// that mentions it. The access log sums the request's runs.
		// It was priced at both of the server's workers, being the only run in
		// flight: the requests of this test come one at a time.
		var entries, graphEntries int64
		skipped := 0
		effectiveWorkers, wantWorkers := 0, 0
		if wantExecutor != "" {
			wantWorkers = 2
		}
		for k, rec := range dump.Records {
			entries += rec.Entries
			graphEntries += rec.GraphEntries
			skipped += rec.TasksSkipped
			effectiveWorkers += rec.EffectiveWorkers
			if rec.EffectiveWorkers != wantWorkers {
				t.Errorf("%s: flight record %d priced at %d workers, want %d", row.name, k, rec.EffectiveWorkers, wantWorkers)
			}
			if ran := wantExecutor != ""; ran != (rec.Entries > 0 && rec.Entries < rec.GraphEntries) || ran != (rec.GraphEntries > 0) {
				t.Errorf("%s: flight record %d ranged over %d of %d entries, ran=%v", row.name, k, rec.Entries, rec.GraphEntries, ran)
			}
			if rec.Mode != row.modes[k] || rec.Cached != row.cached || rec.Error != "" ||
				rec.Executor != wantExecutor {
				t.Errorf("%s: flight record %d = %+v, want mode %s cached %v executor %q",
					row.name, k, rec, row.modes[k], row.cached, wantExecutor)
			}
		}
		if line.Entries != entries || line.GraphEntries != graphEntries {
			t.Errorf("%s: access log says %d of %d entries, the flight records %d of %d",
				row.name, line.Entries, line.GraphEntries, entries, graphEntries)
		}
		ranEntries += entries
		ranGraphEntries += graphEntries
		// Targets shape a private run and nothing else: only the first sights
		// skip distribute messages — the query's toward what it does not name,
		// the MPE's sum-product run every one of them, since it reads only
		// P(e). Their pinned repeats and the batch's untargeted sub-queries run
		// full.
		if targeted := strings.HasSuffix(row.name, "first sight"); targeted != (skipped > 0) {
			t.Errorf("%s: the flight records skipped %d tasks", row.name, skipped)
		}

		// Audit log: one record per answer.
		srv.aud.Flush()
		var audited []*audit.Record
		for _, b := range store.Batches() {
			for _, raw := range b.Records {
				rec, err := audit.DecodeRecord(raw)
				if err != nil {
					t.Fatal(err)
				}
				if rec.ID == id {
					audited = append(audited, rec)
				}
			}
		}
		if len(audited) != len(row.evidence) {
			t.Errorf("%s: %d audit records, want %d", row.name, len(audited), len(row.evidence))
			audited = nil
		}
		for k, rec := range audited {
			if rec.Model != testModel || rec.Version != version.ID || rec.Cached != row.cached ||
				rec.Error != envelope.Error.Message || !maps.Equal(rec.Evidence, map[string]int(row.evidence[k])) {
				t.Errorf("%s: audit record %d = %+v, want model %s version %d cached %v error %q evidence %v",
					row.name, k, rec, testModel, version.ID, row.cached, envelope.Error.Message, row.evidence[k])
			}
			// The flight records keep the evidence as its signature: the
			// audit record's map must sign to it. The signature's first byte
			// is the semiring; the rest is the evidence, identical for the
			// sum- and max-product records.
			sig, _ := eng.EvidenceSignature(evprop.Evidence(rec.Evidence), nil) // fails only on the failing row, which has no records
			for j, fr := range dump.Records {
				if fr.EvidenceSig[2:] != hex.EncodeToString([]byte(sig))[2:] {
					t.Errorf("%s: flight record %d signs %s, audit record %d's evidence %v signs %x",
						row.name, j, fr.EvidenceSig, k, rec.Evidence, sig)
				}
			}
		}

		// Trace: the root carries the query ID, every cache lookup the same
		// verdict, and every engine span hangs below the request's root.
		tr := fetchTrace(t, ts.URL, traceID)
		byID := map[string]evclient.TraceSpan{}
		for _, sp := range tr.Spans {
			byID[sp.SpanID] = sp
		}
		lookups, propagates := 0, 0
		var spanEntries, spanGraphEntries, absorbEntries, spanEffective, spanSkipped float64
		for _, sp := range tr.Spans {
			top := sp
			for byID[top.ParentSpanID].SpanID != "" {
				top = byID[top.ParentSpanID]
			}
			if !strings.HasPrefix(top.Name, "/v1/models/") || top.Attrs["query.id"] != id {
				t.Errorf("%s: span %s is rooted at %s %v", row.name, sp.Name, top.Name, top.Attrs)
			}
			if sp.Name == "cache.lookup" {
				lookups++
				if sp.Attrs["cache.hit"] != row.cached {
					t.Errorf("%s: cache.lookup hit=%v, want %v", row.name, sp.Attrs["cache.hit"], row.cached)
				}
				if first, miss := sp.Attrs["cache.first_sight"].(bool); miss == row.cached || first != (row.firstSight > 0) {
					t.Errorf("%s: cache.lookup first_sight=%v, want %v on a miss and nothing on a hit", row.name, sp.Attrs["cache.first_sight"], row.firstSight > 0)
				}
			}
			if sp.Name == "propagate" {
				propagates++
				if sp.Attrs["executor"] != executor {
					t.Errorf("%s: propagate span executor=%v, want %s", row.name, sp.Attrs["executor"], executor)
				}
				e, _ := sp.Attrs["entries"].(float64)
				g, _ := sp.Attrs["entries.graph"].(float64)
				spanEntries, spanGraphEntries = spanEntries+e, spanGraphEntries+g
				w, _ := sp.Attrs["workers.effective"].(float64)
				spanEffective += w
				k, _ := sp.Attrs["tasks.skipped"].(float64)
				spanSkipped += k
				if sp.Attrs["workers"] != float64(2) {
					t.Errorf("%s: propagate span workers=%v, want 2", row.name, sp.Attrs["workers"])
				}
			}
			if sp.Name == "absorb" {
				e, _ := sp.Attrs["entries"].(float64)
				absorbEntries += e
			}
		}
		if int64(spanEntries) != entries || int64(spanGraphEntries) != graphEntries || int64(absorbEntries) != entries {
			t.Errorf("%s: propagate spans say %v of %v entries, absorb spans %v, the flight records %d of %d",
				row.name, spanEntries, spanGraphEntries, absorbEntries, entries, graphEntries)
		}
		if int(spanSkipped) != skipped {
			t.Errorf("%s: propagate spans say %v tasks skipped, the flight records %d", row.name, spanSkipped, skipped)
		}
		if int(spanEffective) != effectiveWorkers {
			t.Errorf("%s: propagate spans were priced at %v workers in all, the flight records at %d", row.name, spanEffective, effectiveWorkers)
		}
		wantPropagates := 0
		if wantExecutor != "" {
			wantPropagates = len(row.modes)
		}
		if propagates != wantPropagates {
			t.Errorf("%s: %d propagate spans, want %d (%v)", row.name, propagates, wantPropagates, spanNames(tr))
		}
		if lookups != len(row.modes) {
			t.Errorf("%s: %d cache.lookup spans, want %d (%v)", row.name, lookups, len(row.modes), spanNames(tr))
		}
		if row.status == http.StatusOK && !tr.has("collect") {
			t.Errorf("%s: no collect span (%v)", row.name, spanNames(tr))
		}
	}

	// Nothing was recorded under an ID no request carried.
	for _, rec := range eng.RecentQueries() {
		if !ids[rec.ID] {
			t.Errorf("flight record under foreign ID %q: %+v", rec.ID, rec)
		}
	}
	// Window and per-model stats: the hit rate is cached answers over
	// answers, and the engine ran one propagation per uncached answer run.
	var ms evclient.ModelStats
	mresp, err := http.Get(ts.URL + modelPath + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	decode(t, mresp, &ms)
	mresp.Body.Close()
	want := float64(cachedAnswers) / float64(answers)
	if got := ms.Window.CacheHitRate; math.Abs(got-want) > 1e-9 {
		t.Errorf("window cache_hit_rate %v, want %d/%d", got, cachedAnswers, answers)
	}
	if ms.Observed != int64(answers) || ms.Propagations != 6 || ms.Cache.FirstSight != 3 {
		t.Errorf("model stats: observed %d propagations %d first sights %d, want %d, 6 and 3", ms.Observed, ms.Propagations, ms.Cache.FirstSight, answers)
	}
	// The six runs are counted once, under the executor every record named.
	wantRuns := map[string]int64{"inline": 0, "pool": 0}
	wantRuns[executor] = 6
	if ms.InlineRuns != wantRuns["inline"] || ms.PoolRuns != wantRuns["pool"] {
		t.Errorf("model stats: %d inline + %d pool runs, want %v", ms.InlineRuns, ms.PoolRuns, wantRuns)
	}
	// And their entries, as the share of the task graph the records add up to.
	if want := float64(ranEntries) / float64(ranGraphEntries); ms.SlicedShare != want || want >= 1 {
		t.Errorf("model stats: sliced_share %v, the flight records say %d/%d", ms.SlicedShare, ranEntries, ranGraphEntries)
	}
	metrics, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(metrics.Body)
	metrics.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for path, n := range wantRuns {
		if series := fmt.Sprintf("evprop_sched_%s_runs_total{model=%q} %d\n", path, testModel, n); !strings.Contains(string(body), series) {
			t.Errorf("/v1/metrics lacks %q", series)
		}
	}
	// The workers every record was priced at are the process's: one scheduler
	// block beside the rows, none on them, every run counted out again — the
	// k of the block, of /v1/metrics and of each record's effective_workers is
	// the one count.
	sc := statsSnapshot(t, ts).Scheduler
	if sc.PoolSize != 2 || sc.ActiveRuns != 0 || (executor == "pool" && len(sc.Workers) != 2) {
		t.Errorf("/v1/stats scheduler block %+v, want the two workers the records were priced at and nothing in flight", sc)
	}
	row, err := http.Get(ts.URL + modelPath + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	decode(t, row, &fields)
	row.Body.Close()
	if _, perModel := fields["scheduler_gauges"]; perModel || !strings.Contains(string(body), "\nevprop_sched_active_runs 0\n") {
		t.Errorf("a model's row still copies the scheduler gauges (%v), or /v1/metrics lacks the one active-runs series", perModel)
	}
}

// TestServeGracefulShutdown drives the real serve loop: cancel the context
// (as SIGINT would) and expect a clean, prompt return after in-flight
// requests drain.
func TestServeGracefulShutdown(t *testing.T) {
	srv := newTestServer(t, evprop.Asia(), evprop.Options{Workers: 2})
	logTo(t, srv, "text", io.Discard)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve(ctx, ln, srv, srv.log) }()

	url := "http://" + ln.Addr().String()
	resp := post(t, url+modelPath+"/query", evclient.QueryRequest{Evidence: evprop.Evidence{"XRay": 1}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not return after cancel")
	}
	srv.close()
}
