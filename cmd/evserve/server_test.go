package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"evprop"
	"evprop/internal/obs/trace"
	"evprop/internal/registry"
)

func testServer(t *testing.T) *httptest.Server {
	ts, _ := testServerFull(t, evprop.Options{Workers: 2})
	return ts
}

// testServerFull also hands back the server so tests can reach its engine,
// window and logger. Access logs are discarded unless a test swaps srv.log.
// Tracing runs keep-everything (production defaults to -trace on; the
// sample rate only affects which traces tail sampling retains).
func testServerFull(t *testing.T, opts evprop.Options) (*httptest.Server, *server) {
	t.Helper()
	return testServerNet(t, evprop.Asia(), opts)
}

// poolNetwork is a model whose task graph's mean task (12 902 entries, the
// load benchmark's wide60) is dearer than one dispatch, so at two workers its
// propagations go to the pool; every graph of Asia runs inline. Its variables
// are named A, B, C, ….
func poolNetwork() *evprop.Network { return evprop.RandomNetwork(60, 2, 5, 7) }

// testModel names the one model a test server boots with, and modelPath is
// the root of its routes.
const (
	testModel = "test"
	modelPath = "/v1/models/" + testModel
	// recorderPath is testModel's flight recorder; append &-parameters.
	recorderPath = "/v1/debug/flightrecorder?model=" + testModel
)

// newTestServer builds a server serving net as testModel, closed when the
// test ends.
func newTestServer(t *testing.T, net *evprop.Network, opts evprop.Options) *server {
	t.Helper()
	srv := newMultiServer(opts)
	t.Cleanup(srv.close)
	loadModel(t, srv, testModel, net)
	return srv
}

// loadModel compiles net into srv's registry under name and waits for it.
func loadModel(t *testing.T, srv *server, name string, net *evprop.Network) {
	t.Helper()
	if err := srv.reg.LoadSync(name, registry.LiteralSource(net, name)); err != nil {
		t.Fatal(err)
	}
}

// testServerNet is testServerFull over an arbitrary model.
func testServerNet(t *testing.T, net *evprop.Network, opts evprop.Options) (*httptest.Server, *server) {
	t.Helper()
	srv := newTestServer(t, net, opts)
	srv.tracer = &trace.Tracer{SampleRate: 1, Store: trace.NewStore(64)}
	srv.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)
	return ts, srv
}

func post(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func decode(t *testing.T, resp *http.Response, dst any) {
	t.Helper()
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		t.Fatal(err)
	}
}

func TestModelEndpoint(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + modelPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var m modelResponse
	decode(t, resp, &m)
	if len(m.Variables) != 8 {
		t.Errorf("%d variables", len(m.Variables))
	}
	for _, v := range m.Variables {
		if v.States != 2 {
			t.Errorf("variable %s has %d states", v.Name, v.States)
		}
	}
	// POST to a model is rejected.
	r2 := post(t, ts.URL+modelPath, map[string]any{})
	if r2.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST %s status %d", modelPath, r2.StatusCode)
	}
}

func TestQueryEndpoint(t *testing.T) {
	ts := testServer(t)
	resp := post(t, ts.URL+modelPath+"/query", queryRequest{
		Evidence: evprop.Evidence{"XRay": 1},
		Query:    []string{"Lung"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var q queryResponse
	decode(t, resp, &q)
	if math.Abs(q.PEvidence-0.11029) > 1e-4 {
		t.Errorf("p_evidence = %v", q.PEvidence)
	}
	want, err := evprop.Asia().ExactMarginal("Lung", evprop.Evidence{"XRay": 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(q.Posteriors["Lung"][1]-want[1]) > 1e-9 {
		t.Errorf("posterior = %v, oracle %v", q.Posteriors["Lung"], want)
	}
}

func TestQueryAllEndpoint(t *testing.T) {
	ts := testServer(t)
	resp := post(t, ts.URL+modelPath+"/query", queryRequest{Evidence: evprop.Evidence{"Dysp": 1}})
	var q queryResponse
	decode(t, resp, &q)
	if len(q.Posteriors) != 7 {
		t.Errorf("%d posteriors, want 7", len(q.Posteriors))
	}
}

// TestUnroutedEnvelope: a path no route matches — a pre-registry /v1/query,
// anything else — and a flight-recorder read that names no model answer the
// uniform envelope with a query ID, counted once each on no model.
func TestUnroutedEnvelope(t *testing.T) {
	ts := testServer(t)
	for _, tc := range []struct {
		method, path string
		status       int
		code         string
	}{
		{http.MethodPost, "/v1/query", http.StatusNotFound, "not_found"},
		{http.MethodGet, "/nope", http.StatusNotFound, "not_found"},
		{http.MethodGet, "/v1/debug/flightrecorder", http.StatusBadRequest, "bad_request"},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, bytes.NewReader([]byte(`{}`)))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var env errorEnvelope
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil || resp.StatusCode != tc.status || env.Error.Code != tc.code ||
			env.Error.QueryID == "" || resp.Header.Get("X-Query-ID") != env.Error.QueryID {
			t.Errorf("%s %s: status %d, envelope %+v (%v), X-Query-ID %q; want %d %s",
				tc.method, tc.path, resp.StatusCode, env.Error, err, resp.Header.Get("X-Query-ID"), tc.status, tc.code)
		}
	}
	if st := statsSnapshot(t, ts); st.Unresolved.Errors != 3 || st.Totals.Errors != 3 {
		t.Errorf("%d errors on no model, %d in all; want 3 and 3", st.Unresolved.Errors, st.Totals.Errors)
	}
}

func TestQueryErrors(t *testing.T) {
	ts := testServer(t)
	// Unknown variable: semantically invalid input → 422 per the error table.
	resp := post(t, ts.URL+modelPath+"/query", queryRequest{Query: []string{"nope"}})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("unknown variable status %d", resp.StatusCode)
	}
	// Malformed JSON.
	r, err := http.Post(ts.URL+modelPath+"/query", "application/json", bytes.NewReader([]byte("{oops")))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON status %d", r.StatusCode)
	}
	// Wrong method.
	g, err := http.Get(ts.URL + modelPath + "/query")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Body.Close()
	if g.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query status %d", g.StatusCode)
	}
}

func TestMPEEndpoint(t *testing.T) {
	ts := testServer(t)
	resp := post(t, ts.URL+modelPath+"/mpe", mpeRequest{Evidence: evprop.Evidence{"XRay": 1, "Dysp": 1}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var m mpeResponse
	decode(t, resp, &m)
	if len(m.Assignment) != 8 {
		t.Errorf("assignment covers %d variables", len(m.Assignment))
	}
	if m.Assignment["XRay"] != 1 || m.Assignment["Dysp"] != 1 {
		t.Error("MPE contradicts evidence")
	}
	if m.Probability <= 0 || m.Probability > 1 {
		t.Errorf("probability %v", m.Probability)
	}
}

func TestDSepEndpoint(t *testing.T) {
	ts := testServer(t)
	resp := post(t, ts.URL+modelPath+"/dsep", dsepRequest{X: []string{"Asia"}, Y: []string{"Smoke"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var d dsepResponse
	decode(t, resp, &d)
	if !d.Separated {
		t.Error("Asia and Smoke should be marginally d-separated")
	}
	resp = post(t, ts.URL+modelPath+"/dsep", dsepRequest{X: []string{"Asia"}, Y: []string{"Smoke"}, Z: []string{"Dysp"}})
	decode(t, resp, &d)
	if d.Separated {
		t.Error("Asia and Smoke should be d-connected given Dysp")
	}
	resp = post(t, ts.URL+modelPath+"/dsep", dsepRequest{X: []string{"missing"}, Y: []string{"Smoke"}})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("unknown variable status %d", resp.StatusCode)
	}
}

func TestBatchEndpoint(t *testing.T) {
	ts := testServer(t)
	req := batchRequest{Queries: []queryRequest{
		{Evidence: evprop.Evidence{"XRay": 1}, Query: []string{"Lung"}},
		{Evidence: evprop.Evidence{"Dysp": 1}},
		{Query: []string{"nope"}}, // fails in place
	}}
	resp := post(t, ts.URL+modelPath+"/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var b batchResponse
	decode(t, resp, &b)
	if len(b.Results) != 3 {
		t.Fatalf("%d results, want 3", len(b.Results))
	}
	if math.Abs(b.Results[0].PEvidence-0.11029) > 1e-4 {
		t.Errorf("result 0 p_evidence = %v", b.Results[0].PEvidence)
	}
	if len(b.Results[1].Posteriors) != 7 {
		t.Errorf("result 1 has %d posteriors, want 7", len(b.Results[1].Posteriors))
	}
	if b.Results[2].Error == "" {
		t.Error("result 2 should carry an error")
	}
	if b.Results[0].Error != "" || b.Results[1].Error != "" {
		t.Error("healthy results carry errors")
	}
}

// engineOf returns the named model's live engine.
func engineOf(t *testing.T, srv *server, name string) *evprop.Engine {
	t.Helper()
	v, err := srv.reg.Current(name)
	if err != nil {
		t.Fatal(err)
	}
	return v.Engine
}

// row returns the named model's row of a stats body.
func (st statsResponse) row(t *testing.T, name string) modelRow {
	t.Helper()
	for _, r := range st.Models {
		if r.Name == name {
			return r
		}
	}
	t.Fatalf("/v1/stats has no row for model %q", name)
	return modelRow{}
}

// checkRowsAddUp asserts the accounting invariant: the totals are the sums
// over every row, the catch-all included.
func checkRowsAddUp(t *testing.T, st statsResponse) {
	t.Helper()
	var sum counters
	st.eachRow(func(r *modelRow) {
		sum.Queries += r.Queries
		sum.Batches += r.Batches
		sum.MPEs += r.MPEs
		sum.Errors += r.Errors
		sum.Propagations += r.Propagations
	})
	if sum != st.Totals {
		t.Errorf("rows add up to %+v, totals say %+v", sum, st.Totals)
	}
}

// metricsBody fetches /v1/metrics.
func metricsBody(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func statsSnapshot(t *testing.T, ts *httptest.Server) statsResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/stats status %d", resp.StatusCode)
	}
	var s statsResponse
	decode(t, resp, &s)
	return s
}

// TestQuerySinglePropagation verifies the serving contract: one HTTP query
// costs exactly one scheduler invocation, with P(e) and the posteriors
// derived from the same propagation.
func TestQuerySinglePropagation(t *testing.T) {
	ts := testServer(t)
	before := statsSnapshot(t, ts)
	resp := post(t, ts.URL+modelPath+"/query", queryRequest{Evidence: evprop.Evidence{"XRay": 1}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var q queryResponse
	decode(t, resp, &q)
	if q.PEvidence <= 0 || len(q.Posteriors) != 7 {
		t.Fatalf("p_evidence %v, %d posteriors", q.PEvidence, len(q.Posteriors))
	}
	after := statsSnapshot(t, ts)
	if delta := after.Totals.Propagations - before.Totals.Propagations; delta != 1 {
		t.Errorf("one query cost %d propagations, want 1", delta)
	}
	if after.Totals.Queries != before.Totals.Queries+1 {
		t.Errorf("query counter %d → %d", before.Totals.Queries, after.Totals.Queries)
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts := testServer(t)
	post(t, ts.URL+modelPath+"/query", queryRequest{Evidence: evprop.Evidence{"XRay": 1}})
	post(t, ts.URL+modelPath+"/mpe", mpeRequest{Evidence: evprop.Evidence{"XRay": 1}})
	post(t, ts.URL+modelPath+"/batch", batchRequest{Queries: []queryRequest{{}, {}}})
	st := statsSnapshot(t, ts)
	checkRowsAddUp(t, st)
	if tot := st.Totals; tot.Queries != 1 || tot.MPEs != 1 || tot.Batches != 1 {
		t.Errorf("totals: queries %d mpes %d batches %d", tot.Queries, tot.MPEs, tot.Batches)
	}
	s := st.row(t, testModel)
	if s.Queries != 1 || s.MPEs != 1 || s.Batches != 1 {
		t.Errorf("counters: queries %d mpes %d batches %d", s.Queries, s.MPEs, s.Batches)
	}
	if s.Scheduler == "" || s.Workers <= 0 {
		t.Errorf("scheduler %q workers %d", s.Scheduler, s.Workers)
	}
	// 1 query + 2 MPE (sum + max) + 2 batch queries = 5 propagations.
	if s.Propagations != 5 {
		t.Errorf("propagations %d, want 5", s.Propagations)
	}
	if s.AvgLatencyUsec <= 0 || s.MaxLatencyUsec < s.AvgLatencyUsec {
		t.Errorf("latency avg %v max %v", s.AvgLatencyUsec, s.MaxLatencyUsec)
	}
	if s.Errors != 0 || st.Totals.Errors != 0 {
		t.Errorf("errors %d, in all %d", s.Errors, st.Totals.Errors)
	}
}

// TestConcurrentHTTPQueries drives the lock-free handlers from many client
// goroutines; under -race this verifies the server needs no engine mutex.
func TestConcurrentHTTPQueries(t *testing.T) {
	ts := testServer(t)
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				buf, _ := json.Marshal(queryRequest{Evidence: evprop.Evidence{"XRay": 1}, Query: []string{"Lung"}})
				resp, err := http.Post(ts.URL+modelPath+"/query", "application/json", bytes.NewReader(buf))
				if err != nil {
					errc <- err
					return
				}
				var q queryResponse
				err = json.NewDecoder(resp.Body).Decode(&q)
				resp.Body.Close()
				if err != nil {
					errc <- err
					return
				}
				if math.Abs(q.PEvidence-0.11029) > 1e-4 {
					errc <- fmt.Errorf("p_evidence = %v", q.PEvidence)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

func TestZeroProbabilityEvidenceStatus(t *testing.T) {
	ts := testServer(t)
	// Asia's CPTs are strictly positive, so force an impossible observation
	// through a deterministic two-node network instead.
	net := evprop.NewNetwork()
	net.MustAddVariable("Cause", 2, nil, []float64{1, 0})
	net.MustAddVariable("Effect", 2, []string{"Cause"}, []float64{1, 0, 0, 1})
	srv := newTestServer(t, net, evprop.Options{Workers: 2})
	ts2 := httptest.NewServer(srv.mux())
	t.Cleanup(ts2.Close)
	resp := post(t, ts2.URL+modelPath+"/mpe", mpeRequest{Evidence: evprop.Evidence{"Effect": 1}})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("impossible-evidence MPE status %d, want 422", resp.StatusCode)
	}
	// A zero-probability plain query still succeeds with empty posteriors.
	q := post(t, ts2.URL+modelPath+"/query", queryRequest{Evidence: evprop.Evidence{"Effect": 1}})
	if q.StatusCode != http.StatusOK {
		t.Errorf("impossible-evidence query status %d", q.StatusCode)
	}
	var qr queryResponse
	decode(t, q, &qr)
	if qr.PEvidence != 0 || len(qr.Posteriors) != 0 {
		t.Errorf("p_evidence %v, %d posteriors", qr.PEvidence, len(qr.Posteriors))
	}
	// Bad state index maps to 400 via ErrBadState.
	r := post(t, ts.URL+modelPath+"/query", queryRequest{Evidence: evprop.Evidence{"XRay": 5}})
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("bad state status %d", r.StatusCode)
	}
}
