package main

import (
	"bytes"
	"encoding/json"
	"go/ast"
	goparser "go/parser"
	"go/token"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"evprop"
	evclient "evprop/client"
)

// TestNoWireDeclarations: every body evserve reads or writes is a type of
// evprop/client, so no struct declared in the server's own files carries a
// json tag — a second declaration of a body is what this package must not
// grow back.
func TestNoWireDeclarations(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := goparser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if st, ok := n.(*ast.StructType); ok {
				for _, field := range st.Fields.List {
					if field.Tag != nil && strings.Contains(field.Tag.Value, "json:") {
						t.Errorf("%s: a json-tagged field; declare the body in evprop/client", fset.Position(field.Pos()))
					}
				}
			}
			return true
		})
	}
}

// TestClientDecodesEveryBody: the evclient type of each route's answer takes
// the whole body — no member it does not declare — and encodes back to the
// same bytes, so a client reads everything the server wrote.
func TestClientDecodesEveryBody(t *testing.T) {
	_, srv := testServerFull(t, evprop.Options{Workers: 2})
	h := srv.mux()
	serve := func(method, path string, body any) *httptest.ResponseRecorder {
		var b []byte
		if body != nil {
			var err error
			if b, err = json.Marshal(body); err != nil {
				t.Fatal(err)
			}
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(b)))
		return rec
	}
	query := serve(http.MethodPost, modelPath+"/query", evclient.QueryRequest{Evidence: evclient.Evidence{"XRay": 1}})
	traceID := query.Header().Get("X-Trace-ID") // kept: the test tracer keeps every trace
	for _, tc := range []struct {
		method, path string
		body         any
		status       int
		into         any
	}{
		{http.MethodPost, modelPath + "/query", evclient.QueryRequest{Evidence: evclient.Evidence{"XRay": 1}, Query: []string{"Lung"}}, 200, &evclient.QueryResponse{}},
		{http.MethodPost, modelPath + "/mpe", evclient.MPERequest{Evidence: evclient.Evidence{"XRay": 1}}, 200, &evclient.MPEResponse{}},
		{http.MethodPost, modelPath + "/batch", evclient.BatchRequest{Queries: []evclient.QueryRequest{{}, {Query: []string{"nope"}}}}, 200, &evclient.BatchResponse{}},
		{http.MethodPost, modelPath + "/dsep", evclient.DSepRequest{X: []string{"Smoke"}, Y: []string{"Tub"}}, 200, &evclient.DSepResponse{}},
		{http.MethodPost, modelPath + "/query", evclient.QueryRequest{Evidence: evclient.Evidence{"nope": 1}}, 422, &evclient.ErrorEnvelope{}},
		{http.MethodGet, "/v1/models", nil, 200, &evclient.ModelList{}},
		{http.MethodGet, modelPath, nil, 200, &evclient.ModelSchema{}},
		{http.MethodGet, modelPath + "/stats", nil, 200, &evclient.ModelStats{}},
		{http.MethodGet, "/v1/stats", nil, 200, &evclient.Stats{}},
		{http.MethodGet, "/v1/audit", nil, 200, &evclient.AuditStatus{}},
		{http.MethodGet, recorderPath, nil, 200, &evclient.FlightRecorderPage{}},
		{http.MethodGet, "/v1/debug/trace", nil, 200, &evclient.TraceList{}},
		{http.MethodGet, "/v1/debug/trace?id=" + traceID, nil, 200, &evclient.TraceResponse{}},
		{http.MethodGet, "/v1/healthz", nil, 200, &evclient.Health{}},
	} {
		rec := serve(tc.method, tc.path, tc.body)
		if rec.Code != tc.status {
			t.Fatalf("%s %s: status %d, want %d: %s", tc.method, tc.path, rec.Code, tc.status, rec.Body.Bytes())
		}
		dec := json.NewDecoder(bytes.NewReader(rec.Body.Bytes()))
		dec.DisallowUnknownFields()
		if err := dec.Decode(tc.into); err != nil {
			t.Fatalf("%s %s: %s does not take %s: %v", tc.method, tc.path, reflect.TypeOf(tc.into).Elem(), rec.Body.Bytes(), err)
		}
		var again bytes.Buffer
		if err := json.NewEncoder(&again).Encode(tc.into); err != nil || !bytes.Equal(again.Bytes(), rec.Body.Bytes()) {
			t.Errorf("%s %s: answered\n%s%s encodes back\n%s", tc.method, tc.path, rec.Body.Bytes(), reflect.TypeOf(tc.into).Elem(), again.Bytes())
		}
	}
}

// TestStatsKeyOrder pins the key order of the /v1/stats blocks whose types
// are the engine's own records (evprop.SchedulerGauges, WorkerGauges and
// CacheStats), declared in the engine's packages. Client and server share
// those types, so TestClientDecodesEveryBody cannot see a reordered field;
// this can.
func TestStatsKeyOrder(t *testing.T) {
	_, srv := testServerNet(t, poolNetwork(), evprop.Options{Workers: 2, CacheSize: 32})
	h := srv.mux()
	get := func(method, path, body string) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", method, path, rec.Code, rec.Body.Bytes())
		}
		return rec.Body.Bytes()
	}
	get(http.MethodPost, modelPath+"/query", `{"evidence":{"A":1}}`) // dispatched: the workers start
	var stats struct {
		Scheduler json.RawMessage `json:"scheduler"`
		Models    []struct {
			Cache json.RawMessage `json:"cache"`
		} `json:"models"`
	}
	var sched struct {
		Workers []json.RawMessage `json:"workers"`
	}
	body := get(http.MethodGet, "/v1/stats", "")
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(stats.Scheduler, &sched); err != nil {
		t.Fatal(err)
	}
	if len(sched.Workers) != 2 || len(stats.Models) != 1 {
		t.Fatalf("/v1/stats has %d workers and %d models, want 2 and 1: %s", len(sched.Workers), len(stats.Models), body)
	}
	for _, c := range []struct {
		block string
		raw   json.RawMessage
		want  []string
	}{
		{"scheduler", stats.Scheduler, []string{"pool_size", "active_runs", "global_depth", "workers"}},
		{"scheduler.workers[0]", sched.Workers[0], []string{"state", "queue_depth", "queue_weight", "busy_ns", "items", "completed", "partitions"}},
		{"models[0].cache", stats.Models[0].Cache, []string{"enabled", "capacity", "entries", "bytes", "hits", "misses", "collapsed", "first_sight"}},
	} {
		if got := objectKeys(t, c.raw); !slices.Equal(got, c.want) {
			t.Errorf("%s keys %v, want %v", c.block, got, c.want)
		}
	}
}

// objectKeys lists the keys of a JSON object in the order they were written.
func objectKeys(t *testing.T, raw json.RawMessage) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("%s is not an object: %v", raw, err)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var value json.RawMessage
		if err := dec.Decode(&value); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}
