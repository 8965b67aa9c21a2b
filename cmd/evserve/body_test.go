package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"evprop"
	evclient "evprop/client"
)

// FuzzQueryBody holds readJSON to encoding/json: a body the one-pass parser
// accepts decodes to what json.Decoder makes of it, and readJSON accepts a
// body — with the decoder's value — exactly when the decoder does, answering
// the decoder's error otherwise.
func FuzzQueryBody(f *testing.F) {
	for _, body := range []string{
		`{"evidence":{"XRay":1},"query":["Lung"]}`,
		"{\"evidence\":{\"A\":0,\"B\":1}}\n",
		" { \"evidence\" : { } ,\t\"query\" : [ ] }\r\n",
		`{"query":["Lung","Tub"],"evidence":{"XRay":-0,"Smoke":123456789012345678}}`,
		`{"queries":[{"evidence":{"XRay":1}},{"evidence":{},"query":["Lung","Tub"]}]}`,
		`{"queries":[]}`,
		`{}`,
		`{"evidence":{"XRay":1.0}}`,
		`{"evidence":{"XRay":1e0}}`,
		`{"evidence":{"XRay":01}}`,
		`{"evidence":{"XRay":1234567890123456789012}}`,
		`{"evidence":{"X\u0052ay":1}}`,
		`{"evidence":{"Xé":1}}`,
		`{"Evidence":{"XRay":1}}`,
		`{"evidence":null,"query":null}`,
		`{"evidence":{"A":1,"A":0}}`,
		`{"evidence":{"A":1},"evidence":{"B":1}}`,
		`{"evidence":{"A":1},"other":2}`,
		`{"evidence":{"A":1}} {"evidence":{}}`,
		`{"evidence":{"A":1}`,
		``,
		`[]`,
	} {
		f.Add([]byte(body))
	}
	srv := newMultiServer(evprop.Options{})
	logTo(f, srv, "text", io.Discard)
	f.Fuzz(func(t *testing.T, body []byte) {
		readLikeDecoder[evclient.QueryRequest](t, srv, body)
		readLikeDecoder[evclient.MPERequest](t, srv, body)
		readLikeDecoder[evclient.BatchRequest](t, srv, body)
	})
}

// readLikeDecoder is FuzzQueryBody's check of one body as a T.
func readLikeDecoder[T any](t *testing.T, srv *server, body []byte) {
	var want T
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	if got := new(T); (&scratch{b: body}).parse(got) {
		if wantErr != nil {
			t.Fatalf("%T: parsed %q, which encoding/json refuses: %v", got, body, wantErr)
		}
		if !reflect.DeepEqual(*got, want) {
			t.Fatalf("%T: %q parses to %+v, encoding/json decodes %+v", got, body, *got, want)
		}
	}
	rec := httptest.NewRecorder()
	got, ok := readJSON[T](srv, rec, httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)))
	if ok != (wantErr == nil) {
		t.Fatalf("%T: readJSON says %v on %q, encoding/json %v", got, ok, body, wantErr)
	}
	if ok && !reflect.DeepEqual(got, want) {
		t.Fatalf("%T: readJSON read %q as %+v, encoding/json %+v", got, body, got, want)
	}
	if !ok {
		var env evclient.ErrorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != http.StatusBadRequest ||
			env.Error.Code != "bad_request" || env.Error.Message != "invalid JSON: "+wantErr.Error() {
			t.Fatalf("%T: %q answered %d %s, want 400 for %v", got, body, rec.Code, rec.Body.Bytes(), wantErr)
		}
	}
}

// FuzzQueryResponse holds the answer appender to json.Encoder.Encode, byte for
// byte, over fuzzer-chosen names — non-ASCII, invalid UTF-8, <>&, U+2028,
// control characters — and float64 bit patterns, and makes it refuse what the
// encoder refuses: NaN and the infinities.
func FuzzQueryResponse(f *testing.F) {
	bits := math.Float64bits
	for _, seed := range []struct {
		a, b  string
		x, y  uint64
		state int
		model string
		ver   int64
	}{
		{"Lung", "Tub", bits(0.4887114), bits(0.11029004), 1, "asia", 3},
		{"<b>&amp;", "line\u2028para\u2029", bits(1e-6), bits(math.Nextafter(1e-6, 0)), -2, "m\x00", 0},
		{"\xff\xfe", "\t\n\r\b\f\x01\x1f\x7f", bits(1e21), bits(math.Nextafter(1e21, 0)), 0, "\"quoted\\\"", -1},
		{"é", "日本", 1, bits(math.SmallestNonzeroFloat64 * 3), 7, "ü", 1 << 40},
		{"", "neg", bits(-0.0), bits(-1e-7), 1, "", 0},
		{"nan", "inf", bits(math.NaN()), bits(math.Inf(-1)), 0, "m", 1},
		{"max", "big", bits(math.MaxFloat64), bits(123456789e20), 0, "m", 1},
	} {
		f.Add(seed.a, seed.b, seed.x, seed.y, seed.state, seed.model, seed.ver)
	}
	f.Fuzz(func(t *testing.T, a, b string, x, y uint64, state int, model string, version int64) {
		p, q := math.Float64frombits(x), math.Float64frombits(y)
		post := map[string][]float64{a: {p, q}, b: {q}}
		answers := []any{
			evclient.QueryResponse{PEvidence: p, Posteriors: post, Model: model, Version: version},
			evclient.QueryResponse{PEvidence: q, Posteriors: map[string][]float64{a: nil, b: {}}},
			evclient.QueryResponse{},
			evclient.MPEResponse{Assignment: map[string]int{a: state, b: -state}, Probability: q, Model: model, Version: version},
			evclient.MPEResponse{},
		}
		for _, v := range answers {
			var want bytes.Buffer
			wantErr := json.NewEncoder(&want).Encode(v)
			sc := &scratch{}
			var ok bool
			switch r := v.(type) {
			case evclient.QueryResponse:
				ok = sc.appendQuery(&r)
			case evclient.MPEResponse:
				ok = sc.appendMPE(&r)
			}
			if ok != (wantErr == nil) {
				t.Fatalf("%T: appended %v, encoding/json: %v", v, ok, wantErr)
			} else if ok && !bytes.Equal(sc.b, want.Bytes()) {
				t.Fatalf("%#v:\nappended %q\nencoder  %q", v, sc.b, want.Bytes())
			}
		}
	})
}

// TestAppendedFieldsPinned: the appender writes the members it knows of, so a
// field added to an answer it writes must fail here, not vanish from the wire.
func TestAppendedFieldsPinned(t *testing.T) {
	for _, tc := range []struct {
		v    any
		tags []string // what appendQuery or appendMPE writes, in order
	}{
		{evclient.QueryResponse{}, []string{"p_evidence", "posteriors", "model,omitempty", "version,omitempty"}},
		{evclient.MPEResponse{}, []string{"assignment", "probability", "model,omitempty", "version,omitempty"}},
	} {
		typ := reflect.TypeOf(tc.v)
		var tags []string
		for i := range typ.NumField() {
			tags = append(tags, typ.Field(i).Tag.Get("json"))
		}
		if !slices.Equal(tags, tc.tags) {
			t.Errorf("%s has json tags %q, the appender writes %q", typ, tags, tc.tags)
		}
	}
}

// endless is a body that never ends: after its head, the byte fill forever.
type endless struct {
	head []byte
	fill byte
	read int
}

func (e *endless) Read(p []byte) (int, error) {
	n := copy(p, e.head)
	e.head = e.head[n:]
	for i := n; i < len(p); i++ {
		p[i] = e.fill
	}
	e.read += len(p)
	return len(p), nil
}

// TestReadJSONLargeBody: readJSON buffers at most maxPooledBody bytes and
// streams the rest of a longer body through json.Decoder, so garbage is
// refused after what the decoder reads, and a long body that is well formed
// decodes as encoding/json decodes it.
func TestReadJSONLargeBody(t *testing.T) {
	srv := newMultiServer(evprop.Options{})
	logTo(t, srv, "text", io.Discard)

	garbage := &endless{head: []byte(`{"evidence":`), fill: '!'}
	rec := httptest.NewRecorder()
	if _, ok := readJSON[evclient.QueryRequest](srv, rec, httptest.NewRequest(http.MethodPost, "/", garbage)); ok || rec.Code != http.StatusBadRequest {
		t.Fatalf("endless garbage answered %d %s", rec.Code, rec.Body.Bytes())
	}
	if garbage.read > 2*maxPooledBody {
		t.Errorf("read %d bytes of garbage before refusing it, want ≤ %d", garbage.read, 2*maxPooledBody)
	}

	long := []byte(`{"evidence":{"XRay":1},"query":[`)
	for len(long) <= 2*maxPooledBody {
		long = append(long, `"Lung",`...)
	}
	long = append(long, `"Tub"]}`...)
	var want evclient.QueryRequest
	if err := json.Unmarshal(long, &want); err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	if got, ok := readJSON[evclient.QueryRequest](srv, rec, httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(long))); !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("a %d-byte query answered %d %s", len(long), rec.Code, rec.Body.Bytes())
	}
}

// pathCase is one row of the query-path measurements: a model, the query
// bodies sent to it, and whether the server traces.
type pathCase struct {
	name                      string
	nodes, parents            int
	observed, targets, bodies int
	traced                    bool
}

// serveQueryPath serves c's model with what main configures — the access log
// as text, here to io.Discard, and, when c is traced, the -trace tracer at
// its default sample rate — and returns the mux and c.bodies query bodies,
// each as the load generator's client writes it.
func serveQueryPath(tb testing.TB, c pathCase) (http.Handler, [][]byte) {
	net := evprop.RandomNetwork(c.nodes, 2, c.parents, 7)
	srv := newTestServer(tb, net, evprop.Options{Workers: 2, CacheSize: 32})
	logTo(tb, srv, "text", io.Discard)
	if c.traced {
		srv.tracer = newTracer(0.01, "")
	}
	rng := rand.New(rand.NewSource(1))
	vars := net.Variables()
	bodies := make([][]byte, c.bodies)
	for i := range bodies {
		perm := rng.Perm(len(vars))
		req := evclient.QueryRequest{Evidence: evclient.Evidence{}}
		for _, v := range perm[:c.observed] {
			req.Evidence[vars[v]] = rng.Intn(2)
		}
		for _, v := range perm[c.observed : c.observed+c.targets] {
			req.Query = append(req.Query, vars[v])
		}
		var err error
		if bodies[i], err = json.Marshal(req); err != nil {
			tb.Fatal(err)
		}
	}
	return srv.mux(), bodies
}

// postQuery posts one query body to h.
func postQuery(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, modelPath+"/query", bytes.NewReader(body)))
	return rec
}

// TestQueryPathAllocs pins the allocations of the HTTP query path, without a
// clock and without a listener: everything a request costs between the
// server's mux and its answer, access-log line included, less what building
// the request and its recorder costs. The small40 rows are the small-hit
// workload's request, a cached answer with three posteriors; the mid60 rows
// are mid-dense's, 30 of 60 variables observed, every other posterior
// returned, over never-repeating evidence — a first sight, so a private run.
// The traced rows run the tracer evserve runs by default. Each body decoded is
// the one the load generator sends, and each answer is byte for byte
// json.Encoder's. TestInlinePathAllocsPinned in the root package pins the
// engine's share. A count moves by one with when the pools were last emptied,
// and a traced one with the traces head sampling keeps: each is pinned at its
// higher reading (with slog writing the access log and the request's values
// in three context.WithValue, the untraced two read 45 and 114).
func TestQueryPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled buffers at random under the race detector")
	}
	for _, tc := range []struct {
		pathCase
		pinned float64
	}{
		{pathCase{"small40 hit", 40, 3, 4, 3, 1, false}, 19},
		{pathCase{"mid60 30 observed", 60, 4, 30, 0, 256, false}, 74},
		{pathCase{"small40 hit traced", 40, 3, 4, 3, 1, true}, 20},
		{pathCase{"mid60 30 observed traced", 60, 4, 30, 0, 256, true}, 80},
	} {
		h, bodies := serveQueryPath(t, tc.pathCase)
		next := 0
		serve := func(h http.Handler) func() {
			return func() {
				rec := postQuery(h, bodies[next%len(bodies)])
				next++
				if rec.Code != http.StatusOK {
					t.Fatalf("%s: status %d: %s", tc.name, rec.Code, rec.Body.Bytes())
				}
			}
		}
		// Warm the pools and, for the hit, admit the evidence.
		for i := 0; i < 8; i++ {
			rec := postQuery(h, bodies[i%len(bodies)])
			var answer evclient.QueryResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &answer); err != nil || rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", tc.name, rec.Code, rec.Body.Bytes())
			}
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(answer); err != nil || !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
				t.Fatalf("%s: answered %q, json.Encoder writes %q", tc.name, rec.Body.Bytes(), want.Bytes())
			}
		}
		harness := testing.AllocsPerRun(200, serve(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})))
		allocs := testing.AllocsPerRun(200, serve(h)) - harness
		t.Logf("%s: %.1f allocations per request beyond the harness's %.1f", tc.name, allocs, harness)
		if allocs > tc.pinned {
			t.Errorf("%s: %.1f allocations per request, pinned at %.0f", tc.name, allocs, tc.pinned)
		}
	}
}

// BenchmarkQueryPath is the query path of TestQueryPathAllocs under the
// clock, traced as evserve traces by default, with its access log written to
// io.Discard: a hit on small40 (the small-hit workload's request) and misses
// on it (small-miss's, four of 40 variables observed, evidence that does not
// repeat within 65 536 requests). make bench-envelope profiles it.
func BenchmarkQueryPath(b *testing.B) {
	for _, c := range []pathCase{
		{"hit", 40, 3, 4, 3, 1, true},
		{"miss", 40, 3, 4, 3, 1 << 16, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			h, bodies := serveQueryPath(b, c)
			if c.bodies == 1 {
				// Admit the evidence: its second sight is pinned.
				postQuery(h, bodies[0])
				postQuery(h, bodies[0])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := range b.N {
				if rec := postQuery(h, bodies[i%len(bodies)]); rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
				}
			}
		})
	}
}

// TestBatchFanOutBounded: a batch's items run on at most -workers goroutines,
// however many it has — admission counts a batch as one request — and the
// answers come back in item order.
func TestBatchFanOutBounded(t *testing.T) {
	const workers, items = 2, 3000
	srv := newTestServer(t, evprop.Asia(), evprop.Options{Workers: workers})
	logTo(t, srv, "text", io.Discard)
	eng := engineOf(t, srv, testModel)
	vars := evprop.Asia().Variables()
	req := evclient.BatchRequest{Queries: make([]evclient.QueryRequest, items)}
	for i := range req.Queries {
		ev := evprop.Evidence{}
		for k, v := range vars[:4] {
			ev[v] = (i >> k) & 1
		}
		req.Queries[i] = evclient.QueryRequest{Evidence: ev, Query: vars[4+i%4 : 5+i%4]}
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	h := srv.mux()
	baseline := runtime.NumGoroutine()
	var done atomic.Bool
	rec := httptest.NewRecorder()
	go func() {
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, modelPath+"/batch", bytes.NewReader(body)))
		done.Store(true)
	}()
	peak := 0
	for !done.Load() {
		peak = max(peak, runtime.NumGoroutine()-baseline)
		runtime.Gosched()
	}
	// The handler's own goroutine, and the batch's.
	if peak > 1+workers {
		t.Errorf("%d goroutines beyond the test's during a %d-item batch at %d workers", peak, items, workers)
	}
	var resp evclient.BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || len(resp.Results) != items {
		t.Fatalf("status %d, %d results: %v", rec.Code, len(resp.Results), err)
	}
	for i, q := range req.Queries {
		pe, err := eng.ProbabilityOfEvidence(q.Evidence)
		if got := resp.Results[i]; err != nil || got.Error != "" || math.Float64bits(got.PEvidence) != math.Float64bits(pe) ||
			len(got.Posteriors) != 1 || got.Posteriors[q.Query[0]] == nil {
			t.Fatalf("item %d answered %+v, want P(e) %v (%v) and the posterior of %s", i, got, pe, err, q.Query[0])
		}
	}
}
