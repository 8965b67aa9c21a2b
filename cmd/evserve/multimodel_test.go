package main

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"evprop"
	evclient "evprop/client"
)

// mmRainNet builds a two-variable network whose posterior P(Rain | Wet=1)
// is controlled by pRain, so different models (and different versions of
// one model) give distinguishable answers.
func mmRainNet(pRain float64) *evprop.Network {
	n := evprop.NewNetwork()
	n.MustAddVariable("Rain", 2, nil, []float64{1 - pRain, pRain})
	n.MustAddVariable("Wet", 2, []string{"Rain"}, []float64{
		0.9, 0.1,
		0.2, 0.8,
	})
	return n
}

// mmRainBIF renders mmRainNet(pRain) as a BIF document for uploads.
func mmRainBIF(t *testing.T, pRain float64) []byte {
	t.Helper()
	var b strings.Builder
	if err := mmRainNet(pRain).WriteBIF(&b, "rain", nil); err != nil {
		t.Fatal(err)
	}
	return []byte(b.String())
}

func mmOracle(t *testing.T, pRain float64) float64 {
	t.Helper()
	m, err := mmRainNet(pRain).ExactMarginal("Rain", evprop.Evidence{"Wet": 1})
	if err != nil {
		t.Fatal(err)
	}
	return m[1]
}

// TestMultiModelLifecycle drives the full model lifecycle through the Go
// client: upload → query → replace → reload → delete, plus the boot model
// staying untouched throughout.
func TestMultiModelLifecycle(t *testing.T) {
	ts, _ := testServerFull(t, evprop.Options{Workers: 2})
	c := evclient.New(ts.URL)
	ctx := context.Background()

	models, err := c.Models(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 1 || models[0].Name != testModel || models[0].State != "ready" {
		t.Fatalf("initial models %+v", models)
	}

	info, err := c.Upload(ctx, "rain", mmRainBIF(t, 0.2), true)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != "ready" || info.Version != 1 {
		t.Fatalf("uploaded model %+v", info)
	}
	q, err := c.Query(ctx, "rain", evclient.Evidence{"Wet": 1}, "Rain")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := q.Posteriors["Rain"][1], mmOracle(t, 0.2); got != want {
		t.Errorf("posterior %v, oracle %v", got, want)
	}
	if q.Model != "rain" || q.Version != 1 {
		t.Errorf("answer attribution %q v%d", q.Model, q.Version)
	}

	schema, err := c.Model(ctx, "rain")
	if err != nil {
		t.Fatal(err)
	}
	if len(schema.Variables) != 2 {
		t.Errorf("schema %+v", schema.Variables)
	}

	// Replacing the model bumps the version and changes the answer.
	if info, err = c.Upload(ctx, "rain", mmRainBIF(t, 0.7), true); err != nil {
		t.Fatal(err)
	}
	if info.Version != 2 {
		t.Errorf("replaced version %d, want 2", info.Version)
	}
	if q, err = c.Query(ctx, "rain", evclient.Evidence{"Wet": 1}, "Rain"); err != nil {
		t.Fatal(err)
	}
	if got, want := q.Posteriors["Rain"][1], mmOracle(t, 0.7); got != want {
		t.Errorf("post-replace posterior %v, oracle %v", got, want)
	}

	// Reload recompiles the retained source: version 3, same answer.
	if info, err = c.Reload(ctx, "rain", true); err != nil {
		t.Fatal(err)
	}
	if info.Version != 3 {
		t.Errorf("reloaded version %d, want 3", info.Version)
	}

	// Delete; subsequent queries 404 with the typed sentinel.
	if err := c.Delete(ctx, "rain"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(ctx, "rain", evclient.Evidence{"Wet": 1}); !errors.Is(err, evclient.ErrModelNotFound) {
		t.Errorf("post-delete error = %v, want ErrModelNotFound", err)
	}
	// The boot model never noticed any of this.
	if _, err := c.Query(ctx, testModel, evclient.Evidence{"XRay": 1}, "Lung"); err != nil {
		t.Errorf("boot model: %v", err)
	}
}

// TestErrorEnvelope is the envelope-conformance test: every failure mode
// answers the uniform JSON envelope with the table's status and code.
func TestErrorEnvelope(t *testing.T) {
	ts, srv := testServerFull(t, evprop.Options{Workers: 2})

	check := func(t *testing.T, resp *http.Response, status int, code string, wantID bool) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != status {
			t.Errorf("status %d, want %d", resp.StatusCode, status)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("Content-Type %q", ct)
		}
		var env evclient.ErrorEnvelope
		decode(t, resp, &env)
		if env.Error.Code != code {
			t.Errorf("code %q, want %q", env.Error.Code, code)
		}
		if env.Error.Message == "" {
			t.Error("empty message")
		}
		if wantID && env.Error.QueryID == "" {
			t.Error("missing query_id")
		}
		if wantID && len(env.Error.TraceID) != 32 {
			t.Errorf("trace_id %q, want 32-hex (tracing is on in testServerFull)", env.Error.TraceID)
		}
	}

	t.Run("model_not_found", func(t *testing.T) {
		resp := post(t, ts.URL+"/v1/models/nope/query", evclient.QueryRequest{})
		check(t, resp, http.StatusNotFound, "model_not_found", true)
	})
	t.Run("unknown_variable", func(t *testing.T) {
		resp := post(t, ts.URL+modelPath+"/query", evclient.QueryRequest{Query: []string{"nope"}})
		check(t, resp, http.StatusUnprocessableEntity, "unknown_variable", true)
	})
	t.Run("zero_probability_evidence", func(t *testing.T) {
		// Asia's CPTs are strictly positive, so upload a deterministic
		// two-node model and observe its impossible state.
		det := evprop.NewNetwork()
		det.MustAddVariable("Cause", 2, nil, []float64{1, 0})
		det.MustAddVariable("Effect", 2, []string{"Cause"}, []float64{1, 0, 0, 1})
		var b strings.Builder
		if err := det.WriteBIF(&b, "det", nil); err != nil {
			t.Fatal(err)
		}
		c := evclient.New(ts.URL)
		if _, err := c.Upload(context.Background(), "det", []byte(b.String()), true); err != nil {
			t.Fatal(err)
		}
		resp := post(t, ts.URL+"/v1/models/det/mpe", evclient.MPERequest{Evidence: evprop.Evidence{"Effect": 1}})
		check(t, resp, http.StatusUnprocessableEntity, "zero_probability_evidence", true)
	})
	t.Run("bad_model_name", func(t *testing.T) {
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/models/bad!name", strings.NewReader("network x {}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		check(t, resp, http.StatusUnprocessableEntity, "bad_model_name", true)
	})
	t.Run("bad_request", func(t *testing.T) {
		resp, err := http.Post(ts.URL+modelPath+"/query", "application/json", strings.NewReader("{oops"))
		if err != nil {
			t.Fatal(err)
		}
		check(t, resp, http.StatusBadRequest, "bad_request", true)
	})
	t.Run("overloaded", func(t *testing.T) {
		srv.maxInflight = 1
		srv.inflight.Add(1) // simulate one admitted request holding the slot
		defer func() { srv.maxInflight = 0; srv.inflight.Add(-1) }()
		resp := post(t, ts.URL+modelPath+"/query", evclient.QueryRequest{Evidence: evprop.Evidence{"XRay": 1}})
		check(t, resp, http.StatusTooManyRequests, "overloaded", true)
	})
	t.Run("client_decodes_envelope", func(t *testing.T) {
		c := evclient.New(ts.URL)
		_, err := c.Query(context.Background(), testModel, nil, "nope")
		if !errors.Is(err, evclient.ErrUnknownVariable) {
			t.Fatalf("client error = %v, want ErrUnknownVariable", err)
		}
		var apiErr *evclient.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnprocessableEntity || apiErr.QueryID == "" {
			t.Errorf("decoded %+v", apiErr)
		}
	})
}

// TestHotSwapRaceHTTP is the serving-layer half of the loss-free reload
// guarantee: clients hammer one model over HTTP while uploads keep
// swapping its versions between two distinguishable networks. Zero failed
// queries, and every answer bit-identical to one version's oracle.
func TestHotSwapRaceHTTP(t *testing.T) {
	ts, _ := testServerFull(t, evprop.Options{Workers: 2, CacheSize: 64})
	c := evclient.New(ts.URL)
	ctx := context.Background()
	if _, err := c.Upload(ctx, "m", mmRainBIF(t, 0.2), true); err != nil {
		t.Fatal(err)
	}
	oracleA, oracleB := mmOracle(t, 0.2), mmOracle(t, 0.7)
	docA, docB := mmRainBIF(t, 0.2), mmRainBIF(t, 0.7)

	const (
		clients   = 6
		perClient = 60
	)
	var wg sync.WaitGroup
	var queries, swaps atomic.Int64
	stop := make(chan struct{})
	errc := make(chan error, clients+1)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				q, err := c.Query(ctx, "m", evclient.Evidence{"Wet": 1}, "Rain")
				if err != nil {
					errc <- err
					return
				}
				queries.Add(1)
				if p := q.Posteriors["Rain"][1]; p != oracleA && p != oracleB {
					errc <- errors.New("posterior matches neither version's oracle")
					return
				}
			}
		}()
	}
	var swapWg sync.WaitGroup
	swapWg.Add(1)
	go func() {
		defer swapWg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			doc := docA
			if i%2 == 0 {
				doc = docB
			}
			if _, err := c.Upload(ctx, "m", doc, true); err != nil {
				errc <- err
				return
			}
			swaps.Add(1)
		}
	}()
	wg.Wait()
	close(stop)
	swapWg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if got := queries.Load(); got != clients*perClient {
		t.Fatalf("%d queries answered, want %d (lossy swap)", got, clients*perClient)
	}
	if swaps.Load() == 0 {
		t.Fatal("no version swaps happened under load")
	}
	t.Logf("queries=%d swaps=%d", queries.Load(), swaps.Load())
}

// TestPerModelCacheIsolationHTTP is the differential check over HTTP: two
// models share variable names and evidence (identical evidence
// signatures), caches on, interleaved traffic — warm cached answers must
// always match their own model's oracle.
func TestPerModelCacheIsolationHTTP(t *testing.T) {
	ts, _ := testServerFull(t, evprop.Options{Workers: 2, CacheSize: 64})
	c := evclient.New(ts.URL)
	ctx := context.Background()
	oracle := map[string]float64{}
	for name, p := range map[string]float64{"a": 0.2, "b": 0.7} {
		if _, err := c.Upload(ctx, name, mmRainBIF(t, p), true); err != nil {
			t.Fatal(err)
		}
		oracle[name] = mmOracle(t, p)
	}
	for i := 0; i < 10; i++ {
		for _, name := range []string{"a", "b"} {
			q, err := c.Query(ctx, name, evclient.Evidence{"Wet": 1}, "Rain")
			if err != nil {
				t.Fatal(err)
			}
			if got := q.Posteriors["Rain"][1]; got != oracle[name] {
				t.Fatalf("round %d: model %q posterior %v, own oracle %v (cross-model cache hit?)",
					i, name, got, oracle[name])
			}
		}
	}
	// Both models' caches were actually consulted: the isolation above was
	// proven on warm caches, not on misses.
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	hits := map[string]int64{}
	for _, row := range stats.Models {
		hits[row.Name] = row.Cache.Hits
	}
	for _, name := range []string{"a", "b"} {
		if hits[name] == 0 {
			t.Errorf("model %q: cache never hit", name)
		}
	}
}

// TestModelScopedStats: per-model counters accumulate under the model
// that served the traffic, and /v1/models/{name}/stats reports them.
func TestModelScopedStats(t *testing.T) {
	ts, _ := testServerFull(t, evprop.Options{Workers: 2, CacheSize: 16})
	c := evclient.New(ts.URL)
	ctx := context.Background()
	if _, err := c.Upload(ctx, "m", mmRainBIF(t, 0.5), true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Query(ctx, "m", evclient.Evidence{"Wet": 1}, "Rain"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Query(ctx, testModel, evclient.Evidence{"XRay": 1}, "Lung"); err != nil {
		t.Fatal(err)
	}
	var ms evclient.ModelStats
	resp, err := http.Get(ts.URL + "/v1/models/m/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	decode(t, resp, &ms)
	if ms.Queries != 3 {
		t.Errorf("model m queries %d, want 3", ms.Queries)
	}
	if ms.Propagations == 0 {
		t.Error("model m propagations 0")
	}
	// Unknown model's stats 404 through the envelope.
	resp2, err := http.Get(ts.URL + "/v1/models/ghost/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("ghost stats status %d", resp2.StatusCode)
	}
	// The global rows attribute traffic per model.
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]evclient.ModelStats{}
	for _, row := range stats.Models {
		byName[row.Name] = row
	}
	if byName["m"].Queries != 3 || byName[testModel].Queries != 1 {
		t.Errorf("per-model rows %+v", stats.Models)
	}

	// A mixed run with failures: whatever is counted is counted on one row,
	// so the rows — the catch-all included — add up to the totals. The ghost
	// 404 above and a 405 on a route that names no model resolved none; a
	// failing query and a wrong method on /v1/models/m/… are m's own.
	if _, err := c.MPE(ctx, "m", evclient.Evidence{"Wet": 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Batch(ctx, "m", []evclient.QueryRequest{{}, {Query: []string{"nope"}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(ctx, "m", nil, "nope"); !errors.Is(err, evclient.ErrUnknownVariable) {
		t.Errorf("unknown variable: %v", err)
	}
	if _, err := c.Query(ctx, "ghost", nil); !errors.Is(err, evclient.ErrModelNotFound) {
		t.Errorf("unknown model: %v", err)
	}
	for path, want := range map[string]int{"/v1/models/m/query": http.StatusMethodNotAllowed, "/v1/metrics?x=1": http.StatusOK} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != want {
			t.Errorf("GET %s: status %d, want %d", path, r.StatusCode, want)
		}
	}
	if r := post(t, ts.URL+"/v1/metrics", struct{}{}); r.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/metrics: status %d, want 405", r.StatusCode)
	}
	st := statsSnapshot(t, ts)
	checkRowsAddUp(t, st)
	m := st.row(t, "m")
	if m.Queries != 4 || m.MPEs != 1 || m.Batches != 1 || m.Errors != 2 {
		t.Errorf("model m: %d queries, %d mpes, %d batches, %d errors; want 4, 1, 1 and 2", m.Queries, m.MPEs, m.Batches, m.Errors)
	}
	if st.Unresolved.Errors != 3 || st.Totals.Errors != 5 || st.Totals.Queries != 5 {
		t.Errorf("%d errors on no model, %d errors and %d queries in all; want 3, 5 and 5",
			st.Unresolved.Errors, st.Totals.Errors, st.Totals.Queries)
	}
}

// holdCtx holds the run it is given mid-graph: the scheduler polls its
// context's Done at every task boundary, so the first poll is inside the run —
// counted in — and it and every later one wait there until released.
type holdCtx struct {
	context.Context
	polls            atomic.Int64
	entered, release chan struct{}
}

func (c *holdCtx) Done() <-chan struct{} {
	if c.polls.Add(1) == 1 {
		c.entered <- struct{}{}
	}
	<-c.release
	return nil
}

// TestNoDefaultModel: nothing on the introspection surface is read through a
// model the server is assumed to have. A server booted the -models-dir way —
// two named models, cache on — reports each model's cache, workers and run
// counters in its own row of /v1/stats, in the first /v1/stream event and
// under its own label in /v1/metrics. What no model owns is said once: one scheduler block
// for the process's two workers, whose active_runs counts the runs in flight
// over both models, inline and dispatched.
func TestNoDefaultModel(t *testing.T) {
	srv := newMultiServer(evprop.Options{Workers: 2, CacheSize: 32})
	t.Cleanup(srv.close)
	for name, net := range map[string]*evprop.Network{"wide": poolNetwork(), "rain": mmRainNet(0.3)} {
		loadModel(t, srv, name, net)
	}
	srv.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)
	// Three sights of one evidence per model: a private run, the pinned run,
	// a hit. wide's runs are dear enough to go to its two workers.
	for i := 0; i < 3; i++ {
		for path, ev := range map[string]evprop.Evidence{"wide": {"A": 1}, "rain": {"Wet": 1}} {
			if resp := post(t, ts.URL+"/v1/models/"+path+"/query", evclient.QueryRequest{Evidence: ev}); resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d", path, resp.StatusCode)
			}
		}
	}

	sc, _ := streamClient(t, ts.URL)
	event, ok := nextEvent(t, sc)
	if !ok {
		t.Fatal("no initial event")
	}
	for view, st := range map[string]statsBody{"/v1/stats": statsSnapshot(t, ts), "/v1/stream": event} {
		checkRowsAddUp(t, st)
		if len(st.Models) != 2 || st.Totals.Queries != 6 {
			t.Fatalf("%s: %d rows, %d queries; want 2 and 6", view, len(st.Models), st.Totals.Queries)
		}
		for _, row := range st.Models {
			if !row.Cache.Enabled || row.Cache.Hits != 1 || row.Cache.Capacity != 32 {
				t.Errorf("%s: model %s cache block %+v, want enabled with 1 hit", view, row.Name, row.Cache)
			}
			if row.Workers != 2 || row.Scheduler == "" || row.Propagations != 2 || row.Queries != 3 {
				t.Errorf("%s: model %s: %s/%d workers, %d propagations, %d queries", view, row.Name, row.Scheduler, row.Workers, row.Propagations, row.Queries)
			}
			if row.Window.Requests != 3 || row.Window.CacheHitRate <= 0 {
				t.Errorf("%s: model %s window %+v", view, row.Name, row.Window)
			}
		}
		if wide, rain := st.row(t, "wide"), st.row(t, "rain"); wide.PoolRuns == 0 || rain.InlineRuns != 2 {
			t.Errorf("%s: %d pool runs of wide, %d inline runs of rain", view, wide.PoolRuns, rain.InlineRuns)
		}
		if sc := st.Scheduler; sc.PoolSize != 2 || len(sc.Workers) != 2 || sc.ActiveRuns != 0 {
			t.Errorf("%s: scheduler block %+v, want two workers and nothing in flight", view, sc)
		}
	}

	// One run held mid-graph on each of two models, whichever executor each
	// took, is two in the one count. (rain is one clique: no graph to be in the
	// middle of.)
	loadModel(t, srv, "asia", evprop.Asia())
	hold := &holdCtx{Context: context.Background(), entered: make(chan struct{}), release: make(chan struct{})}
	held := make(chan error)
	for name, ev := range map[string]evprop.Evidence{"wide": {"B": 1}, "asia": {"XRay": 1}} {
		ctx := &holdCtx{Context: hold.Context, entered: hold.entered, release: hold.release}
		eng := engineOf(t, srv, name)
		go func() {
			_, err := eng.PropagateContext(ctx, ev)
			held <- err
		}()
		<-hold.entered
	}
	if sc := statsSnapshot(t, ts).Scheduler; sc.ActiveRuns != 2 {
		t.Errorf("/v1/stats: %d active runs with one held on each model, want 2", sc.ActiveRuns)
	}
	loaded := metricsBody(t, ts)
	close(hold.release)
	for i := 0; i < 2; i++ {
		if err := <-held; err != nil {
			t.Errorf("held run: %v", err)
		}
	}
	if !strings.Contains(loaded, "\nevprop_sched_active_runs 2\n") {
		t.Errorf("/v1/metrics lacks evprop_sched_active_runs 2 with one run held on each model")
	}

	body := metricsBody(t, ts)
	for _, series := range []string{
		`evprop_cache_hits_total{model="wide"} 1` + "\n", `evprop_cache_hits_total{model="rain"} 1` + "\n",
		`evprop_cache_capacity{model="wide"} 32` + "\n", `evprop_cache_entries{model="rain"} 1` + "\n",
		`evprop_workers{model="wide"} 2` + "\n", `evprop_workers{model="rain"} 2` + "\n",
		`evprop_sched_runs_total{model="rain"} 2` + "\n", `evprop_sched_pool_runs_total{model="wide"}`,
		`evprop_worker_queue_depth{worker="1"}`, "\nevprop_sched_active_runs 0\n",
		`evprop_flightrecorder_recorded_total{model="wide"} 4` + "\n",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/v1/metrics lacks %q", series)
		}
	}
	if n := strings.Count(body, "\nevprop_worker_items_total{"); n != 2 || strings.Contains(body, "evprop_worker_items_total{model=") {
		t.Errorf("/v1/metrics has %d evprop_worker_items_total series, want one per worker of the process and no model label", n)
	}
}
