package main

import (
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"evprop"
)

// Server-level tests of the caching layer: repeated-evidence queries hit the
// engine's result cache, the counters surface in /v1/stats and /v1/metrics,
// and -batch-window coalesces same-evidence batch sub-queries.

func TestQueryCacheHitCounters(t *testing.T) {
	ts, srv := testServerFull(t, evprop.Options{Workers: 2, CacheSize: 64})
	req := queryRequest{Evidence: evprop.Evidence{"XRay": 1}, Query: []string{"Lung"}}
	var first, second queryResponse
	decode(t, post(t, ts.URL+"/v1/query", req), &first)
	decode(t, post(t, ts.URL+"/v1/query", req), &second)
	if first.Posteriors["Lung"][1] != second.Posteriors["Lung"][1] {
		t.Errorf("cached posterior %v differs from fresh %v", second.Posteriors, first.Posteriors)
	}
	cs := srv.defaultEngine().CacheStats()
	if !cs.Enabled || cs.Hits < 1 {
		t.Fatalf("CacheStats = %+v, want enabled with ≥1 hit", cs)
	}
	if got := srv.defaultEngine().Stats().Propagations; got != 1 {
		t.Errorf("Propagations = %d, want 1 (second query must be a cache hit)", got)
	}

	var st statsResponse
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	decode(t, resp, &st)
	if !st.Cache.Enabled || st.Cache.Hits < 1 || st.Cache.Entries != 1 {
		t.Errorf("stats cache block = %+v", st.Cache)
	}
	// -cache-size 64 is four entries in each of 16 shards; one entry pins one
	// result's tables.
	if st.Cache.Capacity != 64 || st.Cache.Bytes <= 0 || st.Cache.Bytes != cs.Bytes {
		t.Errorf("stats cache capacity/bytes = %d/%d, engine says %d/%d", st.Cache.Capacity, st.Cache.Bytes, cs.Capacity, cs.Bytes)
	}
	var ms modelStatsResponse
	mstats, err := http.Get(ts.URL + "/v1/models/default/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer mstats.Body.Close()
	decode(t, mstats, &ms)
	if ms.Cache.Bytes != cs.Bytes {
		t.Errorf("model stats cache.bytes = %d, want %d", ms.Cache.Bytes, cs.Bytes)
	}
	if st.Window.CacheHitRate <= 0 {
		t.Errorf("window cache_hit_rate = %v, want > 0", st.Window.CacheHitRate)
	}

	mresp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, _ := io.ReadAll(mresp.Body)
	for _, metric := range []string{
		"evprop_cache_hits_total",
		"evprop_cache_misses_total",
		"evprop_cache_collapsed_total",
		"evprop_cache_entries",
		"evprop_cache_bytes",
		"evprop_batch_coalesced_total",
		"evprop_window_cache_hit_rate",
	} {
		if !strings.Contains(string(body), metric) {
			t.Errorf("/v1/metrics missing %s", metric)
		}
	}
}

func TestCachedFlightRecord(t *testing.T) {
	ts, srv := testServerFull(t, evprop.Options{Workers: 2, CacheSize: 64})
	req := queryRequest{Evidence: evprop.Evidence{"Smoke": 1}, Query: []string{"Lung"}}
	post(t, ts.URL+"/v1/query", req)
	post(t, ts.URL+"/v1/query", req)
	recs := srv.defaultEngine().RecentQueries()
	if len(recs) != 2 {
		t.Fatalf("%d flight records, want 2", len(recs))
	}
	if recs[0].Cached {
		t.Errorf("first (miss) record marked cached")
	}
	if !recs[1].Cached {
		t.Errorf("second (hit) record not marked cached")
	}
}

func TestBatchWindowCoalesces(t *testing.T) {
	ts, srv := testServerFull(t, evprop.Options{Workers: 2, CacheSize: 64})
	srv.co = newCoalescer(20 * time.Millisecond)
	// Eight sub-queries, two distinct evidence signatures. The batch fans
	// the sub-queries out concurrently, so each signature's group forms
	// within the window and propagates once.
	req := batchRequest{}
	for i := 0; i < 8; i++ {
		ev := evprop.Evidence{"XRay": 1}
		if i%2 == 1 {
			ev = evprop.Evidence{"Dysp": 1}
		}
		req.Queries = append(req.Queries, queryRequest{Evidence: ev, Query: []string{"Lung"}})
	}
	var br batchResponse
	decode(t, post(t, ts.URL+"/v1/batch", req), &br)
	if len(br.Results) != 8 {
		t.Fatalf("%d results", len(br.Results))
	}
	oracleX, _ := evprop.Asia().ExactMarginal("Lung", evprop.Evidence{"XRay": 1})
	oracleD, _ := evprop.Asia().ExactMarginal("Lung", evprop.Evidence{"Dysp": 1})
	for i, r := range br.Results {
		if r.Error != "" {
			t.Fatalf("sub-query %d: %s", i, r.Error)
		}
		oracle := oracleX
		if i%2 == 1 {
			oracle = oracleD
		}
		if math.Abs(r.Posteriors["Lung"][1]-oracle[1]) > 1e-9 {
			t.Errorf("sub-query %d posterior %v, oracle %v", i, r.Posteriors["Lung"], oracle)
		}
	}
	if got := srv.defaultEngine().Stats().Propagations; got != 2 {
		t.Errorf("Propagations = %d, want 2 (one per distinct evidence)", got)
	}
	if got := srv.co.coalesced.Load(); got != 6 {
		t.Errorf("coalesced = %d, want 6", got)
	}
}

func TestBatchWindowProjection(t *testing.T) {
	ts, srv := testServerFull(t, evprop.Options{Workers: 2, CacheSize: 64})
	srv.co = newCoalescer(5 * time.Millisecond)
	req := batchRequest{Queries: []queryRequest{
		// Evidence variable requested → exact one-hot.
		{Evidence: evprop.Evidence{"XRay": 1}, Query: []string{"XRay", "Lung"}},
		// Empty query → every non-evidence posterior.
		{Evidence: evprop.Evidence{"XRay": 1}},
		// Unknown variable → in-place error, siblings unaffected.
		{Evidence: evprop.Evidence{"XRay": 1}, Query: []string{"Nope"}},
	}}
	var br batchResponse
	decode(t, post(t, ts.URL+"/v1/batch", req), &br)
	if got := br.Results[0].Posteriors["XRay"]; len(got) != 2 || got[1] != 1 || got[0] != 0 {
		t.Errorf("evidence one-hot = %v", got)
	}
	if _, ok := br.Results[0].Posteriors["Lung"]; !ok {
		t.Errorf("requested posterior missing: %v", br.Results[0].Posteriors)
	}
	if n := len(br.Results[1].Posteriors); n != 7 {
		t.Errorf("empty query returned %d posteriors, want 7", n)
	}
	if !strings.Contains(br.Results[2].Error, "Nope") {
		t.Errorf("unknown-variable error = %q", br.Results[2].Error)
	}
}

// TestBatchWindowLeaderCancelServesRiders is the server-side analogue of the
// engine's singleflight guarantee: a leader whose client vanishes must not
// void the riders that joined its window.
func TestBatchWindowRunDetachedFromLeader(t *testing.T) {
	ts, srv := testServerFull(t, evprop.Options{Workers: 2, CacheSize: 64})
	srv.co = newCoalescer(10 * time.Millisecond)
	// A plain batch of identical sub-queries: the leader's own request
	// context is the batch request's context, shared by all riders, so this
	// exercises the detach only lightly — the deterministic cancellation
	// test lives at the engine layer (TestSingleflightStormOneWaiterCancels).
	req := batchRequest{Queries: []queryRequest{
		{Evidence: evprop.Evidence{"Smoke": 1}, Query: []string{"Lung"}},
		{Evidence: evprop.Evidence{"Smoke": 1}, Query: []string{"Bronc"}},
		{Evidence: evprop.Evidence{"Smoke": 1}},
	}}
	var br batchResponse
	decode(t, post(t, ts.URL+"/v1/batch", req), &br)
	for i, r := range br.Results {
		if r.Error != "" {
			t.Fatalf("sub-query %d: %s", i, r.Error)
		}
	}
	if got := srv.defaultEngine().Stats().Propagations; got != 1 {
		t.Errorf("Propagations = %d, want 1", got)
	}
}
