package main

import (
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	"evprop"
	evclient "evprop/client"
)

// Server-level tests of the caching layer: repeated-evidence queries hit the
// engine's result cache from the third on (a result is admitted on the second
// sight of its evidence), the counters surface in /v1/stats and /v1/metrics,
// and identical /v1/batch sub-queries collapse into two propagations.

func TestQueryCacheHitCounters(t *testing.T) {
	ts, srv := testServerFull(t, evprop.Options{Workers: 2, CacheSize: 64})
	req := evclient.QueryRequest{Evidence: evprop.Evidence{"XRay": 1}, Query: []string{"Lung"}}
	var first, second, third evclient.QueryResponse
	decode(t, post(t, ts.URL+modelPath+"/query", req), &first)
	decode(t, post(t, ts.URL+modelPath+"/query", req), &second)
	decode(t, post(t, ts.URL+modelPath+"/query", req), &third)
	for _, later := range []evclient.QueryResponse{second, third} {
		if math.Float64bits(first.Posteriors["Lung"][1]) != math.Float64bits(later.Posteriors["Lung"][1]) {
			t.Errorf("posterior %v differs from the first sight's %v", later.Posteriors, first.Posteriors)
		}
	}
	cs := engineOf(t, srv, testModel).CacheStats()
	if !cs.Enabled || cs.Hits != 1 || cs.Misses != 2 || cs.FirstSight != 1 {
		t.Fatalf("CacheStats = %+v, want enabled with 1 hit, 2 misses, 1 first sight", cs)
	}
	if got := engineOf(t, srv, testModel).Stats().Propagations; got != 2 {
		t.Errorf("Propagations = %d, want 2 (third query must be a cache hit)", got)
	}

	st := statsSnapshot(t, ts).row(t, testModel)
	if !st.Cache.Enabled || st.Cache.Hits != 1 || st.Cache.FirstSight != 1 || st.Cache.Entries != 1 {
		t.Errorf("stats cache block = %+v", st.Cache)
	}
	// -cache-size 64 is four entries in each of 16 shards; one entry pins one
	// result's tables.
	if st.Cache.Capacity != 64 || st.Cache.Bytes <= 0 || st.Cache.Bytes != cs.Bytes {
		t.Errorf("stats cache capacity/bytes = %d/%d, engine says %d/%d", st.Cache.Capacity, st.Cache.Bytes, cs.Capacity, cs.Bytes)
	}
	var ms evclient.ModelStats
	mstats, err := http.Get(ts.URL + modelPath + "/stats")
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
		`evprop_cache_hits_total{model="test"} 1` + "\n",
		`evprop_cache_misses_total{model="test"} 2` + "\n",
		`evprop_cache_collapsed_total{model="test"}`,
		`evprop_cache_first_sight_total{model="test"} 1` + "\n",
		`evprop_cache_entries{model="test"} 1` + "\n",
		`evprop_cache_bytes{model="test"}`,
		`evprop_window_cache_hit_rate{model="test"}`,
	} {
		if !strings.Contains(string(body), metric) {
			t.Errorf("/v1/metrics missing %s", metric)
		}
	}
}

func TestCachedFlightRecord(t *testing.T) {
	ts, srv := testServerFull(t, evprop.Options{Workers: 2, CacheSize: 64})
	req := evclient.QueryRequest{Evidence: evprop.Evidence{"Smoke": 1}, Query: []string{"Lung"}}
	for i := 0; i < 3; i++ {
		post(t, ts.URL+modelPath+"/query", req)
	}
	recs := engineOf(t, srv, testModel).RecentQueries()
	if len(recs) != 3 {
		t.Fatalf("%d flight records, want 3", len(recs))
	}
	if recs[0].Cached || recs[1].Cached {
		t.Errorf("first-sight and second-sight (miss) records marked cached: %v %v", recs[0].Cached, recs[1].Cached)
	}
	if !recs[2].Cached {
		t.Errorf("third (hit) record not marked cached")
	}
}

// TestBatchIdenticalSubQueriesCollapse: the engine's singleflight and result
// cache are the one mechanism that collapses a batch. Eight identical
// sub-queries of a cold signature cost two propagations — the first sight's
// private run and the one that is pinned — and every view says so: the
// counters, the answers (one set of bits however each was served), the audit
// log and the batch's span tree.
func TestBatchIdenticalSubQueriesCollapse(t *testing.T) {
	const n = 8
	ts, srv := testServerFull(t, evprop.Options{Workers: 2, CacheSize: 64})
	dir := attachAudit(t, srv)

	req := evclient.BatchRequest{}
	for i := 0; i < n; i++ {
		req.Queries = append(req.Queries, evclient.QueryRequest{Evidence: evprop.Evidence{"XRay": 1, "Dysp": 0}})
	}
	before := statsSnapshot(t, ts).row(t, testModel)
	resp := post(t, ts.URL+modelPath+"/batch", req)
	var br evclient.BatchResponse
	decode(t, resp, &br)
	after := statsSnapshot(t, ts).row(t, testModel)

	if got := after.Propagations - before.Propagations; got != 2 {
		t.Errorf("propagations moved by %d, want 2", got)
	}
	if got := after.Cache.FirstSight - before.Cache.FirstSight; got != 1 {
		t.Errorf("cache.first_sight moved by %d, want 1", got)
	}
	served := (after.Cache.Hits + after.Cache.Collapsed) - (before.Cache.Hits + before.Cache.Collapsed)
	if served != n-2 {
		t.Errorf("cache.hits + cache.collapsed moved by %d, want %d", served, n-2)
	}

	if len(br.Results) != n {
		t.Fatalf("%d results, want %d", len(br.Results), n)
	}
	first := br.Results[0]
	if first.Error != "" || len(first.Posteriors) != 6 {
		t.Fatalf("sub-query 0: error %q, %d posteriors", first.Error, len(first.Posteriors))
	}
	for i, r := range br.Results[1:] {
		if r.Error != "" || math.Float64bits(r.PEvidence) != math.Float64bits(first.PEvidence) ||
			len(r.Posteriors) != len(first.Posteriors) {
			t.Fatalf("sub-query %d: error %q P(e) %v, %d posteriors; sub-query 0 has %v, %d",
				i+1, r.Error, r.PEvidence, len(r.Posteriors), first.PEvidence, len(first.Posteriors))
		}
		for name, p := range first.Posteriors {
			for k := range p {
				if math.Float64bits(r.Posteriors[name][k]) != math.Float64bits(p[k]) {
					t.Errorf("sub-query %d: %s[%d] = %v, sub-query 0 has %v", i+1, name, k, r.Posteriors[name][k], p[k])
				}
			}
		}
	}

	cached := 0
	recs := auditedRecords(t, srv, dir)
	for _, r := range recs {
		if r.Error != "" {
			t.Errorf("audit record errored: %s", r.Error)
		}
		if r.Cached {
			cached++
		}
	}
	if len(recs) != n || cached != n-2 {
		t.Errorf("%d audit records, %d cached; want %d and %d", len(recs), cached, n, n-2)
	}

	tr := fetchTrace(t, ts.URL, resp.Header.Get("X-Trace-ID"))
	spans := map[string]int{}
	for _, sp := range tr.Spans {
		spans[sp.Name]++
	}
	if spans["propagate"] != 2 || spans["batch.item"] != n {
		t.Errorf("%d propagate and %d batch.item spans, want 2 and %d (%v)", spans["propagate"], spans["batch.item"], n, spanNames(tr))
	}
}
