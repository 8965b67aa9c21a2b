package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"time"

	evclient "evprop/client"
)

// runTraced is the workload's second run: the traced queries walk every
// layer in-process, then a second evserve instance, started with -pprof,
// answers them over HTTP with caller-flagged traceparents. The end-to-end
// run has none of this on.
func (e *env) runTraced(res *workloadResult) error {
	ls := layerSet{}
	log := &spanLog{t0: time.Now(), spans: make([]span, 0, 1<<14)}
	n := e.w.traceQueries
	if e.plan.traceQueries > 0 {
		n = e.plan.traceQueries
	}
	stream := newStream(e.w, e.oracle.s, e.seed, 0)
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = stream.next()
	}
	c, err := e.traceSetUp(ls, log)
	if err != nil {
		return err
	}
	if err := e.traceEngine(ls, log, c, reqs); err != nil {
		return err
	}
	srv, err := e.start("-pprof")
	if err != nil {
		return err
	}
	if err := e.traceServer(ls, log, srv, reqs, &res.tally); err != nil {
		return err
	}
	srv.stop()
	res.PerLayer = ls
	res.Spans = log.spans
	return nil
}

// modelStats is the part of GET /v1/models/{name}/stats the traced run reads.
type modelStats struct {
	Propagations   int64   `json:"propagations"`
	Observed       int64   `json:"observed"`
	AvgLatencyUsec float64 `json:"avg_latency_usec"`
	Cache          struct {
		Entries int   `json:"entries"`
		Hits    int64 `json:"hits"`
		Misses  int64 `json:"misses"`
	} `json:"cache"`
}

func (e *env) modelStats(srv *server) (modelStats, error) {
	var ms modelStats
	raw, err := srv.client.Raw(e.ctx, "/v1/models/"+e.w.model+"/stats")
	if err == nil {
		err = json.Unmarshal(raw, &ms)
	}
	return ms, err
}

// heapCounters are the runtime.MemStats lines at the end of
// /debug/pprof/heap?debug=1, the only allocation counters evserve exposes.
type heapCounters struct{ mallocs, totalAlloc, numGC float64 }

var heapLineRe = regexp.MustCompile(`(?m)^# (Mallocs|TotalAlloc|NumGC) = (\d+)$`)

func (e *env) heapCounters(srv *server) (heapCounters, error) {
	var hc heapCounters
	req, err := http.NewRequestWithContext(e.ctx, http.MethodGet, srv.base+"/debug/pprof/heap?debug=1", nil)
	if err != nil {
		return hc, err
	}
	resp, err := srv.httpc.Do(req)
	if err != nil {
		return hc, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return hc, err
	}
	found := 0
	for _, m := range heapLineRe.FindAllSubmatch(body, -1) {
		v, _ := strconv.ParseFloat(string(m[2]), 64) // the pattern admits digits only
		switch string(m[1]) {
		case "Mallocs":
			hc.mallocs = v
		case "TotalAlloc":
			hc.totalAlloc = v
		case "NumGC":
			hc.numGC = v
		}
		found++
	}
	if found != 3 {
		return hc, fmt.Errorf("heap profile of %s carries %d of 3 MemStats counters", srv.base, found)
	}
	return hc, nil
}

// traceServer measures evserve from outside, since it is package main: the
// round trip, the server's own latency histogram, its kept span trees, its
// allocation counters, and its cache counters under two clients.
func (e *env) traceServer(ls layerSet, log *spanLog, srv *server, reqs []request, t *tally) error {
	n := float64(len(reqs))
	model := e.w.model
	rss0, err := srv.memMB("VmRSS")
	if err != nil {
		return err
	}

	// The floor: what any request costs over this loopback, handler aside.
	for i := 0; i < 200; i++ {
		if err := log.time("evserve.http_floor", i, func() error {
			_, err := srv.client.Raw(e.ctx, "/v1/healthz")
			return err
		}); err != nil {
			return err
		}
	}
	ls.put("evserve.http_floor_us", log.median("evserve.http_floor"), "us")

	// Warm-up on a lane of its own: a repeating workload fills the cache,
	// a never-repeating one must not see the traced queries beforehand.
	warm := e.newSender(srv)
	for range reqs {
		warm.do()
	}

	// Pass A: the traced queries, flagged so tail sampling keeps each trace.
	before, err := e.modelStats(srv)
	if err != nil {
		return err
	}
	reqBytes0, respBytes0 := srv.bytes.reqBytes.Load(), srv.bytes.respBytes.Load()
	flagged := &sender{e: e, srv: srv, verifier: verifier{o: e.oracle}}
	traceIDs := make([]string, len(reqs))
	answers := make([]answer, len(reqs))
	for q, r := range reqs {
		tp, id := evclient.NewTraceparent(true)
		traceIDs[q] = id
		ctx := evclient.WithTraceparent(e.ctx, tp)
		err := log.time("evserve.request", q, func() (err error) {
			answers[q], err = issue(ctx, srv.client, model, r)
			return err
		})
		flagged.sent++
		if err != nil || !e.oracle.shapeOK(r, answers[q]) {
			return fmt.Errorf("traced request %d (%s) failed: %v", q, r, err)
		}
		flagged.keep(q, r, answers[q])
	}
	after, err := e.modelStats(srv)
	if err != nil {
		return err
	}
	if after.Observed-before.Observed != int64(len(reqs)) {
		return fmt.Errorf("server histogram grew by %d over %d traced requests", after.Observed-before.Observed, len(reqs))
	}
	// Means, not medians: a budget of means closes exactly.
	request := mean(log.durations("evserve.request"))
	serverSide := (after.AvgLatencyUsec*float64(after.Observed) - before.AvgLatencyUsec*float64(before.Observed)) / n
	ls.put("evserve.request_us", request, "us")
	ls.put("evserve.server_side_us", serverSide, "us")
	ls.put("evserve.envelope_us", request-serverSide, "us")
	ls.put("evserve.request_bytes", float64(srv.bytes.reqBytes.Load()-reqBytes0)/n, "B")
	ls.put("evserve.response_bytes", float64(srv.bytes.respBytes.Load()-respBytes0)/n, "B")

	sums, err := e.serverSpans(srv, traceIDs)
	if err != nil {
		return err
	}
	accounted := 0.0
	for _, name := range []string{"cache.lookup", "absorb", "propagate", "collect"} {
		ls.put("evserve.span_"+strings.ReplaceAll(name, ".", "_")+"_us", sums[name]/n, "us")
		accounted += sums[name]
	}
	ls.put("evserve.span_root_us", sums["root"]/n, "us")
	ls.put("evserve.span_unaccounted_us", (sums["root"]-accounted)/n, "us")

	// The client library alone: the same calls against a canned response.
	if err := traceClient(e.ctx, ls, log, model, reqs, answers); err != nil {
		return err
	}

	// Pass B: fresh queries with nothing fetched in between, inside two heap
	// snapshots. A third snapshot prices the snapshot itself.
	h0, err := e.heapCounters(srv)
	if err != nil {
		return err
	}
	h1, err := e.heapCounters(srv)
	if err != nil {
		return err
	}
	plain := e.newSender(srv)
	for range reqs {
		if _, ok := plain.do(); !ok {
			return fmt.Errorf("untraced request failed")
		}
	}
	h2, err := e.heapCounters(srv)
	if err != nil {
		return err
	}
	afterB, err := e.modelStats(srv)
	if err != nil {
		return err
	}
	ls.put("evserve.allocs_per_query", ((h2.mallocs-h1.mallocs)-(h1.mallocs-h0.mallocs))/n, "count")
	ls.put("evserve.alloc_kb_per_query", ((h2.totalAlloc-h1.totalAlloc)-(h1.totalAlloc-h0.totalAlloc))/n/1024, "kB")
	ls.put("evserve.gc_cycles_per_kquery", (h2.numGC-h1.numGC)/n*1000, "count")
	ls.put("evserve.propagations_per_query", float64(afterB.Propagations-after.Propagations)/n, "count")

	// Two clients, closed loop: the cache's hit ratio from the server's own
	// counters, then the open loop's send delays.
	_, duo, _ := e.closedSlice(srv, 2, 3*e.plan.slice)
	afterDuo, err := e.modelStats(srv)
	if err != nil {
		return err
	}
	hits := float64(afterDuo.Cache.Hits - afterB.Cache.Hits)
	ls.put("cache.hit_ratio", hits/(hits+float64(afterDuo.Cache.Misses-afterB.Cache.Misses)), "ratio")

	samples, paced := e.pacedSlice(srv, 6*e.plan.slice)
	late := lateUs(samples)
	ls.put("loadgen.late_p50_us", percentile(late, 50), "us")
	ls.put("loadgen.late_p99_us", percentile(late, 99), "us")
	ls.put("loadgen.late_share", lateShare(late), "ratio")
	ls.put("loadgen.paced_p90_ms", percentile(latenciesMs(samples), 90), "ms")

	rss1, err := srv.memMB("VmRSS")
	if err != nil {
		return err
	}
	ls.put("cache.rss_mb_per_entry", (rss1-rss0)/float64(max(afterDuo.Cache.Entries, 1)), "MB")

	t.add("traced", warm, flagged, plain)
	t.add("traced", duo...)
	t.add("traced", paced...)
	return nil
}

// serverSpans fetches the kept traces and totals span durations by name: the
// request's root span under "root", its direct children under their own.
func (e *env) serverSpans(srv *server, traceIDs []string) (map[string]float64, error) {
	sums := map[string]float64{}
	for _, id := range traceIDs {
		tr, err := srv.client.Trace(e.ctx, id)
		if err != nil {
			return nil, fmt.Errorf("fetch trace %s: %w", id, err)
		}
		root := ""
		for _, sp := range tr.Spans {
			if strings.HasPrefix(sp.Name, "/v1/") {
				root = sp.SpanID
				sums["root"] += sp.DurationUsec
			}
		}
		for _, sp := range tr.Spans {
			if sp.ParentSpanID == root {
				sums[sp.Name] += sp.DurationUsec
			}
		}
	}
	return sums, nil
}

// cannedTransport answers every request with one prepared body and notes
// when the client handed the request over and when it got the response
// back, which splits a client call into its encode and decode halves.
type cannedTransport struct {
	body              []byte
	entered, returned time.Time
}

func (t *cannedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.entered = time.Now()
	if req.Body != nil {
		req.Body.Close()
	}
	resp := &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {"application/json"}},
		Body:       io.NopCloser(bytes.NewReader(t.body)),
		Request:    req,
	}
	t.returned = time.Now()
	return resp, nil
}

// traceClient times evprop/client's request encoding and response decoding
// with the network and the server replaced by the answer already received.
func traceClient(ctx context.Context, ls layerSet, log *spanLog, model string, reqs []request, answers []answer) error {
	canned := &cannedTransport{}
	c := evclient.New("http://canned.invalid", evclient.WithHTTPClient(&http.Client{Transport: canned}))
	for q, r := range reqs {
		var err error
		if r.mpe {
			canned.body, err = json.Marshal(answers[q].mpe)
		} else {
			canned.body, err = json.Marshal(answers[q].query)
		}
		if err != nil {
			return err
		}
		start := time.Now()
		if _, err := issue(ctx, c, model, r); err != nil {
			return fmt.Errorf("client against canned response: %w", err)
		}
		end := time.Now()
		log.add("client.encode", q, start, canned.entered.Sub(start))
		log.add("client.decode", q, canned.returned, end.Sub(canned.returned))
	}
	ls.put("client.encode_us", log.median("client.encode"), "us")
	ls.put("client.decode_us", log.median("client.decode"), "us")
	return nil
}
