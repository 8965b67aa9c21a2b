package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"evprop"
	evclient "evprop/client"
	"evprop/internal/obs"
	"evprop/internal/registry"
)

// streamClient opens GET /v1/stream and hands back a scanner positioned on
// the event stream plus the response for cleanup.
func streamClient(t *testing.T, url string) (*bufio.Scanner, *http.Response) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url+"/v1/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	return bufio.NewScanner(resp.Body), resp
}

// nextEvent reads SSE lines until one complete event (id + data + blank) has
// been consumed, returning the decoded data payload.
func nextEvent(t *testing.T, sc *bufio.Scanner) (statsBody, bool) {
	t.Helper()
	var snap statsBody
	sawData := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(line[len("data: "):]), &snap); err != nil {
				t.Fatalf("bad data line %q: %v", line, err)
			}
			sawData = true
		case line == "" && sawData:
			return snap, true
		}
	}
	return snap, false
}

// TestStreamDeliversSnapshots subscribes to /v1/stream on a fast sampler and
// checks that consecutive events carry coherent, advancing snapshots.
func TestStreamDeliversSnapshots(t *testing.T) {
	ts, srv := testServerNet(t, poolNetwork(), evprop.Options{Workers: 2})
	srv.sampler = obs.NewSampler(5*time.Millisecond, 1, srv.statsNow)
	srv.sampler.Start()
	t.Cleanup(srv.beginDrain)

	// Traffic before subscribing so counters are non-trivial, on a model
	// whose runs go to the pool: the worker gauges exist once one has.
	post(t, ts.URL+modelPath+"/query", evclient.QueryRequest{Evidence: evprop.Evidence{"A": 1}})

	sc, _ := streamClient(t, ts.URL)
	first, ok := nextEvent(t, sc)
	if !ok {
		t.Fatal("no initial event")
	}
	if row := first.row(t, testModel); row.Scheduler == "" || row.Workers != 2 {
		t.Errorf("initial snapshot scheduler %q workers %d", row.Scheduler, row.Workers)
	}
	// The initial event may predate the query by one sampling interval, so
	// follow the stream until the propagation shows up — and with it the
	// pool's workers, which exist from the first dispatched run on.
	snap, prev := first, first
	for i := 0; snap.Totals.Propagations < 1; i++ {
		if i == 20 {
			t.Fatalf("propagations still %d after %d events", snap.Totals.Propagations, i)
		}
		next, ok := nextEvent(t, sc)
		if !ok {
			t.Fatal("stream ended early")
		}
		if next.Time.Before(prev.Time) {
			t.Errorf("snapshots went back in time: %v then %v", prev.Time, next.Time)
		}
		prev, snap = next, next
	}
	checkRowsAddUp(t, snap)
	if row := snap.row(t, testModel); len(snap.Scheduler.Workers) != 2 || row.Queries != 1 {
		t.Errorf("event has %d workers and %d queries, want 2 and 1", len(snap.Scheduler.Workers), row.Queries)
	}
}

// TestStreamClosesOnDrain is the satellite drain assertion: an open stream
// subscription must end cleanly (EOF, not a hang) as soon as drain begins.
func TestStreamClosesOnDrain(t *testing.T) {
	ts, srv := testServerFull(t, evprop.Options{Workers: 2})
	srv.sampler.Start()

	sc, resp := streamClient(t, ts.URL)
	if _, ok := nextEvent(t, sc); !ok {
		t.Fatal("no initial event")
	}

	closed := make(chan struct{})
	go func() {
		defer close(closed)
		// Drain the remaining body; a clean server-side close ends Scan.
		for sc.Scan() {
		}
	}()
	srv.beginDrain()
	select {
	case <-closed:
	case <-time.After(3 * time.Second):
		t.Fatal("stream still open 3s after drain began")
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Errorf("stream did not close cleanly: %v", err)
	}
}

// TestServeShutdownClosesStream exercises the real wiring: http.Server
// Shutdown (as SIGINT triggers it) must run beginDrain via the registered
// hook, unblock the live stream handler, and let serve return promptly.
func TestServeShutdownClosesStream(t *testing.T) {
	srv := newTestServer(t, evprop.Asia(), evprop.Options{Workers: 2})
	logTo(t, srv, "text", io.Discard)
	srv.sampler.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve(ctx, ln, srv, srv.log) }()
	url := "http://" + ln.Addr().String()

	sc, _ := streamClient(t, url)
	if _, ok := nextEvent(t, sc); !ok {
		t.Fatal("no initial event")
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not return: open stream pinned the drain")
	}
	select {
	case <-srv.drain:
	default:
		t.Error("drain channel not closed by Shutdown hook")
	}
	srv.close()
}

// TestHealthzReadyz covers the probe pair across the server lifecycle:
// healthz always 200 with build info, readyz 503 → 200 → 503 around drain.
func TestHealthzReadyz(t *testing.T) {
	ts, srv := testServerFull(t, evprop.Options{Workers: 2})

	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	hz := get("/v1/healthz")
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", hz.StatusCode)
	}
	var health evclient.Health
	decode(t, hz, &health)
	if health.Status != "ok" || health.Version == "" || !strings.HasPrefix(health.GoVersion, "go") {
		t.Errorf("healthz body %+v", health)
	}
	if health.GOMAXPROCS < 1 || health.UptimeSec < 0 {
		t.Errorf("healthz body %+v", health)
	}

	// Not ready until main marks the listener up.
	if rz := get("/v1/readyz"); rz.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz before ready: status %d, want 503", rz.StatusCode)
	}
	srv.ready.Store(true)
	if rz := get("/v1/readyz"); rz.StatusCode != http.StatusOK {
		t.Errorf("readyz while serving: status %d, want 200", rz.StatusCode)
	}
	srv.beginDrain()
	if rz := get("/v1/readyz"); rz.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain: status %d, want 503", rz.StatusCode)
	}
	// Liveness is unaffected by drain.
	if hz := get("/v1/healthz"); hz.StatusCode != http.StatusOK {
		t.Errorf("healthz during drain: status %d", hz.StatusCode)
	}
}

// TestMetricsConformance lints the server's full Prometheus exposition —
// two models, one that dispatches to the workers and one that runs inline,
// every per-model family labelled model=, the process's workers and run count
// without one — against the format checker, and checks what the checker does
// not: one # HELP and one # TYPE per family, no series written twice, and a
// traced request's exemplar on its latency bucket.
func TestMetricsConformance(t *testing.T) {
	ts, srv := testServerNet(t, poolNetwork(), evprop.Options{Workers: 2})
	if err := srv.reg.LoadSync("rain", registry.InlineSource(mmRainBIF(t, 0.3), false)); err != nil {
		t.Fatal(err)
	}
	post(t, ts.URL+modelPath+"/query", evclient.QueryRequest{Evidence: evprop.Evidence{"A": 1}})
	post(t, ts.URL+"/v1/models/rain/query", evclient.QueryRequest{Evidence: evprop.Evidence{"Wet": 1}})

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, resp.Body); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	if problems := obs.LintExposition(strings.NewReader(body)); len(problems) != 0 {
		t.Fatalf("exposition problems:\n%s", strings.Join(problems, "\n"))
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		key := line
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "# "):
			key = strings.Join(strings.Fields(line)[:3], " ") // "# HELP family"
		default:
			key, _, _ = strings.Cut(line, " # ") // drop an exemplar
			key = key[:strings.LastIndex(key, " ")]
		}
		if seen[key] {
			t.Errorf("exposition repeats %q", key)
		}
		seen[key] = true
	}
	for _, metric := range []string{
		"\nevprop_sched_global_depth 0\n", "\nevprop_sched_active_runs 0\n",
		`evprop_sched_inline_runs_total{model="test"} 0`, `evprop_sched_pool_runs_total{model="test"} 1`,
		`evprop_sched_inline_runs_total{model="rain"} 1`, `evprop_sched_pool_runs_total{model="rain"} 0`,
		`evprop_request_duration_seconds_count{model="rain"} 1`,
		`evprop_worker_queue_depth{worker="0"}`,
		`evprop_worker_completed_total{worker="1"}`,
		`evprop_worker_state{state=`,
	} {
		if !strings.Contains(body, metric) {
			t.Errorf("metrics missing %s", metric)
		}
	}
	// Nothing is read through a model by default: no per-model quantity is exposed
	// without its label, and the parallel evprop_model_* families are gone.
	// What is the process's — its workers, the tasks queued on them, the runs in
	// flight — is exposed once, with no model to name: two models, two workers,
	// two series per worker family.
	perProcess := func(line string) bool {
		return strings.HasPrefix(line, "evprop_worker_") ||
			strings.HasPrefix(line, "evprop_sched_global_depth") || strings.HasPrefix(line, "evprop_sched_active_runs")
	}
	workerSeries, exemplars := 0, 0
	for _, line := range strings.Split(body, "\n") {
		labelled := strings.Contains(line, `model="`)
		if strings.HasPrefix(line, "evprop_request_duration_seconds_bucket{") && strings.Contains(line, `model="rain"} 1 # {trace_id="`) {
			exemplars++
		}
		for _, prefix := range []string{"evprop_cache_", "evprop_sched_", "evprop_window_", "evprop_http_", "evprop_flightrecorder_"} {
			if strings.HasPrefix(line, prefix) && !labelled && !perProcess(line) {
				t.Errorf("unlabelled series %q", line)
			}
		}
		if perProcess(line) && labelled {
			t.Errorf("a model label on the process's series %q", line)
		}
		if strings.HasPrefix(line, "evprop_model_") && !strings.HasPrefix(line, "evprop_model_info{") {
			t.Errorf("evprop_model_* series %q", line)
		}
		if strings.HasPrefix(line, "evprop_worker_") {
			workerSeries++
		}
	}
	if workerSeries != 2*7 {
		t.Errorf("%d evprop_worker_* series, want 7 families × the process's 2 workers", workerSeries)
	}
	// rain's one traced request is its latency histogram's one exemplar, on
	// the bucket that first counts it.
	if exemplars != 1 {
		t.Errorf("rain's latency buckets carry %d exemplars, want 1", exemplars)
	}
}
