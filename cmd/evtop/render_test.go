package main

import (
	"errors"
	"strings"
	"testing"
	"time"

	"evprop"
	evclient "evprop/client"
)

// testRow is one model's stats row.
func testRow(name string) evclient.ModelStats {
	row := evclient.ModelStats{
		Counters:   evclient.Counters{Queries: 1000, Propagations: 1234},
		Workers:    2,
		Scheduler:  "collaborative",
		InlineRuns: 34,
		PoolRuns:   1200,
		Window: evclient.WindowStats{
			Requests: 2550, QPS: 42.5, ErrorRate: 0.01, P50LatencyUsec: 300, P99LatencyUsec: 1800,
			LoadBalance: 1.1, CacheHitRate: 0.87, QPSSeries: []int64{0, 10, 40, 42},
		},
	}
	row.Name, row.State, row.Version = name, "ready", 3
	return row
}

// testSnap is one stream event: the rows, and the process's two workers with
// the given cumulative busy times.
func testSnap(at time.Time, busy0, busy1 int64, rows ...evclient.ModelStats) evclient.Snapshot {
	s := evclient.Snapshot{Time: at, UptimeSec: 125, Models: rows}
	s.Scheduler = evprop.SchedulerGauges{
		PoolSize:    2,
		GlobalDepth: 3,
		ActiveRuns:  1,
		Workers: []evprop.WorkerGauges{
			{StateName: "executing", QueueDepth: 2, QueueWeight: 40, BusyNs: busy0, Items: 100, Partitions: 7},
			{StateName: "parked", BusyNs: busy1, Items: 90},
		},
	}
	for _, r := range rows {
		s.Totals.Queries += r.Queries
		s.Totals.Propagations += r.Propagations
	}
	return s
}

// TestFrameRendersWorkers: two snapshots one second apart must yield a frame
// with a header, the process's scheduler line and one row per worker whose
// utilization comes from the busy-time delta, and the model's window line.
func TestFrameRendersWorkers(t *testing.T) {
	t0 := time.Unix(1000, 0)
	m := &model{url: "http://x:8080"}
	m.observe(testSnap(t0, 0, 0, testRow("wide")))
	// Worker 0 burns 500ms of the 1s interval, worker 1 nothing.
	m.observe(testSnap(t0.Add(time.Second), 500_000_000, 0, testRow("wide")))
	f := m.frame()
	for _, want := range []string{
		"evtop — http://x:8080", "1 models", "up 00:02:05", "propagations 1234",
		"wide   v3 ready   collaborative/2 workers",
		"qps    42.5", "p99 1.8ms", "cache hit  87.0%",
		"workers 2   active runs 1   GL depth 3", "(34 inline, 1200 pool)",
		"executing", "parked", " 50%", "  0%",
	} {
		if !strings.Contains(f, want) {
			t.Errorf("frame missing %q:\n%s", want, f)
		}
	}
	if lines := strings.Count(f, "\n"); lines < 8 {
		t.Errorf("frame has only %d lines:\n%s", lines, f)
	}
}

// TestFrameTwoModels: every model of the snapshot gets its own block, read
// from its own row — the one with a cache says so, the one without says
// "cache off" — under one workers block: the workers are the process's, drawn
// once however many models share them, and a model that joins between two
// events does not disturb their utilization.
func TestFrameTwoModels(t *testing.T) {
	t0 := time.Unix(1000, 0)
	m := &model{url: "http://x:8080"}
	m.observe(testSnap(t0, 0, 0, testRow("wet")))
	dry := testRow("dry")
	dry.Window.QPS = 7
	dry.Cache = evclient.CacheCounters{Enabled: true, Capacity: 32, Entries: 5, Hits: 3, Misses: 1}
	// "dry" appears (sorted first) in the second snapshot only; the second
	// worker burned a quarter of the interval.
	m.observe(testSnap(t0.Add(time.Second), 0, 250_000_000, dry, testRow("wet")))
	f := m.frame()
	wet, dryAt := strings.Index(f, "wet   v3 ready"), strings.Index(f, "dry   v3 ready")
	if wet < 0 || dryAt < 0 || dryAt > wet {
		t.Fatalf("want a block per model, dry before wet:\n%s", f)
	}
	if n := strings.Count(f, "STATE"); n != 1 || strings.Contains(f[dryAt:], "parked") {
		t.Errorf("want one workers block, above the models; %d drawn:\n%s", n, f)
	}
	for block, wants := range map[string][]string{
		f[:dryAt]:    {"workers 2   active runs 1", "executing  ░░░░░░░░░░   0%", "parked     ███░░░░░░░  25%"},
		f[dryAt:wet]: {"qps     7.0", "cache 5/32 entries", "life hit  75.0%"},
		f[wet:]:      {"qps    42.5", "cache off"},
	} {
		for _, want := range wants {
			if !strings.Contains(block, want) {
				t.Errorf("block missing %q:\n%s", want, block)
			}
		}
	}
	if !strings.Contains(f, "2 models") || !strings.Contains(f, "queries 2000") {
		t.Errorf("header lacks the totals over both models:\n%s", f)
	}
}

// TestFrameEmptyAndDisconnected: the zero model and a dropped connection
// must both render without panicking.
func TestFrameEmptyAndDisconnected(t *testing.T) {
	m := &model{url: "http://x:8080"}
	if f := m.frame(); !strings.Contains(f, "0 models") {
		t.Errorf("empty frame:\n%s", f)
	}
	inline := testSnap(time.Unix(1000, 0), 0, 0, testRow("asia"))
	inline.Scheduler.Workers = nil
	m.observe(inline)
	if f := m.frame(); !strings.Contains(f, "no per-worker gauges") {
		t.Errorf("frame of a server that never dispatched:\n%s", f)
	}
	m.disconnected(errors.New("connection refused"))
	f := m.frame()
	if !strings.Contains(f, "RECONNECTING") || !strings.Contains(f, "connection refused") {
		t.Errorf("disconnected frame lacks status:\n%s", f)
	}
}

// TestFrameStatsLine: the stream's own rows carry what used to need a
// /v1/stats poll — a model's lifetime cache hit rate and the audit pipeline's
// drops, flagged; before the first event neither is drawn; with auditing or a
// cache off the frame says so.
func TestFrameStatsLine(t *testing.T) {
	m := &model{url: "http://x:8080"}
	if f := m.frame(); strings.Contains(f, "cache off") || strings.Contains(f, "audit") {
		t.Errorf("cache or audit drawn before any event:\n%s", f)
	}
	row := testRow("asia")
	row.Cache = evclient.CacheCounters{Enabled: true, Capacity: 64, Entries: 12, Hits: 90, Misses: 10, FirstSight: 7}
	s := testSnap(time.Unix(1000, 0), 0, 0, row)
	s.Audit.Enabled = true
	s.Audit.Enqueued = 1000
	s.Audit.Dropped = 3
	s.Totals.Errors, s.Unresolved.Errors = 5, 2
	m.observe(s)
	f := m.frame()
	for _, want := range []string{
		"cache 12/64 entries", "life hit  90.0%", "first-sight 7", "audit enq 1000 drop 3 (0.30%) !",
		"errors 5 (2 on no model)",
	} {
		if !strings.Contains(f, want) {
			t.Errorf("frame missing %q:\n%s", want, f)
		}
	}
	m.observe(testSnap(time.Unix(1001, 0), 0, 0, testRow("asia")))
	if f := m.frame(); !strings.Contains(f, "cache off") || !strings.Contains(f, "audit off") {
		t.Errorf("disabled cache and audit:\n%s", f)
	}
}

// TestSparklineAndBar pin the drawing helpers' edge cases.
func TestSparklineAndBar(t *testing.T) {
	if s := sparkline(nil, 10); s != "" {
		t.Errorf("empty sparkline %q", s)
	}
	s := sparkline([]float64{0, 1, 2, 4}, 10)
	if len([]rune(s)) != 4 {
		t.Errorf("sparkline length %d", len([]rune(s)))
	}
	if !strings.HasSuffix(s, "█") || !strings.HasPrefix(s, "▁") {
		t.Errorf("sparkline shape %q", s)
	}
	// All-zero history stays on the floor instead of dividing by zero.
	if s := sparkline([]float64{0, 0, 0}, 10); s != "▁▁▁" {
		t.Errorf("flat sparkline %q", s)
	}
	if b := bar(0.5, 10); strings.Count(b, "█") != 5 || strings.Count(b, "░") != 5 {
		t.Errorf("half bar %q", b)
	}
	if b := bar(2.0, 4); b != "████" {
		t.Errorf("overfull bar %q", b)
	}
	if b := bar(-1, 4); b != "░░░░" {
		t.Errorf("negative bar %q", b)
	}
}
