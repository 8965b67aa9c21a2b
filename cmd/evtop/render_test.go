package main

import (
	"errors"
	"strings"
	"testing"
	"time"

	"evprop"
	evclient "evprop/client"
)

func testSnap(at time.Time, busy0, busy1 int64) snapshot {
	return snapshot{
		Time:         at,
		UptimeSec:    125,
		QPS:          42.5,
		ErrorRate:    0.01,
		P50Usec:      300,
		P99Usec:      1800,
		CacheHitRate: 0.87,
		Propagations: 1234,
		Scheduler:    "collaborative",
		Workers:      2,
		Gauges: evprop.SchedulerGauges{
			GlobalDepth: 3,
			ActiveRuns:  1,
			Workers: []evprop.WorkerGauges{
				{State: "executing", QueueDepth: 2, QueueWeight: 40, BusyNs: busy0, Items: 100, Partitions: 7},
				{State: "parked", BusyNs: busy1, Items: 90},
			},
		},
	}
}

// TestFrameRendersWorkers: two snapshots one second apart must yield a frame
// with a header, sparklines, and one row per worker whose utilization comes
// from the busy-time delta.
func TestFrameRendersWorkers(t *testing.T) {
	t0 := time.Unix(1000, 0)
	m := &model{url: "http://x:8080"}
	m.observe(testSnap(t0, 0, 0))
	// Worker 0 burns 500ms of the 1s interval, worker 1 nothing.
	m.observe(testSnap(t0.Add(time.Second), 500_000_000, 0))
	f := m.frame()
	for _, want := range []string{
		"evtop — http://x:8080", "collaborative/2 workers", "up 00:02:05",
		"qps    42.5", "p99   1.8ms", "cache hit  87.0%",
		"GL depth 3", "active runs 1",
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

// TestFrameEmptyAndDisconnected: the zero model and a dropped connection
// must both render without panicking.
func TestFrameEmptyAndDisconnected(t *testing.T) {
	m := &model{url: "http://x:8080"}
	if f := m.frame(); !strings.Contains(f, "no per-worker gauges") {
		t.Errorf("empty frame:\n%s", f)
	}
	m.observe(testSnap(time.Unix(1000, 0), 0, 0))
	m.disconnected(errors.New("connection refused"))
	f := m.frame()
	if !strings.Contains(f, "RECONNECTING") || !strings.Contains(f, "connection refused") {
		t.Errorf("disconnected frame lacks status:\n%s", f)
	}
}

// TestFrameStatsLine: the /v1/stats row shows the lifetime cache hit rate
// and flags audit drops; without a poll the row is absent; with auditing
// off it says so.
func TestFrameStatsLine(t *testing.T) {
	m := &model{url: "http://x:8080"}
	m.observe(testSnap(time.Unix(1000, 0), 0, 0))
	if f := m.frame(); strings.Contains(f, "cache off") || strings.Contains(f, "audit") {
		t.Errorf("stats row rendered before any poll:\n%s", f)
	}
	st := &evclient.Stats{}
	st.Cache.Enabled = true
	st.Cache.Capacity = 64
	st.Cache.Entries = 12
	st.Cache.Hits = 90
	st.Cache.Misses = 10
	st.Cache.FirstSight = 7
	st.Audit.Enabled = true
	st.Audit.Enqueued = 1000
	st.Audit.Dropped = 3
	m.observeStats(st)
	f := m.frame()
	for _, want := range []string{
		"cache 12/64 entries", "life hit  90.0%", "first-sight 7", "audit enq 1000 drop 3 (0.30%) !",
	} {
		if !strings.Contains(f, want) {
			t.Errorf("stats row missing %q:\n%s", want, f)
		}
	}
	m.observeStats(&evclient.Stats{})
	if f := m.frame(); !strings.Contains(f, "cache off") || !strings.Contains(f, "audit off") {
		t.Errorf("disabled stats row:\n%s", f)
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
