package main

import (
	"strings"
	"testing"
	"time"

	evclient "evprop/client"
)

// fixture builds the span tree a -drive 3 batch produces on a fresh server:
// remote-parented root, three batch.item children — the signature's first
// sight with its private pipeline stages, the singleflight leader with the
// shared ones, and the third item waiting on the leader.
func fixture() *evclient.TraceResponse {
	t0 := time.Unix(1000, 0)
	at := func(off, dur time.Duration, name, spanID, parent string, attrs map[string]any) evclient.TraceSpan {
		return evclient.TraceSpan{
			SpanID: spanID, ParentSpanID: parent, Name: name,
			Start: t0.Add(off), DurationUsec: float64(dur.Nanoseconds()) / 1e3,
			Attrs: attrs,
		}
	}
	return &evclient.TraceResponse{
		TraceID: "4bf92f3577b34da6a3ce929d0e0e4736",
		Sampled: true,
		Reason:  "flagged",
		Spans: []evclient.TraceSpan{
			at(0, 10*time.Millisecond, "/v1/models/{name}/batch", "aaaaaaaaaaaaaaaa", "00f067aa0ba902b7",
				map[string]any{"http.status": float64(200)}),
			at(time.Millisecond, 8*time.Millisecond, "batch.item", "bbbbbbbbbbbbbbbb", "aaaaaaaaaaaaaaaa",
				map[string]any{"batch.index": float64(0)}),
			at(time.Millisecond, 100*time.Microsecond, "cache.lookup", "cccccccccccccccc", "bbbbbbbbbbbbbbbb",
				map[string]any{"cache.hit": false, "cache.first_sight": true}),
			at(2*time.Millisecond, time.Millisecond, "absorb", "dddddddddddddddd", "bbbbbbbbbbbbbbbb", nil),
			at(3*time.Millisecond, 6*time.Millisecond, "propagate", "eeeeeeeeeeeeeeee", "bbbbbbbbbbbbbbbb",
				map[string]any{
					"tasks":            float64(42),
					"lazy.msg_sent":    float64(10),
					"lazy.msg_blocked": float64(5),
					"lazy.msg_skipped": float64(3),
					"lazy.flops":       float64(250),
					"lazy.flops_full":  float64(1000),
				}),
			at(4*time.Millisecond, time.Millisecond, "kind.SumProduct", "ffffffffffffffff", "eeeeeeeeeeeeeeee", nil),
			at(time.Millisecond, 8*time.Millisecond, "batch.item", "3333333333333333", "aaaaaaaaaaaaaaaa",
				map[string]any{"batch.index": float64(1)}),
			at(time.Millisecond, 100*time.Microsecond, "cache.lookup", "4444444444444444", "3333333333333333",
				map[string]any{"cache.hit": false, "cache.first_sight": false}),
			at(2*time.Millisecond, 6*time.Millisecond, "singleflight", "5555555555555555", "3333333333333333",
				map[string]any{"role": "leader"}),
			at(2*time.Millisecond, time.Millisecond, "absorb", "6666666666666666", "3333333333333333", nil),
			at(3*time.Millisecond, 5*time.Millisecond, "propagate", "7777777777777777", "3333333333333333",
				map[string]any{"tasks": float64(42)}),
			at(5*time.Millisecond, 4*time.Millisecond, "batch.item", "1111111111111111", "aaaaaaaaaaaaaaaa",
				map[string]any{"batch.index": float64(2)}),
			at(5*time.Millisecond, 100*time.Microsecond, "cache.lookup", "8888888888888888", "1111111111111111",
				map[string]any{"cache.hit": false, "cache.first_sight": false}),
			at(6*time.Millisecond, 3*time.Millisecond, "singleflight", "2222222222222222", "1111111111111111",
				map[string]any{"role": "waiter"}),
		},
	}
}

// TestWaterfall: tree shape, indentation, shares, and the inline extras
// (cache verdict, lazy pruning fraction, singleflight role).
func TestWaterfall(t *testing.T) {
	out := waterfall(fixture(), 20)
	for _, want := range []string{
		"trace 4bf92f3577b34da6a3ce929d0e0e4736",
		"14 spans, kept: flagged, sampled",
		"/v1/models/{name}/batch", "  batch.item", "    cache.lookup", "    propagate",
		"      kind.SumProduct",
		"10.00ms", "100.0%",
		"cache.hit=false", "cache.first_sight=true",
		"lazy sent/blocked/skipped=10/5/3", "pruned=75%",
		"role=waiter",
		"http.status=200",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("waterfall missing %q:\n%s", want, out)
		}
	}
	// The root's bar spans the full width; a late short span is offset.
	lines := strings.Split(out, "\n")
	var rootLine string
	for _, l := range lines {
		if strings.HasPrefix(l, "/v1/models/{name}/batch") {
			rootLine = l
		}
	}
	if !strings.Contains(rootLine, strings.Repeat("█", 20)) {
		t.Errorf("root bar not full-width: %q", rootLine)
	}
}

// TestWaterfallEmpty: a trace with no spans renders its header only.
func TestWaterfallEmpty(t *testing.T) {
	out := waterfall(&evclient.TraceResponse{TraceID: "ab", Reason: "head"}, 20)
	if !strings.Contains(out, "0 spans") || strings.Count(out, "\n") != 1 {
		t.Errorf("empty trace render:\n%s", out)
	}
}

// TestAssertTrace: the smoke-mode checks pass on the fixture and flag each
// violation class.
func TestAssertTrace(t *testing.T) {
	const caller = "00f067aa0ba902b7"
	tr := fixture()
	if problems := assertTrace(tr, tr.TraceID, caller, 3); len(problems) != 0 {
		t.Fatalf("fixture should pass: %v", problems)
	}
	if p := assertTrace(tr, "deadbeef", caller, 3); len(p) == 0 {
		t.Error("wrong trace ID not flagged")
	}
	if p := assertTrace(tr, tr.TraceID, "ffffffffffffffff", 3); len(p) == 0 {
		t.Error("wrong root parent not flagged")
	}
	if p := assertTrace(tr, tr.TraceID, caller, 4); len(p) == 0 {
		t.Error("missing batch.item not flagged")
	}
	// edit returns the fixture with one function applied to every span.
	edit := func(f func(*evclient.TraceSpan)) *evclient.TraceResponse {
		out := *tr
		out.Spans = append([]evclient.TraceSpan(nil), tr.Spans...)
		for i := range out.Spans {
			f(&out.Spans[i])
		}
		return &out
	}
	// The third item ran its own propagation instead of waiting: flagged on the
	// propagate count, on the waiter count and as a run outside both paths.
	thrice := edit(func(sp *evclient.TraceSpan) {
		if sp.Name == "singleflight" && sp.Attrs["role"] == "waiter" {
			sp.Name, sp.Attrs = "propagate", nil
		}
	})
	if p := assertTrace(thrice, tr.TraceID, caller, 3); len(p) != 4 {
		t.Errorf("three propagations for three identical sub-queries flagged as %v", p)
	}
	// The old contract — the first sub-query is the leader and is cached, the
	// rest ride it: one propagation, no first sight.
	pinnedAtOnce := edit(func(sp *evclient.TraceSpan) {
		if sp.ParentSpanID == "bbbbbbbbbbbbbbbb" && sp.Name != "cache.lookup" {
			sp.Name = "collect"
		}
		if sp.Name == "cache.lookup" {
			sp.Attrs = map[string]any{"cache.hit": false}
		}
	})
	if p := assertTrace(pinnedAtOnce, tr.TraceID, caller, 3); len(p) != 2 {
		t.Errorf("one propagation for three sub-queries of a cold signature flagged as %v", p)
	}
	// The first sight went through the singleflight.
	herded := edit(func(sp *evclient.TraceSpan) {
		if sp.Name == "cache.lookup" {
			sp.Attrs = map[string]any{"cache.hit": false, "cache.first_sight": sp.SpanID == "4444444444444444"}
		}
	})
	if p := assertTrace(herded, tr.TraceID, caller, 3); len(p) != 2 {
		t.Errorf("a first sight inside the singleflight flagged as %v", p)
	}
	// Swap stage order: propagate before absorb must fail.
	swapped := edit(func(sp *evclient.TraceSpan) {
		if sp.SpanID == "7777777777777777" {
			sp.Start = time.Unix(999, 0)
		}
	})
	if p := assertTrace(swapped, tr.TraceID, caller, 3); len(p) != 1 {
		t.Errorf("stage disorder flagged as %v", p)
	}
}
