package main

import (
	"strings"
	"testing"
	"time"

	evclient "evprop/client"
)

// fixture builds the span tree a -drive 2 batch produces: remote-parented
// root, two batch.item children, the singleflight leader's pipeline stages,
// and the other item waiting on them.
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
			at(0, 10*time.Millisecond, "/v1/batch", "aaaaaaaaaaaaaaaa", "00f067aa0ba902b7",
				map[string]any{"http.status": float64(200)}),
			at(time.Millisecond, 8*time.Millisecond, "batch.item", "bbbbbbbbbbbbbbbb", "aaaaaaaaaaaaaaaa",
				map[string]any{"batch.index": float64(0)}),
			at(time.Millisecond, 100*time.Microsecond, "cache.lookup", "cccccccccccccccc", "bbbbbbbbbbbbbbbb",
				map[string]any{"cache.hit": false}),
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
			at(5*time.Millisecond, 4*time.Millisecond, "batch.item", "1111111111111111", "aaaaaaaaaaaaaaaa",
				map[string]any{"batch.index": float64(1)}),
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
		"8 spans, kept: flagged, sampled",
		"/v1/batch", "  batch.item", "    cache.lookup", "    propagate",
		"      kind.SumProduct",
		"10.00ms", "100.0%",
		"cache.hit=false",
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
		if strings.HasPrefix(l, "/v1/batch") {
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
	tr := fixture()
	if problems := assertTrace(tr, tr.TraceID, "00f067aa0ba902b7", 2); len(problems) != 0 {
		t.Fatalf("fixture should pass: %v", problems)
	}
	if p := assertTrace(tr, "deadbeef", "00f067aa0ba902b7", 2); len(p) == 0 {
		t.Error("wrong trace ID not flagged")
	}
	if p := assertTrace(tr, tr.TraceID, "ffffffffffffffff", 2); len(p) == 0 {
		t.Error("wrong root parent not flagged")
	}
	if p := assertTrace(tr, tr.TraceID, "00f067aa0ba902b7", 3); len(p) == 0 {
		t.Error("missing batch.item not flagged")
	}
	// The second item ran its own propagation instead of waiting: n>1 must
	// then fail, on the waiter count and on the propagate count.
	twice := *tr
	twice.Spans = nil
	for _, sp := range tr.Spans {
		if sp.Name == "singleflight" {
			sp.Name, sp.Attrs = "propagate", nil
		}
		twice.Spans = append(twice.Spans, sp)
	}
	if p := assertTrace(&twice, tr.TraceID, "00f067aa0ba902b7", 2); len(p) != 2 {
		t.Errorf("two propagations for two identical sub-queries flagged as %v", p)
	}
	// Swap stage order: propagate before absorb must fail.
	swapped := *tr
	swapped.Spans = append([]evclient.TraceSpan(nil), tr.Spans...)
	for i := range swapped.Spans {
		if swapped.Spans[i].Name == "propagate" {
			swapped.Spans[i].Start = time.Unix(999, 0)
		}
	}
	if p := assertTrace(&swapped, tr.TraceID, "00f067aa0ba902b7", 2); len(p) == 0 {
		t.Error("stage disorder not flagged")
	}
}
