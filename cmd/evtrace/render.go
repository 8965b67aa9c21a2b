package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	evclient "evprop/client"
)

// barWidth is the waterfall column's width in cells.
const barWidth = 32

// waterfall renders a fetched trace as an indented span tree with one
// time-positioned bar per span, scaled to the whole trace. Pure string in,
// string out — directly testable, positioning is the terminal's concern.
func waterfall(tr *evclient.TraceResponse, width int) string {
	var b strings.Builder
	flags := tr.Reason
	if tr.Sampled {
		flags += ", sampled"
	}
	fmt.Fprintf(&b, "trace %s  (%d spans, kept: %s)\n", tr.TraceID, len(tr.Spans), flags)
	if tr.DroppedSpans > 0 {
		fmt.Fprintf(&b, "  ! %d span(s) dropped to arena overflow\n", tr.DroppedSpans)
	}
	if len(tr.Spans) == 0 {
		return b.String()
	}

	// Index the tree. A span whose parent is absent from the trace is a
	// root (the remote caller's span, or the request root when untraced
	// upstream).
	byID := map[string]evclient.TraceSpan{}
	children := map[string][]evclient.TraceSpan{}
	for _, sp := range tr.Spans {
		byID[sp.SpanID] = sp
	}
	var roots []evclient.TraceSpan
	for _, sp := range tr.Spans {
		if _, ok := byID[sp.ParentSpanID]; sp.ParentSpanID != "" && ok {
			children[sp.ParentSpanID] = append(children[sp.ParentSpanID], sp)
		} else {
			roots = append(roots, sp)
		}
	}
	byStart := func(s []evclient.TraceSpan) {
		sort.SliceStable(s, func(i, j int) bool { return s[i].Start.Before(s[j].Start) })
	}
	byStart(roots)
	for _, c := range children {
		byStart(c)
	}

	// The time axis spans the earliest start to the latest end.
	t0 := roots[0].Start
	var t1 time.Time
	for _, sp := range tr.Spans {
		if sp.Start.Before(t0) {
			t0 = sp.Start
		}
		if end := spanEnd(sp); end.After(t1) {
			t1 = end
		}
	}
	total := t1.Sub(t0)
	if total <= 0 {
		total = time.Microsecond
	}

	// Name column width: longest indented name, capped.
	nameW := 0
	var measure func(sp evclient.TraceSpan, depth int)
	measure = func(sp evclient.TraceSpan, depth int) {
		if w := 2*depth + len(sp.Name); w > nameW {
			nameW = w
		}
		for _, c := range children[sp.SpanID] {
			measure(c, depth+1)
		}
	}
	for _, r := range roots {
		measure(r, 0)
	}
	if nameW > 40 {
		nameW = 40
	}

	var render func(sp evclient.TraceSpan, depth int)
	render = func(sp evclient.TraceSpan, depth int) {
		name := strings.Repeat("  ", depth) + sp.Name
		share := sp.DurationUsec / (float64(total.Nanoseconds()) / 1e3) * 100
		fmt.Fprintf(&b, "%-*s %9s %5.1f%% ▕%s▏", nameW, name,
			fmtUsec(sp.DurationUsec), share, bar(sp, t0, total, width))
		if extra := spanExtras(sp); extra != "" {
			b.WriteString(" " + extra)
		}
		b.WriteString("\n")
		for _, c := range children[sp.SpanID] {
			render(c, depth+1)
		}
	}
	for _, r := range roots {
		render(r, 0)
	}
	return b.String()
}

func spanEnd(sp evclient.TraceSpan) time.Time {
	return sp.Start.Add(time.Duration(sp.DurationUsec * 1e3))
}

// bar draws a span's interval on the shared time axis: spaces up to its
// offset, blocks for its duration (at least one cell).
func bar(sp evclient.TraceSpan, t0 time.Time, total time.Duration, width int) string {
	off := int(float64(sp.Start.Sub(t0)) / float64(total) * float64(width))
	n := int(sp.DurationUsec * 1e3 / float64(total) * float64(width))
	if n < 1 {
		n = 1
	}
	if off > width-1 {
		off = width - 1
	}
	if off+n > width {
		n = width - off
	}
	return strings.Repeat(" ", off) + strings.Repeat("█", n) + strings.Repeat(" ", width-off-n)
}

// spanExtras picks the attributes worth a waterfall cell: failure status,
// cache verdicts, singleflight role, plan reuse, what a run ranged over and
// what its targets let it skip, and the lazy engine's
// pruning counters (with the pruned-work fraction computed inline).
func spanExtras(sp evclient.TraceSpan) string {
	var parts []string
	if sp.Status != "" {
		parts = append(parts, "FAIL("+sp.Status+")")
	}
	attrs := sp.Attrs
	for _, k := range []string{"cache.hit", "cache.first_sight"} {
		if v, ok := attrs[k].(bool); ok {
			parts = append(parts, fmt.Sprintf("%s=%v", k, v))
		}
	}
	for _, k := range []string{"role", "plan", "scheduler", "executor"} {
		if v, ok := attrs[k].(string); ok {
			parts = append(parts, k+"="+v)
		}
	}
	for _, k := range []string{"tasks", "tasks.skipped", "entries", "workers", "workers.effective", "evidence.vars", "batch.index", "http.status"} {
		if v, ok := attrs[k].(float64); ok {
			parts = append(parts, fmt.Sprintf("%s=%d", k, int64(v)))
		}
	}
	// Lazy pruning counters: sent/blocked/skipped plus the fraction of
	// full-propagation flops the zero-aware plan avoided.
	if sent, ok := attrs["lazy.msg_sent"].(float64); ok {
		blocked, _ := attrs["lazy.msg_blocked"].(float64)
		skipped, _ := attrs["lazy.msg_skipped"].(float64)
		parts = append(parts, fmt.Sprintf("lazy sent/blocked/skipped=%d/%d/%d",
			int64(sent), int64(blocked), int64(skipped)))
		if full, ok := attrs["lazy.flops_full"].(float64); ok && full > 0 {
			flops, _ := attrs["lazy.flops"].(float64)
			parts = append(parts, fmt.Sprintf("pruned=%.0f%%", (1-flops/full)*100))
		}
	}
	return strings.Join(parts, " ")
}

// fmtUsec prints a µs duration with a sensible unit.
func fmtUsec(usec float64) string {
	switch {
	case usec >= 1e6:
		return fmt.Sprintf("%.2fs", usec/1e6)
	case usec >= 1e3:
		return fmt.Sprintf("%.2fms", usec/1e3)
	default:
		return fmt.Sprintf("%.0fµs", usec)
	}
}

func countSpans(tr *evclient.TraceResponse, name string) int {
	n := 0
	for _, sp := range tr.Spans {
		if sp.Name == name {
			n++
		}
	}
	return n
}

func findSpan(tr *evclient.TraceResponse, name string) (evclient.TraceSpan, bool) {
	for _, sp := range tr.Spans {
		if sp.Name == name {
			return sp, true
		}
	}
	return evclient.TraceSpan{}, false
}

// assertTrace verifies the span-tree properties `make smoke-trace` relies
// on for a -drive n batch against a freshly booted server: the caller's trace
// identity survived, the caller's span parents the root, every sub-query has
// its span, and the n identical sub-queries of a signature the server has never
// seen cost min(n, 2) propagations — one sub-query is the signature's first
// sight and runs privately, with no singleflight span beside its propagate
// span; a second leads the one shared run, which is cached; the other n−2 are
// each a singleflight waiter or a cache hit. Every propagate span follows its
// own sub-query's absorb span. Returns the violations, empty when the tree
// checks out.
func assertTrace(tr *evclient.TraceResponse, traceID, parentSpan string, n int) []string {
	var problems []string
	if tr.TraceID != traceID {
		problems = append(problems, fmt.Sprintf("trace ID %s, want the minted %s", tr.TraceID, traceID))
	}
	if !tr.Sampled {
		problems = append(problems, "caller's sampled flag was dropped")
	}
	// The batch root is named by its route.
	root, ok := findSpan(tr, "/v1/models/{name}/batch")
	if !ok {
		problems = append(problems, "no batch root span")
	} else if root.ParentSpanID != parentSpan {
		problems = append(problems, fmt.Sprintf("root parent %q, want the caller's span %q", root.ParentSpanID, parentSpan))
	}
	if items := countSpans(tr, "batch.item"); items != n {
		problems = append(problems, fmt.Sprintf("%d batch.item spans, want %d", items, n))
	}
	// The engine's spans of one sub-query are siblings under its batch.item.
	type item struct {
		absorb, propagate     *evclient.TraceSpan
		firstSight, flight    bool
		servedByAnotherCaller bool
	}
	items := map[string]*item{}
	for i := range tr.Spans {
		sp := &tr.Spans[i]
		it := items[sp.ParentSpanID]
		if it == nil {
			it = &item{}
			items[sp.ParentSpanID] = it
		}
		switch sp.Name {
		case "absorb":
			it.absorb = sp
		case "propagate":
			it.propagate = sp
		case "cache.lookup":
			it.firstSight = sp.Attrs["cache.first_sight"] == true
			it.servedByAnotherCaller = it.servedByAnotherCaller || sp.Attrs["cache.hit"] == true
		case "singleflight":
			it.flight = true
			it.servedByAnotherCaller = it.servedByAnotherCaller || sp.Attrs["role"] == "waiter"
		}
	}
	props, firstSights, served := 0, 0, 0
	for _, it := range items {
		if it.propagate != nil {
			props++
			switch {
			case it.absorb == nil:
				problems = append(problems, "a propagate span without its absorb stage span")
			case it.propagate.Start.Before(it.absorb.Start):
				problems = append(problems, "propagate started before absorb — stages out of order")
			}
			if it.firstSight == it.flight {
				problems = append(problems, "a propagation that is neither a first sight outside the singleflight nor a later sight inside it")
			}
		}
		if it.firstSight {
			firstSights++
		}
		if it.servedByAnotherCaller {
			served++
		}
	}
	if want := min(n, 2); props != want {
		problems = append(problems, fmt.Sprintf("%d propagate spans, want %d — identical sub-queries of a cold signature cost min(n, 2) propagations", props, want))
	}
	if firstSights != 1 {
		problems = append(problems, fmt.Sprintf("%d cache lookups were a first sight, want 1", firstSights))
	}
	if want := max(0, n-2); served != want {
		problems = append(problems, fmt.Sprintf("%d sub-queries were singleflight waiters or cache hits, want %d", served, want))
	}
	return problems
}
