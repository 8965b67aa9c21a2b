package main

import (
	"fmt"
	"strings"
	"time"

	evclient "evprop/client"
)

// sparkWidth is how many of the window's 60 per-second counts the QPS
// sparkline draws.
const sparkWidth = 30

// model is the dashboard state: the two latest snapshots — utilization is a
// rate, so it needs a delta. Everything drawn comes from the stream; the
// server's rows carry the cache and audit counters and the 60 s QPS series, so
// there is nothing to poll and no history to keep.
type model struct {
	url       string
	cur, prev evclient.Snapshot
	count     int // snapshots seen since (re)connect
	connected bool
	lastErr   string
}

// observe folds one stream event into the model.
func (m *model) observe(s evclient.Snapshot) {
	m.prev, m.cur = m.cur, s
	m.count++
	m.connected = true
	m.lastErr = ""
}

// disconnected records a dropped stream so the frame can say so.
func (m *model) disconnected(err error) {
	m.connected = false
	m.count = 0
	if err != nil {
		m.lastErr = err.Error()
	}
}

// utilization is one worker's busy-time fraction over the last
// inter-snapshot interval: 0 until two snapshots since (re)connect both carry
// the worker.
func (m *model) utilization(worker int) float64 {
	wall := m.cur.Time.Sub(m.prev.Time)
	prev := m.prev.Scheduler.Workers
	if m.count < 2 || wall <= 0 || worker >= len(prev) {
		return 0
	}
	busy := m.cur.Scheduler.Workers[worker].BusyNs - prev[worker].BusyNs
	return clamp01(float64(busy) / float64(wall.Nanoseconds()))
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// sparkTicks are the eight block glyphs a sparkline is drawn with.
var sparkTicks = []rune("▁▂▃▄▅▆▇█")

// sparkline renders the last `width` values scaled against their own max.
func sparkline(vals []float64, width int) string {
	if len(vals) > width {
		vals = vals[len(vals)-width:]
	}
	max := 0.0
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range vals {
		idx := 0
		if max > 0 {
			idx = int(v / max * float64(len(sparkTicks)-1))
		}
		b.WriteRune(sparkTicks[idx])
	}
	return b.String()
}

// bar renders a fixed-width utilization bar, e.g. "██████░░░░".
func bar(frac float64, width int) string {
	filled := int(clamp01(frac)*float64(width) + 0.5)
	return strings.Repeat("█", filled) + strings.Repeat("░", width-filled)
}

// fmtDur prints microseconds with a sensible unit.
func fmtDur(usec float64) string {
	switch {
	case usec >= 1e6:
		return fmt.Sprintf("%.2fs", usec/1e6)
	case usec >= 1e3:
		return fmt.Sprintf("%.1fms", usec/1e3)
	default:
		return fmt.Sprintf("%.0fµs", usec)
	}
}

func fmtUptime(sec float64) string {
	d := time.Duration(sec * float64(time.Second)).Round(time.Second)
	h := int(d.Hours())
	return fmt.Sprintf("%02d:%02d:%02d", h, int(d.Minutes())%60, int(d.Seconds())%60)
}

// auditLine shows the audit pipeline's drop counters, so audit backpressure
// (records lost to a slow disk) is visible live, not just in Prometheus.
func auditLine(au evclient.AuditStatus) string {
	if !au.Enabled {
		return "audit off\n"
	}
	dropRate := 0.0
	if au.Enqueued > 0 {
		dropRate = float64(au.Dropped) / float64(au.Enqueued)
	}
	line := fmt.Sprintf("audit enq %d drop %d (%.2f%%)", au.Enqueued, au.Dropped, dropRate*100)
	if au.Dropped > 0 {
		line += " !"
	}
	return line + "\n"
}

// cacheLine shows one model's result cache: fill and lifetime hit rate.
func cacheLine(cs evclient.CacheCounters) string {
	if !cs.Enabled {
		return "cache off\n"
	}
	rate := 0.0
	if n := cs.Hits + cs.Misses; n > 0 {
		rate = float64(cs.Hits) / float64(n)
	}
	return fmt.Sprintf("cache %d/%d entries   life hit %5.1f%%   collapsed %d   first-sight %d\n",
		cs.Entries, cs.Capacity, rate*100, cs.Collapsed, cs.FirstSight)
}

// frame renders the whole dashboard as one string of \n-joined lines, no
// ANSI control — positioning is the caller's concern, which keeps this pure
// and directly testable. A header with the server-wide totals, the process's
// workers, then one block per model.
func (m *model) frame() string {
	var b strings.Builder
	s := &m.cur
	status := "live"
	if !m.connected {
		status = "RECONNECTING"
		if m.lastErr != "" {
			status += " (" + m.lastErr + ")"
		}
	}
	fmt.Fprintf(&b, "evtop — %s   %d models   up %s   [%s]\n", m.url, len(s.Models), fmtUptime(s.UptimeSec), status)
	fmt.Fprintf(&b, "queries %d   batches %d   mpes %d   propagations %d   errors %d (%d on no model)\n",
		s.Totals.Queries, s.Totals.Batches, s.Totals.MPEs, s.Totals.Propagations, s.Totals.Errors, s.Unresolved.Errors)
	if m.count > 0 {
		b.WriteString(auditLine(s.Audit))
	}
	m.workersBlock(&b)
	for i := range s.Models {
		b.WriteString("\n")
		modelBlock(&b, &s.Models[i])
	}
	return b.String()
}

// workersBlock renders the process's scheduler: the pool every model's
// dispatched runs share, one row per worker.
func (m *model) workersBlock(b *strings.Builder) {
	sc := &m.cur.Scheduler
	fmt.Fprintf(b, "workers %d   active runs %d   GL depth %d\n", sc.PoolSize, sc.ActiveRuns, sc.GlobalDepth)
	if len(sc.Workers) == 0 {
		b.WriteString("(no per-worker gauges: no run has been dispatched to workers)\n")
		return
	}
	fmt.Fprintf(b, "%3s  %-9s  %-16s  %5s  %6s  %9s  %6s\n",
		"W", "STATE", "UTIL", "QUEUE", "WT", "ITEMS", "SPLITS")
	for i, wg := range sc.Workers {
		u := m.utilization(i)
		fmt.Fprintf(b, "%3d  %-9s  %s %3.0f%%  %5d  %6d  %9d  %6d\n",
			i, wg.StateName, bar(u, 10), u*100,
			wg.QueueDepth, wg.QueueWeight, wg.Items, wg.Partitions)
	}
}

// modelBlock renders one model: its window, its engine's counters and cache.
func modelBlock(b *strings.Builder, row *evclient.ModelStats) {
	w := &row.Window
	qps := make([]float64, len(w.QPSSeries))
	for i, n := range w.QPSSeries {
		qps[i] = float64(n)
	}
	fmt.Fprintf(b, "%s   v%d %s   %s/%d workers\n", row.Name, row.Version, row.State, row.Scheduler, row.Workers)
	fmt.Fprintf(b, "qps %7.1f %s   p50 %s   p99 %s\n", w.QPS, sparkline(qps, sparkWidth), fmtDur(w.P50LatencyUsec), fmtDur(w.P99LatencyUsec))
	fmt.Fprintf(b, "err %6.2f%%   cache hit %5.1f%%   balance %.2f   window reqs %d\n",
		w.ErrorRate*100, w.CacheHitRate*100, w.LoadBalance, w.Requests)
	fmt.Fprintf(b, "propagations %d (%d inline, %d pool)   errors %d\n",
		row.Propagations, row.InlineRuns, row.PoolRuns, row.Errors)
	b.WriteString(cacheLine(row.Cache))
}
