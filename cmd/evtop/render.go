package main

import (
	"fmt"
	"strings"
	"time"

	evclient "evprop/client"
)

// snapshot is one /v1/stream event, decoded by the evclient package (the
// wire format is the contract, not the type).
type snapshot = evclient.Snapshot

// histLen bounds the sparkline history (one entry per stream event).
const histLen = 60

// model is the dashboard state: the two latest snapshots (utilization is a
// rate, so it needs a delta) plus bounded history for the sparklines.
type model struct {
	url       string
	cur, prev snapshot
	count     int // snapshots seen since (re)connect
	qpsHist   []float64
	p99Hist   []float64
	connected bool
	lastErr   string
	// util is per-worker busy-time fraction over the last inter-snapshot
	// interval, computed in observe.
	util []float64
	// stats is the latest /v1/stats poll (nil until the first succeeds): the
	// lifetime cache counters and the audit pipeline's drop counters, which
	// the SSE stream does not carry.
	stats *evclient.Stats
}

// observeStats folds one /v1/stats poll into the model.
func (m *model) observeStats(st *evclient.Stats) { m.stats = st }

// observe folds one stream event into the model.
func (m *model) observe(s snapshot) {
	m.prev, m.cur = m.cur, s
	m.count++
	m.connected = true
	m.lastErr = ""
	m.qpsHist = pushHist(m.qpsHist, s.QPS)
	m.p99Hist = pushHist(m.p99Hist, s.P99Usec)
	m.util = m.util[:0]
	wall := s.Time.Sub(m.prev.Time)
	for i, w := range s.Gauges.Workers {
		u := 0.0
		if m.count > 1 && wall > 0 && i < len(m.prev.Gauges.Workers) {
			u = float64(w.BusyNs-m.prev.Gauges.Workers[i].BusyNs) / float64(wall.Nanoseconds())
		}
		m.util = append(m.util, clamp01(u))
	}
}

// disconnected records a dropped stream so the frame can say so.
func (m *model) disconnected(err error) {
	m.connected = false
	m.count = 0
	if err != nil {
		m.lastErr = err.Error()
	}
}

func pushHist(h []float64, v float64) []float64 {
	h = append(h, v)
	if len(h) > histLen {
		h = h[len(h)-histLen:]
	}
	return h
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

// statsLine renders the /v1/stats-sourced row: lifetime cache hit rate and
// the audit pipeline's drop counters, so audit backpressure (records lost
// to a slow disk) is visible live, not just in Prometheus.
func (m *model) statsLine() string {
	if m.stats == nil {
		return ""
	}
	var b strings.Builder
	cs := m.stats.Cache
	if cs.Enabled {
		rate := 0.0
		if n := cs.Hits + cs.Misses; n > 0 {
			rate = float64(cs.Hits) / float64(n)
		}
		fmt.Fprintf(&b, "cache %d/%d entries   life hit %5.1f%%   collapsed %d   first-sight %d",
			cs.Entries, cs.Capacity, rate*100, cs.Collapsed, cs.FirstSight)
	} else {
		b.WriteString("cache off")
	}
	au := m.stats.Audit
	if au.Enabled {
		dropRate := 0.0
		if au.Enqueued > 0 {
			dropRate = float64(au.Dropped) / float64(au.Enqueued)
		}
		fmt.Fprintf(&b, "   audit enq %d drop %d (%.2f%%)", au.Enqueued, au.Dropped, dropRate*100)
		if au.Dropped > 0 {
			b.WriteString(" !")
		}
	} else {
		b.WriteString("   audit off")
	}
	b.WriteString("\n")
	return b.String()
}

// frame renders the whole dashboard as one string of \n-joined lines, no
// ANSI control — positioning is the caller's concern, which keeps this pure
// and directly testable.
func (m *model) frame() string {
	var b strings.Builder
	s := m.cur
	status := "live"
	if !m.connected {
		status = "RECONNECTING"
		if m.lastErr != "" {
			status += " (" + m.lastErr + ")"
		}
	}
	fmt.Fprintf(&b, "evtop — %s   %s/%d workers   up %s   [%s]\n",
		m.url, s.Scheduler, s.Workers, fmtUptime(s.UptimeSec), status)
	fmt.Fprintf(&b, "qps %7.1f %s\n", s.QPS, sparkline(m.qpsHist, 30))
	fmt.Fprintf(&b, "p99 %7s %s   p50 %s\n", fmtDur(s.P99Usec), sparkline(m.p99Hist, 30), fmtDur(s.P50Usec))
	fmt.Fprintf(&b, "err %6.2f%%   cache hit %5.1f%%   balance %.2f   window reqs %d\n",
		s.ErrorRate*100, s.CacheHitRate*100, s.LoadBalance, s.Requests)
	fmt.Fprintf(&b, "GL depth %d   active runs %d   propagations %d   errors %d\n",
		s.Gauges.GlobalDepth, s.Gauges.ActiveRuns, s.Propagations, s.Errors)
	b.WriteString(m.statsLine())
	b.WriteString("\n")
	if len(s.Gauges.Workers) == 0 {
		b.WriteString("(no per-worker gauges: no run has been dispatched to workers)\n")
		return b.String()
	}
	fmt.Fprintf(&b, "%3s  %-9s  %-16s  %5s  %6s  %9s  %6s\n",
		"W", "STATE", "UTIL", "QUEUE", "WT", "ITEMS", "SPLITS")
	for i, w := range s.Gauges.Workers {
		u := 0.0
		if i < len(m.util) {
			u = m.util[i]
		}
		fmt.Fprintf(&b, "%3d  %-9s  %s %3.0f%%  %5d  %6d  %9d  %6d\n",
			i, w.State, bar(u, 10), u*100,
			w.QueueDepth, w.QueueWeight, w.Items, w.Partitions)
	}
	return b.String()
}
