package sched

import (
	"fmt"
	"io"
	"sort"
	"time"

	"evprop/internal/taskgraph"
)

// Event is one executed item (task, piece or combiner) on a worker's
// timeline, with times relative to the run's start.
type Event struct {
	Worker int
	Task   int
	Kind   taskgraph.Kind // primitive kind of the task
	Lo, Hi int            // piece range; Lo==0 && Hi==-1 for whole tasks
	Comb   bool
	Start  time.Duration
	End    time.Duration
}

// Trace is the execution timeline of one collaborative-scheduler run,
// recorded when Options.Trace is set.
type Trace struct {
	Workers int
	Events  []Event // ordered by (Worker, Start)
	Total   time.Duration
}

// BusySpans returns, for one worker, the merged [start,end) spans during
// which it executed primitives. The merge requires the worker's events in
// Start order; traces produced by a run are in that order, but hand-built
// or concatenated traces may not be, so the worker's events are sorted
// defensively here — an unsorted input would otherwise silently swallow
// earlier events into later spans.
func (tr *Trace) BusySpans(worker int) [][2]time.Duration {
	var evs []Event
	for _, e := range tr.Events {
		if e.Worker == worker {
			evs = append(evs, e)
		}
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].Start < evs[j].Start })
	var spans [][2]time.Duration
	for _, e := range evs {
		end := e.End
		if end < e.Start {
			end = e.Start // degenerate event: clamp rather than corrupt the merge
		}
		if n := len(spans); n > 0 && e.Start <= spans[n-1][1] {
			if end > spans[n-1][1] {
				spans[n-1][1] = end
			}
			continue
		}
		spans = append(spans, [2]time.Duration{e.Start, end})
	}
	return spans
}

// Gantt renders the trace as a fixed-width text chart, one row per worker:
// '█' marks time executing primitives, '·' idle or scheduling time. It is
// the real-execution counterpart of the paper's Fig. 8.
func (tr *Trace) Gantt(w io.Writer, width int) {
	if width < 10 {
		width = 10
	}
	if tr.Total <= 0 {
		fmt.Fprintln(w, "(empty trace)")
		return
	}
	fmt.Fprintf(w, "gantt: %d workers over %v ('█' executing, '·' idle/scheduling)\n", tr.Workers, tr.Total)
	scale := float64(width) / float64(tr.Total)
	for worker := 0; worker < tr.Workers; worker++ {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		for _, span := range tr.BusySpans(worker) {
			lo := int(float64(span[0]) * scale)
			hi := int(float64(span[1]) * scale)
			// Clamp both ends: events recorded past Total (or hand-built
			// traces with a stale Total) would otherwise index out of range.
			if lo < 0 {
				lo = 0
			}
			if lo >= width {
				lo = width - 1
			}
			if hi >= width {
				hi = width - 1
			}
			for i := lo; i <= hi; i++ {
				row[i] = '#'
			}
		}
		// Swap in the display runes (byte slice keeps the hot loop simple).
		line := make([]rune, width)
		for i, b := range row {
			if b == '#' {
				line[i] = '█'
			} else {
				line[i] = '·'
			}
		}
		fmt.Fprintf(w, "w%-2d %s\n", worker, string(line))
	}
}

// Utilization returns the busy fraction of each worker's timeline, always
// in [0, 1]. BusySpans merges overlapping events, so pieces of a
// partitioned task and the combiner a worker runs inline immediately after
// its last piece are not double-counted, and spans are clamped to Total so
// an event recorded a hair past the measured elapsed time cannot push a
// worker above full utilization.
func (tr *Trace) Utilization() []float64 {
	out := make([]float64, tr.Workers)
	if tr.Total <= 0 {
		return out
	}
	for worker := 0; worker < tr.Workers; worker++ {
		var busy time.Duration
		for _, span := range tr.BusySpans(worker) {
			lo, hi := span[0], span[1]
			if lo > tr.Total {
				continue
			}
			if hi > tr.Total {
				hi = tr.Total
			}
			busy += hi - lo
		}
		out[worker] = float64(busy) / float64(tr.Total)
	}
	return out
}
