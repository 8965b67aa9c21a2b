package sched

import (
	"bytes"
	"strings"
	"testing"

	"evprop/internal/jtree"
	"evprop/internal/taskgraph"
)

func tracedRun(t *testing.T, workers, threshold int) *Metrics {
	t.Helper()
	tr, err := jtree.Random(jtree.RandomConfig{N: 20, Width: 5, States: 2, Degree: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.MaterializeRandom(8); err != nil {
		t.Fatal(err)
	}
	g := taskgraph.Build(tr)
	st, err := g.NewState()
	if err != nil {
		t.Fatal(err)
	}
	m, err := runOnce(st, Options{Workers: workers, Threshold: threshold, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTraceRecordsEveryItem(t *testing.T) {
	m := tracedRun(t, 3, 8)
	if m.Trace == nil {
		t.Fatal("no trace recorded")
	}
	items := 0
	for _, wm := range m.Workers {
		items += wm.Tasks
	}
	if len(m.Trace.Events) != items {
		t.Errorf("%d events, %d executed items", len(m.Trace.Events), items)
	}
	for _, e := range m.Trace.Events {
		if e.Start < 0 || e.End < e.Start || e.End > m.Elapsed {
			t.Errorf("event %+v outside [0, %v]", e, m.Elapsed)
		}
		if e.Worker < 0 || e.Worker >= 3 {
			t.Errorf("event worker %d out of range", e.Worker)
		}
	}
}

func TestTraceEventsPerWorkerDisjoint(t *testing.T) {
	// Each worker executes items one at a time: its events must not
	// overlap (each starts at or after the previous one's end).
	m := tracedRun(t, 4, 0)
	for w := 0; w < 4; w++ {
		var prevEnd int64 = -1
		for _, e := range m.Trace.Events {
			if e.Worker != w {
				continue
			}
			if int64(e.Start) < prevEnd {
				t.Fatalf("worker %d: event starting %v overlaps previous ending %v", w, e.Start, prevEnd)
			}
			prevEnd = int64(e.End)
		}
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	tr, err := jtree.Chain(3, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.MaterializeUniform(); err != nil {
		t.Fatal(err)
	}
	g := taskgraph.Build(tr)
	st, err := g.NewState()
	if err != nil {
		t.Fatal(err)
	}
	m, err := runOnce(st, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if m.Trace != nil {
		t.Error("trace recorded without Options.Trace")
	}
}

func TestGanttRendering(t *testing.T) {
	m := tracedRun(t, 2, 8)
	var buf bytes.Buffer
	m.Trace.Gantt(&buf, 40)
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 { // header + 2 workers
		t.Fatalf("gantt has %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "█") {
		t.Error("worker 0 row shows no busy time")
	}
	if !strings.HasPrefix(lines[1], "w0") || !strings.HasPrefix(lines[2], "w1") {
		t.Error("worker labels missing")
	}
}

func TestGanttEmptyTrace(t *testing.T) {
	tr := &Trace{Workers: 2}
	var buf bytes.Buffer
	tr.Gantt(&buf, 20)
	if !strings.Contains(buf.String(), "empty") {
		t.Error("empty trace not reported")
	}
}

func TestUtilization(t *testing.T) {
	m := tracedRun(t, 2, 8)
	u := m.Trace.Utilization()
	if len(u) != 2 {
		t.Fatalf("%d utilizations", len(u))
	}
	for w, f := range u {
		if f < 0 || f > 1.0001 {
			t.Errorf("worker %d utilization %v out of [0,1]", w, f)
		}
	}
	// On a serial workload the sum of utilizations is at most ~1 per
	// concurrently usable core; it must at least be positive.
	if u[0]+u[1] <= 0 {
		t.Error("no recorded busy time")
	}
}

func TestBusySpansMerge(t *testing.T) {
	tr := &Trace{
		Workers: 1,
		Total:   100,
		Events: []Event{
			{Worker: 0, Start: 0, End: 10},
			{Worker: 0, Start: 10, End: 20}, // adjacent: merges
			{Worker: 0, Start: 50, End: 60},
		},
	}
	spans := tr.BusySpans(0)
	if len(spans) != 2 {
		t.Fatalf("spans = %v", spans)
	}
	if spans[0][0] != 0 || spans[0][1] != 20 || spans[1][0] != 50 {
		t.Errorf("spans = %v", spans)
	}
}
