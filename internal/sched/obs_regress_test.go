package sched

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"evprop/internal/jtree"
	"evprop/internal/taskgraph"
)

// TestPartitionRoundRobinWrapAround pins the round-robin cursor fix: the
// piece-spreading slot must stay a valid index after the cursor wraps. With
// the old signed cursor (int64 at MaxInt64), int(cursor+1) % len goes
// negative and partition panics with an out-of-range index.
func TestPartitionRoundRobinWrapAround(t *testing.T) {
	tr, err := jtree.Random(jtree.RandomConfig{N: 8, Width: 6, States: 2, Degree: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.MaterializeRandom(5); err != nil {
		t.Fatal(err)
	}
	g := taskgraph.Build(tr)
	st, err := g.NewState()
	if err != nil {
		t.Fatal(err)
	}
	const δ = 8
	// Find a task that splits into at least 3 pieces, so partition pushes
	// pieces to other lists (the code path that indexes lists[slot]).
	task := -1
	for id := 0; id < g.N(); id++ {
		if st.PartitionSize(id) >= 3*δ {
			task = id
			break
		}
	}
	if task < 0 {
		t.Fatal("no partitionable task in the test graph")
	}
	// A run whose lists no worker drains: partition pushes the spread pieces
	// and executes only the first piece inline, which never completes the
	// combiner — exactly the slot-indexing path, with nothing concurrent.
	gg := NewGauges(3)
	r := &run{
		st:   st,
		g:    g,
		opts: Options{Threshold: δ},
		deps: g.DepCounts(),
		p: &Pool{gauges: gg, lists: []*localList{
			newLocalList(gg.worker(0)), newLocalList(gg.worker(1)), newLocalList(gg.worker(2))}},
		remaining: int64(g.N()),
		metrics:   make([]WorkerMetrics, 3),
		done:      make(chan struct{}),
		start:     time.Now(),
	}
	// Two increments below the wrap point: the pieces pushed here walk the
	// cursor across ^uint64(0) → 0.
	r.rr = ^uint64(0) - 2
	r.partition(0, task, st.PartitionSize(task), snapStep(δ, g.Tasks[task].Grain))
	if r.rr < 3 {
		// The cursor must actually have wrapped for this test to bite.
		t.Logf("cursor wrapped to %d", r.rr)
	}
}

// TestBusySpansUnsortedEvents pins the defensive sort: BusySpans on a trace
// whose events are not in Start order (hand-built, or two traces appended)
// must not swallow earlier events.
func TestBusySpansUnsortedEvents(t *testing.T) {
	tr := &Trace{
		Workers: 1,
		Total:   100,
		Events: []Event{
			{Worker: 0, Start: 50, End: 60},
			{Worker: 0, Start: 0, End: 10}, // out of order
		},
	}
	spans := tr.BusySpans(0)
	if len(spans) != 2 {
		t.Fatalf("spans = %v, want two disjoint spans", spans)
	}
	var busy time.Duration
	for _, s := range spans {
		busy += s[1] - s[0]
	}
	if busy != 20 {
		t.Errorf("busy %v, want 20 (pre-fix merge swallowed the earlier event)", busy)
	}
}

// TestBusySpansDegenerateEvent checks that an event with End < Start (clock
// weirdness in a hand-built trace) is clamped instead of corrupting spans.
func TestBusySpansDegenerateEvent(t *testing.T) {
	tr := &Trace{
		Workers: 1,
		Total:   100,
		Events: []Event{
			{Worker: 0, Start: 10, End: 5},
			{Worker: 0, Start: 20, End: 30},
		},
	}
	spans := tr.BusySpans(0)
	for _, s := range spans {
		if s[1] < s[0] {
			t.Fatalf("negative-length span %v", s)
		}
	}
}

// TestGanttClampsOutOfRangeSpans pins the lo clamp: spans that scale to a
// negative or past-the-row start index (hand-built traces with negative
// Starts or a stale Total) must be clamped like hi already was. Pre-fix a
// negative start indexed out of range and Gantt panicked.
func TestGanttClampsOutOfRangeSpans(t *testing.T) {
	tr := &Trace{
		Workers: 1,
		Total:   100,
		Events: []Event{
			{Worker: 0, Start: -50, End: 10},  // starts before the run
			{Worker: 0, Start: 150, End: 170}, // entirely past Total
		},
	}
	var buf bytes.Buffer
	tr.Gantt(&buf, 20) // pre-fix: index out of range
	if buf.Len() == 0 {
		t.Error("no gantt output")
	}
}

// TestUtilizationPartitionedRun checks that utilizations stay within [0, 1]
// on a heavily partitioned run, where a worker's last piece and the combiner
// it runs inline produce adjacent events whose naive sum double-counts.
func TestUtilizationPartitionedRun(t *testing.T) {
	m := tracedRun(t, 4, 4) // tiny δ: everything splits
	if m.Partition == 0 {
		t.Fatal("run partitioned nothing; shrink δ")
	}
	for w, f := range m.Trace.Utilization() {
		if f < 0 || f > 1 {
			t.Errorf("worker %d utilization %v outside [0, 1]", w, f)
		}
	}
}

// TestTraceEventsCarryKind checks every recorded event is tagged with its
// task's primitive kind (the per-kind breakdown depends on it).
func TestTraceEventsCarryKind(t *testing.T) {
	m := tracedRun(t, 2, 8)
	for _, e := range m.Trace.Events {
		if e.Kind < 0 || int(e.Kind) >= taskgraph.NumKinds {
			t.Fatalf("event kind %d out of range", e.Kind)
		}
	}
}

// TestKindBusySumsToBusy checks the per-kind split accounts for all busy time.
func TestKindBusySumsToBusy(t *testing.T) {
	m := tracedRun(t, 3, 8)
	for w, wm := range m.Workers {
		var kinds time.Duration
		for _, d := range wm.KindBusy {
			kinds += d
		}
		if kinds != wm.Busy {
			t.Errorf("worker %d: kind times %v != busy %v", w, kinds, wm.Busy)
		}
	}
}

// TestConcurrentTracedRuns drives several traced, partitioned propagations
// through one pool at once; under -race this verifies the per-worker trace
// buffers and metrics of interleaved runs never share state.
func TestConcurrentTracedRuns(t *testing.T) {
	collaborative(t, testConcurrentTracedRuns)
}

func testConcurrentTracedRuns(t *testing.T) {
	tr, err := jtree.Random(jtree.RandomConfig{N: 24, Width: 6, States: 2, Degree: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.MaterializeRandom(6); err != nil {
		t.Fatal(err)
	}
	g := taskgraph.Build(tr)
	p, err := NewPool(4)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var wg sync.WaitGroup
	errc := make(chan error, 6)
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := g.NewState()
			if err != nil {
				errc <- err
				return
			}
			m, err := p.Run(st, Options{Threshold: 8, Trace: true})
			if err != nil {
				errc <- err
				return
			}
			items := 0
			for _, wm := range m.Workers {
				items += wm.Tasks
			}
			if len(m.Trace.Events) != items {
				t.Errorf("%d events, %d executed items", len(m.Trace.Events), items)
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
