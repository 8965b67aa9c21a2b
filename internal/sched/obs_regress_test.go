package sched

import (
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

// checkItems holds a run to WorkerMetrics.Tasks counting executed items: the
// whole tasks, every piece and one combine per cut task, which sum to the
// run's Tasks plus its Pieces.
func checkItems(t *testing.T, m *Metrics) {
	t.Helper()
	items := 0
	for _, wm := range m.Workers {
		items += wm.Tasks
	}
	if items != m.Tasks+m.Pieces {
		t.Errorf("%s run: workers executed %d items, want %d tasks + %d pieces (%d cut)",
			m.Executor, items, m.Tasks, m.Pieces, m.Partition)
	}
}

// TestWorkerTasksCountItems: both executors count a cut task as its pieces
// and its combine, not as one item.
func TestWorkerTasksCountItems(t *testing.T) {
	_, g := benchModel(t, 40, 3)
	for _, inline := range []bool{false, true} {
		st, err := g.NewState()
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Workers: 4, Threshold: 8}
		run := runOnce
		if inline {
			run = RunInline
		}
		m, err := run(st, opts)
		if err != nil {
			t.Fatal(err)
		}
		if m.Partition == 0 {
			t.Fatalf("%s run cut nothing; shrink δ", m.Executor)
		}
		checkItems(t, m)
	}
}

// TestKindBusySumsToBusy checks the per-kind split accounts for all busy time.
func TestKindBusySumsToBusy(t *testing.T) {
	st, err := gaugeTestGraph(t, 20, 4).NewState()
	if err != nil {
		t.Fatal(err)
	}
	m, err := runOnce(st, Options{Workers: 3, Threshold: 8})
	if err != nil {
		t.Fatal(err)
	}
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

// TestConcurrentTracedRuns drives several partitioned propagations through
// one pool at once; under -race this verifies the per-worker metrics of
// interleaved runs never share state, and each run counts its own items.
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
			m, err := p.Run(st, Options{Threshold: 8})
			if err != nil {
				errc <- err
				return
			}
			checkItems(t, m)
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
