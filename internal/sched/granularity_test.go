package sched

import (
	"context"
	"runtime/pprof"
	"testing"

	"evprop/internal/bayesnet"
	"evprop/internal/jtree"
	"evprop/internal/taskgraph"
)

// benchModel compiles one of the load benchmark's three generated models
// (benchmark/spec.go) the way the engine does: rerooted, then built.
func benchModel(t *testing.T, nodes, maxParents int) (*jtree.Tree, *taskgraph.Graph) {
	t.Helper()
	tr, err := bayesnet.RandomNetwork(nodes, 2, maxParents, 7).Compile()
	if err != nil {
		t.Fatal(err)
	}
	if r := tr.SelectRoot(); r != tr.Root {
		if tr, err = tr.Reroot(r); err != nil {
			t.Fatal(err)
		}
	}
	return tr, taskgraph.Build(tr)
}

// TestGranularityRule is the table of the one weight rule over the three
// benchmark models: small40's mean task of 32 entries does not pay for a
// dispatch below 14 workers, mid60 (893) and wide60 (14 110) pay at two
// already, and one worker or no tasks means inline whatever the
// weights. The same constant floors the automatic δ.
func TestGranularityRule(t *testing.T) {
	smallTree, small := benchModel(t, 40, 3)
	midTree, mid := benchModel(t, 60, 4)
	wideTree, wide := benchModel(t, 60, 5)
	for _, tc := range []struct {
		name    string
		g       *taskgraph.Graph
		workers int
		inline  bool
	}{
		{"small40 P=2", small, 2, true},
		{"small40 P=8", small, 8, true},
		{"small40 P=64", small, 64, false}, // 32 entries > 400/63: enough workers amortize anything
		{"mid60 P=2", mid, 2, false},
		{"wide60 P=2", wide, 2, false},
		{"small40 P=1", small, 1, true},
		{"mid60 P=1", mid, 1, true},
		{"wide60 P=1", wide, 1, true},
		{"wide60 P=0", wide, 0, true},
		{"empty P=8", &taskgraph.Graph{}, 8, true},
	} {
		if got := Inline(tc.g, tc.workers); got != tc.inline {
			mean := 0.0
			if tc.g.N() > 0 {
				mean = tc.g.TotalWeight() / float64(tc.g.N())
			}
			t.Errorf("%s: Inline = %v, want %v (mean task %.0f entries)", tc.name, got, tc.inline, mean)
		}
	}
	// δ: the floor lifts small40's 2×mean of 56; the two models whose pieces
	// were already dearer than a dispatch keep the δ they had.
	for _, tc := range []struct {
		name string
		tree *jtree.Tree
		δ    int
	}{{"small40", smallTree, 400}, {"mid60", midTree, 1000}, {"wide60", wideTree, 18896}} {
		if got := AutoThreshold(tc.tree); got != tc.δ {
			t.Errorf("%s: automatic δ = %d, want %d", tc.name, got, tc.δ)
		}
	}
}

// TestAutoThresholdNeverSplitsSmall40: at the floored δ no table of the
// small model is partitionable, under either parallel scheduler at P=16.
func TestAutoThresholdNeverSplitsSmall40(t *testing.T) {
	tr, g := benchModel(t, 40, 3)
	for name, pol := range policies {
		st, err := g.NewState()
		if err != nil {
			t.Fatal(err)
		}
		m, err := pol.run(st, Options{Workers: 16, Threshold: AutoThreshold(tr)})
		if err != nil {
			t.Fatal(err)
		}
		if m.Partition != 0 || m.Pieces != 0 || m.Executor != ExecPool {
			t.Errorf("%s: %d tasks split into %d pieces on executor %q", name, m.Partition, m.Pieces, m.Executor)
		}
	}
}

// TestRunInlineIsRunSerial: the inline executor leaves the state bit for bit
// as the serial reference does, and reports the run as one worker would.
func TestRunInlineIsRunSerial(t *testing.T) {
	tr, g := benchModel(t, 40, 3)
	ref := referenceState(t, g, nil)
	st, err := g.NewState()
	if err != nil {
		t.Fatal(err)
	}
	// Workers and Threshold are a pool's business: inline ignores both.
	m, err := RunInline(st, Options{Workers: 8, Threshold: 8, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tr.N(); i++ {
		if !st.Clique[i].Equal(ref.Clique[i], 0) {
			t.Fatalf("clique %d differs from the serial reference", i)
		}
	}
	if m.Executor != ExecInline || len(m.Workers) != 1 || m.Tasks != g.N() || m.Pieces != 0 || m.Partition != 0 {
		t.Errorf("metrics %+v", m)
	}
	w := m.Workers[0]
	var kinds int64
	for _, d := range w.KindBusy {
		kinds += int64(d)
	}
	if w.Tasks != g.N() || w.Busy != m.Elapsed || w.Overhead != 0 || kinds != int64(w.Busy) {
		t.Errorf("worker column %+v over %v", w, m.Elapsed)
	}
	// The trace is the serial order, back to back on worker 0.
	order, _ := g.TopoOrder()
	if m.Trace == nil || len(m.Trace.Events) != g.N() || m.Trace.Workers != 1 {
		t.Fatalf("trace %+v", m.Trace)
	}
	for i, ev := range m.Trace.Events {
		if ev.Worker != 0 || ev.Task != order[i] || ev.Kind != g.Tasks[order[i]].Kind || ev.Hi != -1 {
			t.Fatalf("event %d = %+v, want task %d", i, ev, order[i])
		}
		if i > 0 && ev.Start != m.Trace.Events[i-1].End {
			t.Fatalf("event %d starts at %v, previous ended %v", i, ev.Start, m.Trace.Events[i-1].End)
		}
	}
}

// TestRunInlineCancelAndLabels: a context that expires mid-graph stops the
// run at that task boundary, and a labelled run leaves the calling goroutine
// with the labels it came with.
func TestRunInlineCancelAndLabels(t *testing.T) {
	_, g := benchModel(t, 40, 3)
	st, err := g.NewState()
	if err != nil {
		t.Fatal(err)
	}
	cc := &countdownCtx{Context: context.Background()}
	cc.left.Store(10)
	m, err := RunInline(st, Options{Ctx: cc, Trace: true, LazyTrace: true})
	if err != context.DeadlineExceeded {
		t.Fatalf("cancelled run returned %v", err)
	}
	if m.Tasks != 10 || m.Workers[0].Tasks != 10 || len(m.Trace.Events) != 0 || m.Trace.bufs != nil {
		t.Errorf("cancelled after 10 polls: %d tasks, trace %+v", m.Tasks, m.Trace)
	}

	outer := pprof.WithLabels(context.Background(), pprof.Labels("caller", "kept"))
	pprof.SetGoroutineLabels(outer)
	defer pprof.SetGoroutineLabels(context.Background())
	st.Reset(taskgraph.SumProduct)
	if _, err := RunInline(st, Options{Ctx: outer, QueryID: "q-inline"}); err != nil {
		t.Fatal(err)
	}
	// The run's labelled contexts derive from opts.Ctx, so restoring opts.Ctx
	// drops query_id and task_kind and keeps the caller's own label.
	if _, leaked := pprof.Label(outer, "query_id"); leaked {
		t.Fatal("caller's context gained a run label")
	}
	var got []string
	pprof.ForLabels(outer, func(k, v string) bool { got = append(got, k+"="+v); return true })
	if len(got) != 1 || got[0] != "caller=kept" {
		t.Errorf("labels after the run: %v", got)
	}
}
