package sched

import (
	"context"
	"math"
	"math/rand"
	"runtime/pprof"
	"testing"

	"evprop/internal/bayesnet"
	"evprop/internal/jtree"
	"evprop/internal/potential"
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
// benchmark models: small40's mean task of 30 entries does not pay for a
// dispatch below 35 workers, mid60 (811) pays from three — at two it is just
// under the bound of 1 000 and runs inline — wide60 (12 902) at two already,
// and one worker or no tasks means inline whatever the weights.
func TestGranularityRule(t *testing.T) {
	_, small := benchModel(t, 40, 3)
	_, mid := benchModel(t, 60, 4)
	_, wide := benchModel(t, 60, 5)
	for _, tc := range []struct {
		name    string
		g       *taskgraph.Graph
		workers int
		inline  bool
	}{
		{"small40 P=2", small, 2, true},
		{"small40 P=8", small, 8, true},
		{"small40 P=16", small, 16, true},
		{"small40 P=64", small, 64, false}, // 30 entries > 1000/63: enough workers amortize anything
		{"mid60 P=2", mid, 2, true},
		{"mid60 P=3", mid, 3, false},
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
}

// TestGranularityRuleSliced is the same rule asked about a run instead of a
// graph: evidence slices the tables, and the verdict is taken on what is left
// (taskgraph.State.Weight). At the load benchmark's evidence widths, over 50
// random queries each: small40 with 4 observed stays inline as before; wide60
// with 4 observed keeps about 0.55 of its entries, a mean task of ≈ 7 000, and
// still goes to two workers; mid60 with 30 of 60 observed is left ≈ 25 entries
// per task (136 at most in these queries) and runs inline at three and four
// workers, where the full graph dispatches — 252 near-empty tasks are not
// worth one wake-up.
func TestGranularityRuleSliced(t *testing.T) {
	for _, tc := range []struct {
		name                     string
		nodes, parents, observed int
		// the full graph's verdict and the sliced runs', at P = 2, 3, 4
		full, sliced [3]bool
	}{
		{"small40", 40, 3, 4, [3]bool{true, true, true}, [3]bool{true, true, true}},
		{"mid60", 60, 4, 30, [3]bool{true, false, false}, [3]bool{true, true, true}},
		{"wide60", 60, 5, 4, [3]bool{false, false, false}, [3]bool{false, false, false}},
	} {
		tr, g := benchModel(t, tc.nodes, tc.parents)
		vars, _ := tr.Variables()
		st, err := g.NewState()
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(18))
		for q := 0; q < 50; q++ {
			ev := potential.Evidence{}
			for _, i := range rng.Perm(len(vars))[:tc.observed] {
				ev[vars[i]] = rng.Intn(2)
			}
			if err := st.AbsorbEvidence(ev); err != nil {
				t.Fatal(err)
			}
			for i, p := range []int{2, 3, 4} {
				if got := Inline(g, p); got != tc.full[i] {
					t.Fatalf("%s P=%d: full graph Inline = %v, want %v", tc.name, p, got, tc.full[i])
				}
				if got := InlineWeight(st.Weight(), g.N(), p); got != tc.sliced[i] {
					t.Errorf("%s P=%d query %d: sliced run of %.0f entries over %d tasks: InlineWeight = %v, want %v",
						tc.name, p, q, st.Weight(), g.N(), got, tc.sliced[i])
				}
			}
		}
		st.Reset(taskgraph.SumProduct)
		if st.Weight() != g.TotalWeight() {
			t.Errorf("%s: a reset state weighs %v, its graph %v", tc.name, st.Weight(), g.TotalWeight())
		}
	}
}

// TestSplitRule is the table of the partition verdict over the three
// benchmark models and a chain-shaped tree of wide cliques, at P from 1 to
// 16. One worker cuts nothing; neither does any P the graph's own parallelism
// W/CP covers — max(P, (P−1)²), which is what leaves all three benchmark
// models whole at P = 2 — while the chain, with no parallelism of its own, is
// cut as soon as there are two workers. The verdict only grows with P, a piece
// never weighs less than a dispatch, and a Marginalize is cut only where its
// pieces dwarf the separator they each reduce into.
func TestSplitRule(t *testing.T) {
	chainTree, err := jtree.Random(jtree.RandomConfig{N: 24, Width: 14, States: 2, Degree: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, small := benchModel(t, 40, 3)
	_, mid := benchModel(t, 60, 4)
	_, wide := benchModel(t, 60, 5)
	for _, tc := range []struct {
		name string
		g    *taskgraph.Graph
		// tasks cut at P = 1, 2, 4, 8, 16
		cut [5]int
	}{
		{"small40", small, [5]int{0, 0, 0, 0, 0}}, // no table reaches four dispatches
		{"mid60", mid, [5]int{0, 0, 19, 19, 19}},
		{"wide60", wide, [5]int{0, 0, 48, 48, 48}},
		{"chain", taskgraph.Build(chainTree), [5]int{0, 92, 92, 92, 92}},
	} {
		g := tc.g
		par := g.TotalWeight() / g.CriticalPathWeight()
		if tc.name == "chain" && par > 1.01 {
			t.Fatalf("chain: W/CP = %.2f, want a graph with no parallelism", par)
		}
		var prev []int32
		for i, p := range []int{1, 2, 4, 8, 16} {
			pieces := Split(g, p)
			if again := Split(g, p); len(pieces) > 0 && &again[0] != &pieces[0] {
				t.Errorf("%s P=%d: the verdict is not cached on the graph", tc.name, p)
			}
			cut := 0
			for id, n := range pieces {
				if n < 2 {
					if n != 0 {
						t.Errorf("%s P=%d: task %d has piece count %d", tc.name, p, id, n)
					}
					continue
				}
				cut++
				task := &g.Tasks[id]
				if int(n) > p || task.Weight/float64(n) < DispatchEntries {
					t.Errorf("%s P=%d: %s cut into %d pieces", tc.name, p, task, n)
				}
				if task.Kind == taskgraph.Marginalize && task.Weight/float64(n) < 4*float64(g.SepSize(id)) {
					t.Errorf("%s P=%d: %s cut into %d pieces over a %d-entry separator", tc.name, p, task, n, g.SepSize(id))
				}
				if prev != nil && n < prev[id] {
					t.Errorf("%s P=%d: %s cut into %d pieces, %d with fewer workers", tc.name, p, task, n, prev[id])
				}
			}
			if cut != tc.cut[i] {
				t.Errorf("%s P=%d (W/CP %.2f): %d tasks cut, want %d", tc.name, p, par, cut, tc.cut[i])
			}
			if covered := par >= math.Max(float64(p), float64((p-1)*(p-1))); (p == 1 || covered) && pieces != nil {
				t.Errorf("%s P=%d (W/CP %.2f): verdict %v, want nil", tc.name, p, par, pieces)
			}
			if pieces == nil && prev != nil {
				t.Errorf("%s P=%d: nothing cut, but %v with fewer workers", tc.name, p, prev)
			}
			prev = pieces
		}
	}
	if Split(&taskgraph.Graph{}, 8) != nil {
		t.Error("an empty graph has a verdict")
	}
}

// TestAutoThresholdNeverSplitsSmall40: left to the rule, no table of the small
// model is partitioned at P=16.
func TestAutoThresholdNeverSplitsSmall40(t *testing.T) {
	_, g := benchModel(t, 40, 3)
	st, err := g.NewState()
	if err != nil {
		t.Fatal(err)
	}
	m, err := runOnce(st, Options{Workers: 16, Threshold: ThresholdAuto})
	if err != nil {
		t.Fatal(err)
	}
	if m.Partition != 0 || m.Pieces != 0 || m.Executor != ExecPool {
		t.Errorf("%d tasks split into %d pieces on executor %q", m.Partition, m.Pieces, m.Executor)
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
	// Threshold 0: every task whole, whatever pool the caller has in mind.
	m, err := RunInline(st, Options{Workers: 8, Trace: true})
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
	m, err := RunInline(st, Options{Ctx: cc, Trace: true})
	if err != context.DeadlineExceeded {
		t.Fatalf("cancelled run returned %v", err)
	}
	if m.Tasks != 10 || m.Workers[0].Tasks != 10 || len(m.Trace.Events) != 0 {
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
