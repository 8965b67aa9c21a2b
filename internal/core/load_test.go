package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"evprop/internal/jtree"
	"evprop/internal/potential"
	"evprop/internal/sched"
	"evprop/internal/taskgraph"
)

// The tests of the run under load: the granularity rule prices a run at the
// engine's workers over the runs in flight on the process's pool of that size,
// and a run that load keeps off the workers computes what it would have computed
// on them. None reads a clock: company is a run held open on a channel.

// holdExecutor is a one-task run that stays in flight for as long as the test
// wants: Execute says it has started, then blocks until released, and returns
// fail.
type holdExecutor struct {
	g       *taskgraph.Graph
	entered chan struct{}
	release chan struct{}
	fail    error
}

func (h *holdExecutor) Graph() *taskgraph.Graph { return h.g }
func (h *holdExecutor) Execute(int) error {
	h.entered <- struct{}{}
	<-h.release
	return h.fail
}
func (h *holdExecutor) ExecutePiece(int, int, int, *potential.Potential) error { return nil }
func (h *holdExecutor) PartitionSize(int) int                                  { return 1 }
func (h *holdExecutor) NewPartialBuffer(int) *potential.Potential              { return nil }
func (h *holdExecutor) Combine(int, []*potential.Potential) error              { return nil }
func (h *holdExecutor) RunSerial() error                                       { return h.Execute(0) }

// newHold returns a hold whose Execute can announce itself announce times
// without a reader.
func newHold(announce int, fail error) *holdExecutor {
	return &holdExecutor{
		g:       &taskgraph.Graph{Tasks: []taskgraph.Task{{Kind: taskgraph.Divide, Weight: 1}}},
		entered: make(chan struct{}, announce),
		release: make(chan struct{}),
		fail:    fail,
	}
}

// holdRuns puts n runs in flight on the engine and returns once each is inside
// its task. The returned function lets them finish and waits until they have.
func holdRuns(t *testing.T, on *Engine, n int) (release func()) {
	t.Helper()
	h := newHold(0, nil)
	done := make(chan error)
	for i := 0; i < n; i++ {
		go func() {
			_, _, err := on.runScheduler(context.Background(), "", h, false)
			done <- err
		}()
	}
	for i := 0; i < n; i++ {
		<-h.entered
	}
	return func() {
		close(h.release)
		for i := 0; i < n; i++ {
			if err := <-done; err != nil {
				t.Errorf("held run: %v", err)
			}
		}
	}
}

// neighbour is an engine over another graph — two cliques — that borrows the
// same pool as every engine compiled at workers: the company a run keeps on a
// server with more than one model.
func neighbour(t *testing.T, workers int) *Engine {
	t.Helper()
	tr, err := jtree.Random(jtree.RandomConfig{N: 2, Width: 2, States: 2, Degree: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(tr, Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestLoadAwareExecutor: a run of the wide benchmark model, worth dispatching to
// two workers when it is alone, stays on its goroutine behind one other run at
// Workers 2; at Workers 4 one other run leaves it two workers' worth, still
// the pool's, and three leave it one. The dispatch seam and the serial
// scheduler do not ask. The count is the pool's, so company prices a run
// whichever engine of the same P keeps it — another model's as much as its own
// — and a failed and a cancelled run leave the count where they found it.
func TestLoadAwareExecutor(t *testing.T) {
	tr := benchmarkModel(t, 60, 5)
	vars, cardOf := tr.Variables()
	ev := randomEvidence(rand.New(rand.NewSource(23)), vars, cardOf, 4)
	for _, tc := range []struct {
		name     string
		opts     Options
		company  int
		own      bool // the company is the engine's own, not a neighbour's
		executor string
		peff     int
	}{
		{"P=2 alone", Options{Workers: 2}, 0, false, sched.ExecPool, 2},
		{"P=2 behind one", Options{Workers: 2}, 1, false, sched.ExecInline, 1},
		{"P=2 behind one of its own", Options{Workers: 2}, 1, true, sched.ExecInline, 1},
		{"P=4 behind one", Options{Workers: 4}, 1, false, sched.ExecPool, 2},
		{"P=4 behind three", Options{Workers: 4}, 3, false, sched.ExecInline, 1},
		{"P=4 behind three of its own", Options{Workers: 4}, 3, true, sched.ExecInline, 1},
		{"P=4 behind seven", Options{Workers: 4}, 7, false, sched.ExecInline, 1},
		{"forced behind three", Options{Workers: 2, ForceDispatch: true}, 3, false, sched.ExecPool, 1},
		{"serial alone", Options{Workers: 2, Scheduler: Serial}, 0, false, sched.ExecInline, 2},
	} {
		tc.opts.Reroot = true
		e, err := NewEngine(tr, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		host := e
		if !tc.own {
			host = neighbour(t, tc.opts.Workers)
		}
		release := holdRuns(t, host, tc.company)
		if k := e.pool.RunsInFlight(); k != int64(tc.company) {
			t.Errorf("%s: %d runs in flight, want %d", tc.name, k, tc.company)
		}
		_, rec, err := e.propagateFull(context.Background(), ev, nil, taskgraph.SumProduct, "", nil)
		release()
		if err != nil {
			t.Fatal(err)
		}
		if rec.Report.Executor != tc.executor || rec.EffectiveWorkers != tc.peff {
			t.Errorf("%s: ran on %q priced at %d workers, want %q at %d",
				tc.name, rec.Report.Executor, rec.EffectiveWorkers, tc.executor, tc.peff)
		}
		if k := e.pool.RunsInFlight(); k != 0 {
			t.Fatalf("%s: %d runs in flight afterwards", tc.name, k)
		}
	}

	// Runs that end badly count out too: a task that fails, and a context that
	// expires mid-graph, on the pool and inline.
	e, err := NewEngine(tr, Options{Workers: 2, Reroot: true})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	h := newHold(1, boom)
	close(h.release)
	if _, _, err := e.runScheduler(context.Background(), "", h, false); !errors.Is(err, boom) {
		t.Fatalf("failing run returned %v", err)
	}
	if k := e.pool.RunsInFlight(); k != 0 {
		t.Errorf("%d runs in flight after a failed run", k)
	}
	for _, company := range []int{0, 1} {
		release := holdRuns(t, neighbour(t, 2), company)
		cc := &countdownCtx{Context: context.Background()}
		cc.left.Store(20)
		_, err := e.PropagateContext(cc, ev)
		release()
		if err != context.DeadlineExceeded {
			t.Fatalf("cancelled run behind %d returned %v", company, err)
		}
		if k := e.pool.RunsInFlight(); k != 0 {
			t.Errorf("%d runs in flight after a cancelled run behind %d", k, company)
		}
	}
}

// tableBits is every clique and separator table of a result, entry by entry.
func tableBits(t *testing.T, res *Result) [][]uint64 {
	t.Helper()
	st := res.State()
	var out [][]uint64
	for i := range st.Clique {
		out = append(out, bitsOf(st.Clique[i].Data))
		if st.Sep[i] != nil {
			out = append(out, bitsOf(st.Sep[i].Data))
		}
	}
	return out
}

// TestLoadedInlineBitIdentical: on graphs the split rule cuts at the engine's P
// — a chain of wide cliques at two workers, the wide benchmark model at four —
// the same evidence alone, on the pool, and behind enough held runs to be kept
// inline leaves every clique and separator table the same under Float64bits,
// sum- and max-product, with the same pieces counted. The sum-product tables
// differ from a whole-task serial run's in at least one entry: a cut
// Marginalize associates its sum by piece, so an inline run that ran it whole
// would fail here. (Max is exact under any association; the max-product runs
// only have to agree.)
func TestLoadedInlineBitIdentical(t *testing.T) {
	chain, err := jtree.Random(jtree.RandomConfig{N: 24, Width: 14, States: 2, Degree: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := chain.MaterializeRandom(3); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name             string
		tree             *jtree.Tree
		workers, company int
	}{
		{"chain P=2", chain, 2, 1},
		{"wide60 P=4", benchmarkModel(t, 60, 5), 4, 3},
	} {
		vars, cardOf := tc.tree.Variables()
		ev := randomEvidence(rand.New(rand.NewSource(29)), vars, cardOf, 4)
		e, err := NewEngine(tc.tree, Options{Workers: tc.workers, PartitionThreshold: sched.ThresholdAuto})
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []taskgraph.Mode{taskgraph.SumProduct, taskgraph.MaxProduct} {
			alone, arec, err := e.propagateFull(context.Background(), ev, nil, mode, "", nil)
			if err != nil {
				t.Fatal(err)
			}
			release := holdRuns(t, neighbour(t, tc.workers), tc.company)
			loaded, lrec, err := e.propagateFull(context.Background(), ev, nil, mode, "", nil)
			release()
			if err != nil {
				t.Fatal(err)
			}
			if a, l := arec.Report, lrec.Report; a.Executor != sched.ExecPool || a.Pieces == 0 ||
				l.Executor != sched.ExecInline || l.Pieces != a.Pieces || l.Partitioned != a.Partitioned {
				t.Fatalf("%s %v: alone %q cut %d tasks into %d pieces, loaded %q cut %d into %d",
					tc.name, mode, a.Executor, a.Partitioned, a.Pieces, l.Executor, l.Partitioned, l.Pieces)
			}
			want := tableBits(t, alone)
			if !reflect.DeepEqual(tableBits(t, loaded), want) {
				t.Errorf("%s %v: the run kept inline by load differs from the pool's", tc.name, mode)
			}
			if math.Float64bits(alone.ProbabilityOfEvidence()) != math.Float64bits(loaded.ProbabilityOfEvidence()) {
				t.Errorf("%s %v: P(e) differs", tc.name, mode)
			}
			if mode == taskgraph.SumProduct {
				whole, err := e.absorb(mode, ev)
				if err != nil {
					t.Fatal(err)
				}
				if err := whole.RunSerial(); err != nil {
					t.Fatal(err)
				}
				if reflect.DeepEqual(tableBits(t, &Result{state: whole}), want) {
					t.Errorf("%s: the partitioned run equals the whole-task one bit for bit — the replay is not being tested", tc.name)
				}
			}
		}
	}
}

// TestTwoEnginesShareThePool: two engines over different graphs, both at
// Workers 3 and both forced to dispatch, put eight concurrent runs each on the
// same three ready lists — items of sixteen runs over two task graphs
// interleaved — while a seventeenth is cancelled mid-graph and leaves its
// stragglers there. Every run's tables are Float64bits-equal to the same
// evidence run alone, and the pool's count is back at zero.
func TestTwoEnginesShareThePool(t *testing.T) {
	chain, err := jtree.Random(jtree.RandomConfig{N: 24, Width: 12, States: 2, Degree: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := chain.MaterializeRandom(3); err != nil {
		t.Fatal(err)
	}
	const perEngine = 8
	type query struct {
		e    *Engine
		ev   potential.Evidence
		want [][]uint64
	}
	var queries []query
	for i, tr := range []*jtree.Tree{chain, benchmarkModel(t, 60, 4)} {
		e, err := NewEngine(tr, Options{Workers: 3, Reroot: true, ForceDispatch: true, PartitionThreshold: sched.ThresholdAuto})
		if err != nil {
			t.Fatal(err)
		}
		vars, cardOf := tr.Variables()
		rng := rand.New(rand.NewSource(int64(31 + i)))
		for q := 0; q < perEngine; q++ {
			ev := randomEvidence(rng, vars, cardOf, 3)
			alone, err := e.Propagate(ev)
			if err != nil {
				t.Fatal(err)
			}
			queries = append(queries, query{e, ev, tableBits(t, alone)})
		}
	}
	if a, b := queries[0].e, queries[perEngine].e; a.pool != b.pool || a.graph == b.graph {
		t.Fatal("the two engines do not share one pool over two graphs")
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cc := &countdownCtx{Context: context.Background()}
		cc.left.Store(20)
		if _, err := queries[0].e.PropagateContext(cc, queries[0].ev); err != context.DeadlineExceeded {
			t.Errorf("cancelled run returned %v", err)
		}
	}()
	got := make([][][]uint64, len(queries))
	for i, q := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, rec, err := q.e.propagateFull(context.Background(), q.ev, nil, taskgraph.SumProduct, "", nil)
			if err != nil {
				t.Error(err)
				return
			}
			if rec.Report.Executor != sched.ExecPool {
				t.Errorf("run %d ran %s", i, rec.Report.Executor)
			}
			got[i] = tableBits(t, res)
		}()
	}
	wg.Wait()
	for i, q := range queries {
		if !reflect.DeepEqual(got[i], q.want) {
			t.Errorf("run %d: tables differ from the same run made alone", i)
		}
	}
	if k := queries[0].e.pool.RunsInFlight(); k != 0 {
		t.Errorf("%d runs in flight afterwards", k)
	}
}
