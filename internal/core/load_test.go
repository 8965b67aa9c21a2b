package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"evprop/internal/jtree"
	"evprop/internal/potential"
	"evprop/internal/sched"
	"evprop/internal/taskgraph"
)

// The tests of the run under load: the granularity rule prices a run at the
// engine's workers over the scheduler runs in flight in the process, and a run
// that load keeps off the workers computes what it would have computed on them.
// Neither reads a clock: company is a run held open on a channel.

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

// holdRuns puts n runs in flight on an engine of their own — the count is the
// process's, not the engine's — and returns once each is inside its task.
// The returned function lets them finish and waits until they have.
func holdRuns(t *testing.T, n int) (release func()) {
	t.Helper()
	tr, err := jtree.Random(jtree.RandomConfig{N: 2, Width: 2, States: 2, Degree: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewEngine(tr, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := newHold(0, nil)
	done := make(chan error)
	for i := 0; i < n; i++ {
		go func() {
			_, _, err := other.runScheduler(context.Background(), "", h, 1)
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
		other.Close()
	}
}

// TestLoadAwareExecutor: a run of the wide benchmark model, worth dispatching to
// two workers when it is alone, stays on its goroutine behind one other run at
// Workers 2; at Workers 4 one other run leaves it two workers' worth, still
// the pool's, and three leave it one. The dispatch seam and the serial
// scheduler do not ask. The count is the process's — the company runs on
// another engine — and a failed and a cancelled run leave it where they found
// it.
func TestLoadAwareExecutor(t *testing.T) {
	tr := benchmarkModel(t, 60, 5)
	vars, cardOf := tr.Variables()
	ev := randomEvidence(rand.New(rand.NewSource(23)), vars, cardOf, 4)
	for _, tc := range []struct {
		name     string
		opts     Options
		company  int
		executor string
		peff     int
	}{
		{"P=2 alone", Options{Workers: 2}, 0, sched.ExecPool, 2},
		{"P=2 behind one", Options{Workers: 2}, 1, sched.ExecInline, 1},
		{"P=4 behind one", Options{Workers: 4}, 1, sched.ExecPool, 2},
		{"P=4 behind three", Options{Workers: 4}, 3, sched.ExecInline, 1},
		{"P=4 behind seven", Options{Workers: 4}, 7, sched.ExecInline, 1},
		{"forced behind three", Options{Workers: 2, ForceDispatch: true}, 3, sched.ExecPool, 1},
		{"serial alone", Options{Workers: 2, Scheduler: Serial}, 0, sched.ExecInline, 2},
	} {
		tc.opts.Reroot = true
		e, err := NewEngine(tr, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		release := holdRuns(t, tc.company)
		if k := sched.RunsInFlight(); k != int64(tc.company) {
			t.Errorf("%s: %d runs in flight, want %d", tc.name, k, tc.company)
		}
		_, rec, err := e.propagateFull(context.Background(), ev, nil, taskgraph.SumProduct, "", false)
		release()
		if err != nil {
			t.Fatal(err)
		}
		if rec.Report.Executor != tc.executor || rec.EffectiveWorkers != tc.peff {
			t.Errorf("%s: ran on %q priced at %d workers, want %q at %d",
				tc.name, rec.Report.Executor, rec.EffectiveWorkers, tc.executor, tc.peff)
		}
		if k := sched.RunsInFlight(); k != 0 {
			t.Fatalf("%s: %d runs in flight afterwards", tc.name, k)
		}
		e.Close()
	}

	// Runs that end badly count out too: a task that fails, and a context that
	// expires mid-graph, on the pool and inline.
	e, err := NewEngine(tr, Options{Workers: 2, Reroot: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	boom := errors.New("boom")
	h := newHold(1, boom)
	close(h.release)
	if _, _, err := e.runScheduler(context.Background(), "", h, 1); !errors.Is(err, boom) {
		t.Fatalf("failing run returned %v", err)
	}
	if k := sched.RunsInFlight(); k != 0 {
		t.Errorf("%d runs in flight after a failed run", k)
	}
	for _, company := range []int{0, 1} {
		release := holdRuns(t, company)
		cc := &countdownCtx{Context: context.Background()}
		cc.left.Store(20)
		_, err := e.PropagateContext(cc, ev)
		release()
		if err != context.DeadlineExceeded {
			t.Fatalf("cancelled run behind %d returned %v", company, err)
		}
		if k := sched.RunsInFlight(); k != 0 {
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
		out = append(out, bitsOf(st.Clique[i]))
		if st.Sep[i] != nil {
			out = append(out, bitsOf(st.Sep[i]))
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
			alone, arec, err := e.propagateFull(context.Background(), ev, nil, mode, "", false)
			if err != nil {
				t.Fatal(err)
			}
			release := holdRuns(t, tc.company)
			loaded, lrec, err := e.propagateFull(context.Background(), ev, nil, mode, "", false)
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
				whole, err := e.absorb(mode, ev, false)
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
		e.Close()
	}
}
