package sched

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"evprop/internal/bayesnet"
	"evprop/internal/jtree"
	"evprop/internal/lazy"
	"evprop/internal/potential"
	"evprop/internal/taskgraph"
)

// collaborative runs a scheduler test as the subtest it reports under.
func collaborative(t *testing.T, test func(*testing.T)) { t.Run("collaborative", test) }

// runOnce is one propagation on a transient pool of opts.Workers workers.
func runOnce(st taskgraph.Executor, opts Options) (*Metrics, error) {
	p, err := NewPool(opts.Workers)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	return p.Run(st, opts)
}

// referenceState runs the graph serially and returns the final state.
func referenceState(t *testing.T, g *taskgraph.Graph, ev potential.Evidence) *taskgraph.State {
	t.Helper()
	st, err := g.NewState()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AbsorbEvidence(ev); err != nil {
		t.Fatal(err)
	}
	if err := st.RunSerial(); err != nil {
		t.Fatal(err)
	}
	return st
}

// compareStates checks that the two propagation results encode the same
// distributions. Clique tables are compared after normalization: partitioned
// marginalizations sum partial buffers in a different association order than
// the serial pass, so unnormalized absolute values may differ at ~1e-9 even
// though the encoded posteriors are identical.
func compareStates(t *testing.T, label string, ref, got *taskgraph.State, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		a, b := ref.Clique[i].Clone(), got.Clique[i].Clone()
		if err := a.Normalize(); err != nil {
			t.Fatalf("%s: clique %d reference has zero mass", label, i)
		}
		if err := b.Normalize(); err != nil {
			t.Fatalf("%s: clique %d result has zero mass", label, i)
		}
		if !a.Equal(b, 1e-9) {
			t.Errorf("%s: clique %d differs from serial reference", label, i)
			return
		}
	}
}

func TestRunMatchesSerialAcrossWorkers(t *testing.T) {
	collaborative(t, testRunMatchesSerialAcrossWorkers)
}

func testRunMatchesSerialAcrossWorkers(t *testing.T) {
	tr, err := jtree.Random(jtree.RandomConfig{N: 30, Width: 4, States: 2, Degree: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.MaterializeRandom(17); err != nil {
		t.Fatal(err)
	}
	g := taskgraph.Build(tr)
	ref := referenceState(t, g, nil)
	for _, p := range []int{1, 2, 3, 4, 8} {
		st, err := g.NewState()
		if err != nil {
			t.Fatal(err)
		}
		m, err := runOnce(st, Options{Workers: p})
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if m.Tasks != g.N() {
			t.Errorf("P=%d: completed %d of %d tasks", p, m.Tasks, g.N())
		}
		compareStates(t, "P", ref, st, tr.N())
	}
}

func TestRunMatchesSerialWithPartitioning(t *testing.T) {
	collaborative(t, testRunMatchesSerialWithPartitioning)
}

func testRunMatchesSerialWithPartitioning(t *testing.T) {
	tr, err := jtree.Random(jtree.RandomConfig{N: 20, Width: 6, States: 2, Degree: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.MaterializeRandom(23); err != nil {
		t.Fatal(err)
	}
	g := taskgraph.Build(tr)
	ref := referenceState(t, g, nil)
	for _, thr := range []int{1, 7, 16, 64} {
		st, err := g.NewState()
		if err != nil {
			t.Fatal(err)
		}
		m, err := runOnce(st, Options{Workers: 4, Threshold: thr})
		if err != nil {
			t.Fatalf("δ=%d: %v", thr, err)
		}
		if thr < 64 && m.Partition == 0 {
			t.Errorf("δ=%d: no task was partitioned", thr)
		}
		compareStates(t, "threshold", ref, st, tr.N())
	}
}

func TestRunWithEvidenceMatchesOracle(t *testing.T) {
	collaborative(t, testRunWithEvidenceMatchesOracle)
}

func testRunWithEvidenceMatchesOracle(t *testing.T) {
	net, ids := bayesnet.Asia()
	tr, err := net.Compile()
	if err != nil {
		t.Fatal(err)
	}
	g := taskgraph.Build(tr)
	ev := potential.Evidence{ids["XRay"]: 1, ids["Smoke"]: 1}
	for _, p := range []int{1, 3, 8} {
		st, err := g.NewState()
		if err != nil {
			t.Fatal(err)
		}
		if err := st.AbsorbEvidence(ev); err != nil {
			t.Fatal(err)
		}
		if _, err := runOnce(st, Options{Workers: p, Threshold: 2}); err != nil {
			t.Fatal(err)
		}
		for name, v := range ids {
			if _, fixed := ev[v]; fixed {
				continue
			}
			got, err := st.Marginal(v)
			if err != nil {
				t.Fatal(err)
			}
			want, err := net.ExactMarginal(v, ev)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want, 1e-9) {
				t.Errorf("P=%d: P(%s|e) = %v, oracle %v", p, name, got.Data, want.Data)
			}
		}
	}
}

func TestRunRerootedMatchesOracle(t *testing.T) { collaborative(t, testRunRerootedMatchesOracle) }

func testRunRerootedMatchesOracle(t *testing.T) {
	// Rerooting must not change inference results.
	net, ids := bayesnet.Student()
	tr, err := net.Compile()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := tr.Reroot(tr.SelectRoot())
	if err != nil {
		t.Fatal(err)
	}
	g := taskgraph.Build(rt)
	ev := potential.Evidence{ids["Letter"]: 1}
	st, err := g.NewState()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AbsorbEvidence(ev); err != nil {
		t.Fatal(err)
	}
	if _, err := runOnce(st, Options{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	for name, v := range ids {
		if _, fixed := ev[v]; fixed {
			continue
		}
		got, err := st.Marginal(v)
		if err != nil {
			t.Fatal(err)
		}
		want, err := net.ExactMarginal(v, ev)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want, 1e-9) {
			t.Errorf("P(%s|e) = %v, oracle %v", name, got.Data, want.Data)
		}
	}
}

func TestRunEmptyGraph(t *testing.T) { collaborative(t, testRunEmptyGraph) }

func testRunEmptyGraph(t *testing.T) {
	tr, err := jtree.Chain(1, 3, 2)
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
	m, err := runOnce(st, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.Tasks != 0 {
		t.Errorf("empty graph completed %d tasks", m.Tasks)
	}
}

func TestRunRejectsZeroWorkers(t *testing.T) { collaborative(t, testRunRejectsZeroWorkers) }

func testRunRejectsZeroWorkers(t *testing.T) {
	tr, err := jtree.Chain(2, 2, 2)
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
	if _, err := runOnce(st, Options{Workers: 0}); err == nil {
		t.Error("accepted 0 workers")
	}
}

func TestMetricsAccounting(t *testing.T) { collaborative(t, testMetricsAccounting) }

func testMetricsAccounting(t *testing.T) {
	tr, err := jtree.Random(jtree.RandomConfig{N: 25, Width: 5, States: 2, Degree: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.MaterializeRandom(2); err != nil {
		t.Fatal(err)
	}
	g := taskgraph.Build(tr)
	st, err := g.NewState()
	if err != nil {
		t.Fatal(err)
	}
	m, err := runOnce(st, Options{Workers: 3, Threshold: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Workers) != 3 {
		t.Fatalf("metrics for %d workers", len(m.Workers))
	}
	items := 0
	for _, wm := range m.Workers {
		if wm.Busy < 0 || wm.Overhead < 0 {
			t.Error("negative metric")
		}
		items += wm.Tasks
	}
	if items == 0 {
		t.Error("no items recorded")
	}
	if m.Pieces == 0 || m.Partition == 0 {
		t.Errorf("partitioning not reflected in metrics: %+v", m)
	}
	if m.Elapsed <= 0 {
		t.Error("elapsed not positive")
	}
}

func TestPartitionThresholdOne(t *testing.T) { collaborative(t, testPartitionThresholdOne) }

func testPartitionThresholdOne(t *testing.T) {
	// δ=1 forces maximal splitting; results must still be exact.
	net, _ := bayesnet.Sprinkler()
	tr, err := net.Compile()
	if err != nil {
		t.Fatal(err)
	}
	g := taskgraph.Build(tr)
	ref := referenceState(t, g, nil)
	st, err := g.NewState()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runOnce(st, Options{Workers: 2, Threshold: 1}); err != nil {
		t.Fatal(err)
	}
	compareStates(t, "δ=1", ref, st, tr.N())
}

func TestManyRunsStable(t *testing.T) { collaborative(t, testManyRunsStable) }

func testManyRunsStable(t *testing.T) {
	// Repeated runs across goroutine interleavings must all agree.
	tr, err := jtree.Random(jtree.RandomConfig{N: 16, Width: 4, States: 2, Degree: 2, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.MaterializeRandom(4); err != nil {
		t.Fatal(err)
	}
	g := taskgraph.Build(tr)
	ref := referenceState(t, g, nil)
	for trial := 0; trial < 25; trial++ {
		st, err := g.NewState()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := runOnce(st, Options{Workers: 4, Threshold: 8}); err != nil {
			t.Fatal(err)
		}
		compareStates(t, "trial", ref, st, tr.N())
	}
}

// TestPartitionedRunsBitIdentical: a partitioned run leaves the same bits in
// every clique and separator table each time it is repeated, whichever
// workers ran its pieces and in whatever order they finished — under a fixed δ
// and under the rule, at two and at four workers, in both semirings. The
// partial buffers of a cut Marginalize are combined in piece order; when they
// were combined in completion order, about half of the repeats of a
// sum-product run differed from the first in their last bits.
func TestPartitionedRunsBitIdentical(t *testing.T) {
	tr, err := jtree.Random(jtree.RandomConfig{N: 12, Width: 12, States: 2, Degree: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.MaterializeRandom(6); err != nil {
		t.Fatal(err)
	}
	g := taskgraph.Build(tr)
	const runs = 40
	for _, workers := range []int{2, 4} {
		pool, err := NewPool(workers)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []taskgraph.Mode{taskgraph.SumProduct, taskgraph.MaxProduct} {
			for _, δ := range []int{512, ThresholdAuto} {
				st, err := g.NewStateMode(mode)
				if err != nil {
					t.Fatal(err)
				}
				var first [][]float64
				for run := 0; run < runs; run++ {
					st.Reset(mode)
					m, err := pool.Run(st, Options{Threshold: δ})
					if err != nil {
						t.Fatal(err)
					}
					if (δ > 0 || Split(g, workers) != nil) && (m.Partition == 0 || m.Pieces < 2*m.Partition) {
						t.Fatalf("P=%d %v δ=%d: %d tasks cut into %d pieces", workers, mode, δ, m.Partition, m.Pieces)
					}
					tables := append(append([]*potential.Potential{}, st.Clique...), st.Sep...)
					for i, p := range tables {
						if p == nil {
							p = &potential.Potential{} // the root has no separator
						}
						if run == 0 {
							first = append(first, append([]float64(nil), p.Data...))
							continue
						}
						for j, v := range p.Data {
							if math.Float64bits(v) != math.Float64bits(first[i][j]) {
								t.Fatalf("P=%d %v δ=%d: run %d table %d entry %d is %x, first run %x",
									workers, mode, δ, run, i, j, math.Float64bits(v), math.Float64bits(first[i][j]))
							}
						}
					}
				}
			}
		}
		pool.Close()
	}
}

// TestPartitionedRunsAcrossSlicings: one state, its run scratch attached
// throughout, is re-primed on evidence of different widths between partitioned
// pool runs — what the load benchmark's traced scheduler layer does — so the
// message buffers and the partial buffers on the edges' free lists serve
// tables of one size after another. Every run must leave the bits that the
// same run leaves on a state of its own, fresh scratch and all: a buffer
// handed out at the wrong length would be refused by the plan kernels, one
// carrying a stale cardinality by Combine.
func TestPartitionedRunsAcrossSlicings(t *testing.T) {
	tr, err := jtree.Random(jtree.RandomConfig{N: 12, Width: 12, States: 2, Degree: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.MaterializeRandom(6); err != nil {
		t.Fatal(err)
	}
	vars, _ := tr.Variables()
	widths := []int{0, 1, 6, 2, len(vars) / 2, 0, 3, len(vars)}
	g := taskgraph.Build(tr)
	collaborative(t, func(t *testing.T) {
		pool, err := NewPool(3)
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Close()
		for _, mode := range []taskgraph.Mode{taskgraph.SumProduct, taskgraph.MaxProduct} {
			shared, err := g.NewStateMode(mode)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(18))
			pieces := 0
			for run, width := range widths {
				ev := potential.Evidence{}
				for _, i := range rng.Perm(len(vars))[:width] {
					ev[vars[i]] = rng.Intn(2)
				}
				if err := shared.AbsorbEvidence(ev); err != nil {
					t.Fatal(err)
				}
				m, err := pool.Run(shared, Options{Threshold: 64})
				if err != nil {
					t.Fatalf("%v run %d, %d observed, on reused scratch: %v", mode, run, width, err)
				}
				pieces += m.Pieces
				fresh, err := taskgraph.Build(tr).NewStateEvidence(mode, ev)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := pool.Run(fresh, Options{Threshold: 64}); err != nil {
					t.Fatal(err)
				}
				want := append(append([]*potential.Potential{}, fresh.Clique...), fresh.Sep...)
				for i, p := range append(append([]*potential.Potential{}, shared.Clique...), shared.Sep...) {
					if p == nil {
						continue // the root has no separator
					}
					q := want[i]
					if len(p.Data) != len(q.Data) {
						t.Fatalf("%v run %d: table %d has %d entries on reused scratch, %d on fresh", mode, run, i, len(p.Data), len(q.Data))
					}
					for j, v := range p.Data {
						if math.Float64bits(v) != math.Float64bits(q.Data[j]) {
							t.Fatalf("%v run %d, %d observed: table %d entry %d is %x on reused scratch, %x on fresh",
								mode, run, width, i, j, math.Float64bits(v), math.Float64bits(q.Data[j]))
						}
					}
				}
			}
			if pieces == 0 {
				t.Fatalf("%v: δ = 64 cut nothing", mode)
			}
		}
	})
}

// TestTaskErrorNamesTheTask: a failing primitive fails the run with the task
// named in front of the cause.
func TestTaskErrorNamesTheTask(t *testing.T) {
	collaborative(t, testTaskErrorNamesTheTask)
}

// failingExec fails one task of a real propagation state.
type failingExec struct {
	taskgraph.Executor
	bad int
	err error
}

func (f failingExec) Execute(id int) error {
	if id == f.bad {
		return f.err
	}
	return f.Executor.Execute(id)
}

func testTaskErrorNamesTheTask(t *testing.T) {
	net, _ := bayesnet.Asia()
	tr, err := net.Compile()
	if err != nil {
		t.Fatal(err)
	}
	g := taskgraph.Build(tr)
	st, err := g.NewState()
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	bad := g.N() / 2
	_, err = runOnce(failingExec{st, bad, boom}, Options{Workers: 4})
	if !errors.Is(err, boom) {
		t.Fatalf("run returned %v, want the task's error", err)
	}
	if want := "sched: task " + g.Tasks[bad].String() + ": "; !strings.HasPrefix(err.Error(), want) {
		t.Errorf("error %q does not start with %q", err, want)
	}
}

// TestReleasedStateFailsTheRun: handing the schedulers a state whose run
// scratch was released is a caller's bug that must surface as the run's
// error — whole tasks, partitioned ones, pool and inline — never as a nil
// dereference on a worker. Reset makes the same state runnable again.
func TestReleasedStateFailsTheRun(t *testing.T) {
	collaborative(t, testReleasedStateFailsTheRun)
}

func testReleasedStateFailsTheRun(t *testing.T) {
	tr, err := jtree.Random(jtree.RandomConfig{N: 20, Width: 5, States: 2, Degree: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.MaterializeRandom(2); err != nil {
		t.Fatal(err)
	}
	g := taskgraph.Build(tr)
	ref := referenceState(t, g, nil)
	st := referenceState(t, g, nil)
	st.ReleaseScratch()
	for _, threshold := range []int{0, 4} {
		if _, err := runOnce(st, Options{Workers: 3, Threshold: threshold}); !errors.Is(err, taskgraph.ErrScratchReleased) {
			t.Errorf("pool run (δ=%d) of a released state returned %v", threshold, err)
		}
	}
	if _, err := RunInline(st, Options{Workers: 1}); !errors.Is(err, taskgraph.ErrScratchReleased) {
		t.Errorf("inline run of a released state returned %v", err)
	}
	st.Reset(taskgraph.SumProduct)
	if _, err := runOnce(st, Options{Workers: 3}); err != nil {
		t.Fatal(err)
	}
	compareStates(t, "after Reset", ref, st, tr.N())

	// The lazy engine's state refuses the same way (it is built per query and
	// has no Reset).
	lp, err := lazy.New(tr, g)
	if err != nil {
		t.Fatal(err)
	}
	vars, _ := tr.Variables()
	lst, err := lp.NewState(taskgraph.SumProduct, potential.Evidence{vars[0]: 1, vars[len(vars)-1]: 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(lst.Graph().Tasks) == 0 {
		t.Fatal("the lazy plan has no task to refuse")
	}
	lst.ReleaseScratch()
	for _, threshold := range []int{0, 4} {
		if _, err := runOnce(lst, Options{Workers: 3, Threshold: threshold}); !errors.Is(err, taskgraph.ErrScratchReleased) {
			t.Errorf("pool run (δ=%d) of a released lazy state returned %v", threshold, err)
		}
	}
	if _, err := RunInline(lst, Options{Workers: 1}); !errors.Is(err, taskgraph.ErrScratchReleased) {
		t.Errorf("inline run of a released lazy state returned %v", err)
	}
}

// TestSnapStep pins the δ-snapping contract: the step is always a positive
// multiple of the task's kernel grain (split points land on run boundaries),
// spans at least one cache line, and never rounds δ below itself.
func TestSnapStep(t *testing.T) {
	cases := []struct {
		δ, grain, want int
	}{
		{256, 1, 256},  // already line-aligned, contiguous kernel
		{256, 0, 256},  // grain 0 = unknown, treated as 1
		{250, 1, 256},  // bumped grain 8: round 250 up to next multiple
		{1, 1, 8},      // tiny δ still spans a cache line
		{1, 3, 9},      // sub-line grain 3 bumps to 9 (multiple of 3 ≥ 8)
		{100, 3, 108},  // 12·9
		{256, 64, 256}, // grain ≥ line: pure run boundaries
		{100, 64, 128}, // round up to run boundary even past δ
		{1, 1024, 1024},
		{1025, 1024, 2048},
	}
	for _, c := range cases {
		if got := snapStep(c.δ, c.grain); got != c.want {
			t.Errorf("snapStep(%d, %d) = %d, want %d", c.δ, c.grain, got, c.want)
		}
	}
	// Structural invariants over a sweep.
	for δ := 1; δ <= 3000; δ += 7 {
		for _, g := range []int{0, 1, 2, 3, 5, 8, 12, 64, 1000} {
			s := snapStep(δ, g)
			if s < δ {
				t.Fatalf("snapStep(%d, %d) = %d below δ", δ, g, s)
			}
			if s < cacheLineEntries {
				t.Fatalf("snapStep(%d, %d) = %d below a cache line", δ, g, s)
			}
			if eg := g; eg >= 1 && s%eg != 0 {
				t.Fatalf("snapStep(%d, %d) = %d not a run-boundary multiple", δ, g, s)
			}
		}
	}
}

// TestPieceWeight checks the proration: pieces carry weight proportional to
// their span (plus the +1 floor that keeps zero-weight pieces countable).
func TestPieceWeight(t *testing.T) {
	if w := pieceWeight(1000, 50, 100); w != 501 {
		t.Errorf("half-span piece weight %d, want 501", w)
	}
	if w := pieceWeight(1000, 100, 100); w != 1001 {
		t.Errorf("full-span piece weight %d, want 1001", w)
	}
	if w := pieceWeight(3, 1, 1000); w < 1 {
		t.Errorf("piece weight %d below 1", w)
	}
}

// TestMaskedRun: with Options.Live set the pool and the inline executor run
// the live tasks and no others — a masked task is never queued, never counted
// and never waited for — under a fixed δ that cuts most of them, and leave the
// same bits as each other on every table; the inline run of the complement
// then completes the state to the bits of an unmasked run.
func TestMaskedRun(t *testing.T) {
	tr, err := jtree.Random(jtree.RandomConfig{N: 20, Width: 6, States: 2, Degree: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.MaterializeRandom(23); err != nil {
		t.Fatal(err)
	}
	g := taskgraph.Build(tr)
	vars, _ := tr.Variables()
	targets := []int{vars[1], vars[len(vars)-2]}
	opts := Options{Workers: 3, Threshold: 16}
	states := make([]*taskgraph.State, 3) // unmasked on the pool, masked on the pool, masked inline
	for i := range states {
		if states[i], err = g.NewState(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := runOnce(states[0], opts); err != nil {
		t.Fatal(err)
	}
	sameBits := func(what string, a, b *taskgraph.State) {
		t.Helper()
		for i := range a.Clique {
			if !reflect.DeepEqual(a.Clique[i].Data, b.Clique[i].Data) || (a.Sep[i] != nil && !reflect.DeepEqual(a.Sep[i].Data, b.Sep[i].Data)) {
				t.Fatalf("%s: table %d differs", what, i)
			}
		}
	}
	for i, run := range []func(taskgraph.Executor, Options) (*Metrics, error){runOnce, RunInline} {
		st := states[i+1]
		st.Target(targets)
		o := opts
		o.Live = st.Live()
		m, err := run(st, o)
		if err != nil {
			t.Fatal(err)
		}
		if st.Skipped() == 0 || m.Tasks != g.N()-st.Skipped() || m.Partition == 0 {
			t.Fatalf("%s: ran %d tasks (%d cut) with %d of %d masked", m.Executor, m.Tasks, m.Partition, st.Skipped(), g.N())
		}
		for _, v := range targets {
			if ci := tr.CliqueOf(v); !reflect.DeepEqual(st.Clique[ci].Data, states[0].Clique[ci].Data) {
				t.Fatalf("%s: clique %d of target %d is not the unmasked run's", m.Executor, ci, v)
			}
		}
	}
	sameBits("masked pool against masked inline", states[1], states[2])
	for _, st := range states[1:] {
		st.ReleaseScratch()
		if err := st.Resume(); err != nil {
			t.Fatal(err)
		}
		o := opts
		o.Live = st.Live()
		m, err := RunInline(st, o)
		if err != nil {
			t.Fatal(err)
		}
		if m.Tasks != g.N()-st.Skipped() {
			t.Fatalf("remainder ran %d tasks, %d were left", m.Tasks, g.N()-st.Skipped())
		}
		sameBits("completed against unmasked", st, states[0])
	}
}
