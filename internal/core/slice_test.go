package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"evprop/internal/bayesnet"
	"evprop/internal/jtree"
	"evprop/internal/potential"
	"evprop/internal/taskgraph"
)

// The tests of evidence slicing at the engine: a propagation over tables
// sliced on the hard evidence answers every query with the same bits as one
// over full-domain tables with the contradicting entries zeroed, whichever
// executor runs it, and every accessor hands the full domain back.

// fullDomainResult is the absorb the engine had before it sliced, kept as the
// reference: the tree's tables at the full domain, every entry that
// contradicts the evidence zeroed (Reduce on every clique of a copy of the
// engine's tree — a state's tables hold their values only once the run has
// written them), propagated in topological order on one goroutine.
func fullDomainResult(t testing.TB, e *Engine, mode taskgraph.Mode, ev potential.Evidence, like potential.Likelihood) *Result {
	t.Helper()
	tr := e.tree.Clone()
	for i := range tr.Cliques {
		if err := tr.Cliques[i].Pot.Reduce(ev); err != nil {
			t.Fatal(err)
		}
	}
	st, err := taskgraph.Build(tr).NewStateMode(mode)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AbsorbLikelihood(like); err != nil {
		t.Fatal(err)
	}
	if err := st.RunSerial(); err != nil {
		t.Fatal(err)
	}
	return &Result{eng: e, state: st, pe: st.EvidenceMass()}
}

// slicedAnswers is what a reader derives from a result, as bits: the
// posterior of every variable (observed ones included), P(e), and from a
// max-product result the MPE.
type slicedAnswers struct {
	marginals [][]uint64
	pe        uint64
	mpe       map[int]int
	mpeProb   uint64
}

func readSliced(t testing.TB, res *Result, vars []int) slicedAnswers {
	t.Helper()
	a := slicedAnswers{pe: math.Float64bits(res.ProbabilityOfEvidence())}
	if res.state.Mode() == taskgraph.MaxProduct {
		mpe, p, err := res.MostProbableExplanation()
		if err != nil {
			t.Fatal(err)
		}
		a.mpe, a.mpeProb = mpe, math.Float64bits(p)
		return a
	}
	for _, v := range vars {
		m, err := res.Marginal(v)
		if err != nil {
			t.Fatal(err)
		}
		a.marginals = append(a.marginals, bitsOf(m))
	}
	return a
}

// oracleEvidences mirrors the differential oracle's battery (the root
// package's diffEvidences) over an 11-variable binary network.
func oracleEvidences(vars []int) []potential.Evidence {
	return []potential.Evidence{
		{},
		{vars[0]: 1},
		{vars[2]: 0, vars[5]: 1},
		{vars[1]: 1, vars[7]: 0},
		{vars[3]: 0, vars[6]: 1, vars[9]: 0},
		{vars[4]: 1, vars[8]: 1, vars[10]: 0},
	}
}

// TestSlicedOracleColumn is the slicing column of the differential oracle: on
// its 12 networks × 2 schedulers × 6 evidence configurations, every posterior,
// P(e) and the MPE of the sliced run are Float64bits-equal to the full-domain
// reference — a sum that skips its +0.0 terms, in the same order, is the same
// sum. A third column cuts every task at δ = 2: the pieces of a sliced table
// end elsewhere than those of the full one, the partial sums re-associate, and
// only there is the comparison a tolerance.
func TestSlicedOracleColumn(t *testing.T) {
	exact := 0
	for seed := int64(0); seed < 12; seed++ {
		tr, err := bayesnet.RandomNetwork(11, 2, 3, 1000+seed).Compile()
		if err != nil {
			t.Fatal(err)
		}
		vars, _ := tr.Variables()
		for _, col := range []struct {
			s Scheduler
			δ int
		}{{Collaborative, 0}, {Serial, 0}, {Collaborative, 2}} {
			e, err := NewEngine(tr, schedulerOptions(col.s, Options{Workers: 2, Reroot: true, PartitionThreshold: col.δ}))
			if err != nil {
				t.Fatal(err)
			}
			for i, ev := range oracleEvidences(vars) {
				what := fmt.Sprintf("seed=%d sched=%v δ=%d ev=%d", seed, col.s, col.δ, i)
				for _, mode := range []taskgraph.Mode{taskgraph.SumProduct, taskgraph.MaxProduct} {
					res, err := propagate(e, context.Background(), ev, nil, mode)
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					got := readSliced(t, res, vars)
					want := readSliced(t, fullDomainResult(t, e, mode, ev, nil), vars)
					res.Release()
					if col.δ == 0 {
						if !reflect.DeepEqual(got, want) {
							t.Errorf("%s %v: sliced run %+v, full-domain reference %+v", what, mode, got, want)
						}
						continue
					}
					if !reflect.DeepEqual(got.mpe, want.mpe) || !closeBits(got.pe, want.pe) || !closeBits(got.mpeProb, want.mpeProb) {
						t.Errorf("%s %v: partitioned sliced run %+v, reference %+v", what, mode, got, want)
					}
					for k := range got.marginals {
						for s := range got.marginals[k] {
							if !closeBits(got.marginals[k][s], want.marginals[k][s]) {
								t.Errorf("%s: variable %d state %d: partitioned sliced run off the reference", what, vars[k], s)
							}
						}
					}
				}
				if col.δ == 0 {
					exact++
				}
			}
			assertRanOn(t, e)
			if rep := e.ObsSnapshot(); (rep.Partitioned > 0) != (col.δ > 0) {
				t.Errorf("seed=%d sched=%v δ=%d: %d tasks partitioned", seed, col.s, col.δ, rep.Partitioned)
			}
		}
	}
	if exact != 144 {
		t.Fatalf("the bit-exact column covered %d cases, want 144", exact)
	}
}

// closeBits compares two floats given as bits to a relative 1e-12.
func closeBits(a, b uint64) bool {
	x, y := math.Float64frombits(a), math.Float64frombits(b)
	return math.Abs(x-y) <= 1e-12*math.Max(math.Abs(x), math.Abs(y))
}

// benchmarkModel compiles one of the load benchmark's models.
func benchmarkModel(t testing.TB, nodes, parents int) *jtree.Tree {
	t.Helper()
	tr, err := bayesnet.RandomNetwork(nodes, 2, parents, 7).Compile()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// randomEvidence observes width distinct variables in random states.
func randomEvidence(rng *rand.Rand, vars []int, cardOf map[int]int, width int) potential.Evidence {
	ev := potential.Evidence{}
	for _, i := range rng.Perm(len(vars))[:width] {
		ev[vars[i]] = rng.Intn(cardOf[vars[i]])
	}
	return ev
}

// TestSlicedBenchmarkModelsBitExact: on the load benchmark's three models, at
// the evidence width of the workload that drives each, every posterior and
// P(e) of the sliced run equals the full-domain reference under Float64bits —
// inline and on the unpartitioned two-worker pool.
func TestSlicedBenchmarkModelsBitExact(t *testing.T) {
	for _, m := range []struct {
		name                     string
		nodes, parents, observed int
		queries                  int
	}{{"small40", 40, 3, 4, 40}, {"mid60", 60, 4, 30, 40}, {"wide60", 60, 5, 4, 10}} {
		t.Run(m.name, func(t *testing.T) {
			tr := benchmarkModel(t, m.nodes, m.parents)
			vars, cardOf := tr.Variables()
			inline, err := NewEngine(tr, Options{Scheduler: Serial, Reroot: true})
			if err != nil {
				t.Fatal(err)
			}
			pool, err := NewEngine(tr, Options{Workers: 2, Reroot: true, ForceDispatch: true})
			if err != nil {
				t.Fatal(err)
			}
			queries := m.queries
			if testing.Short() {
				queries = 3
			}
			rng := rand.New(rand.NewSource(18))
			for q := 0; q < queries; q++ {
				ev := randomEvidence(rng, vars, cardOf, m.observed)
				want := readSliced(t, fullDomainResult(t, inline, taskgraph.SumProduct, ev, nil), vars)
				for _, e := range []*Engine{inline, pool} {
					res, err := propagate(e, context.Background(), ev, nil, taskgraph.SumProduct)
					if err != nil {
						t.Fatal(err)
					}
					if got := readSliced(t, res, vars); !reflect.DeepEqual(got, want) {
						t.Fatalf("query %d (%v): sliced run differs from the full-domain reference", q, e.opts.Scheduler)
					}
					res.Release()
				}
			}
			assertRanOn(t, inline)
			assertRanOn(t, pool)
		})
	}
}

// TestSlicedAccessors: what leaves a sliced result is over the full domain —
// the posterior of an observed variable is the indicator of its state, a joint
// keeps every state of an observed variable with the mass at the observed one,
// the MPE names the observed state — and equals the full-domain reference bit
// for bit, from the run that missed the cache and from a later hit that asks
// for what the miss did not.
func TestSlicedAccessors(t *testing.T) {
	tr, err := bayesnet.RandomNetwork(30, 3, 3, 5).Compile()
	if err != nil {
		t.Fatal(err)
	}
	vars, cardOf := tr.Variables()
	e, err := NewEngine(tr, Options{Workers: 2, Reroot: true, CacheSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	root := e.tree.Cliques[e.tree.Root].Vars
	if len(root) < 3 {
		t.Fatalf("root clique %v too narrow for the joint queries", root)
	}
	// One observed variable inside the root clique, in its last state, and
	// two elsewhere.
	ev := potential.Evidence{root[1]: cardOf[root[1]] - 1}
	for _, v := range vars {
		if len(ev) < 3 && !tr.Cliques[e.tree.Root].Pot.HasVar(v) {
			ev[v] = 1
		}
	}
	ref := fullDomainResult(t, e, taskgraph.SumProduct, ev, nil)
	first, rec, err := e.Propagate(context.Background(), ev, nil)
	if err != nil || rec.Cached || first.entry != nil {
		t.Fatalf("first sight: cached=%v err=%v", rec != nil && rec.Cached, err)
	}
	first.Release()
	miss, rec, err := e.Propagate(context.Background(), ev, nil)
	if err != nil || rec.Cached || miss.entry == nil {
		t.Fatalf("miss: cached=%v err=%v", rec != nil && rec.Cached, err)
	}
	if rec.Entries >= rec.GraphEntries || rec.Entries <= 0 {
		t.Errorf("record says %d of %d entries", rec.Entries, rec.GraphEntries)
	}
	hit, rec, err := e.Propagate(context.Background(), ev, nil)
	if err != nil || !rec.Cached || hit != miss {
		t.Fatalf("hit: cached=%v same=%v err=%v", rec != nil && rec.Cached, hit == miss, err)
	}
	// The hit keeps answers only; its joints come from a run of its own.
	tab, err := hit.Tables(rec)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Release()

	same := func(what string, got, want *potential.Potential, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if !reflect.DeepEqual(got.Vars, want.Vars) || !reflect.DeepEqual(got.Card, want.Card) || !reflect.DeepEqual(bitsOf(got.Data), bitsOf(want.Data)) {
			t.Errorf("%s: sliced result %v, full-domain reference %v", what, got, want)
		}
	}
	m, err := miss.Marginal(root[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != cardOf[root[1]] || m[len(m)-1] < 0.999999 || m[0] != 0 {
		t.Errorf("posterior of the observed variable is %v, want the indicator of its last state", m)
	}
	// The miss read one posterior; the hit asks for everything else.
	for _, v := range vars {
		want, err := ref.Marginal(v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := hit.Marginal(v)
		if err != nil || !reflect.DeepEqual(bitsOf(got), bitsOf(want)) {
			t.Errorf("posterior of %d: sliced result %v (%v), full-domain reference %v", v, got, err, want)
		}
	}
	for _, joint := range [][]int{root[:2], root[1:3], {root[1]}} {
		want, err := ref.JointMarginal(joint)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tab.JointMarginal(joint)
		same(fmt.Sprintf("joint over %v", joint), got, want, err)
	}
	// Across cliques (the Steiner fold), with an observed variable at either end.
	var far int
	for v := range ev {
		if v != root[1] {
			far = v
		}
	}
	for _, joint := range [][]int{{root[0], far}, {root[1], far}} {
		want, err := ref.JointMarginalAny(joint)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tab.JointMarginalAny(joint)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Card, want.Card) || !got.Equal(want, 1e-12) {
			t.Errorf("joint over %v: sliced result %v, full-domain reference %v", joint, got, want)
		}
	}
	if err := tab.CheckCalibration(1e-9); err != nil {
		t.Error(err)
	}

	mx, err := propagate(e, context.Background(), ev, nil, taskgraph.MaxProduct)
	if err != nil {
		t.Fatal(err)
	}
	got := readSliced(t, mx, vars)
	if want := readSliced(t, fullDomainResult(t, e, taskgraph.MaxProduct, ev, nil), vars); !reflect.DeepEqual(got, want) {
		t.Errorf("MPE of the sliced run %+v, full-domain reference %+v", got, want)
	}
	for v, s := range ev {
		if got.mpe[v] != s {
			t.Errorf("MPE puts observed variable %d in state %d, evidence says %d", v, got.mpe[v], s)
		}
	}
	if len(got.mpe) != len(vars) {
		t.Errorf("MPE assigns %d of %d variables", len(got.mpe), len(vars))
	}
}

// TestSlicedLikelihoodOnObservedVariable: hard evidence and a likelihood on the
// same variable — the one state the tables keep takes its one weight — and the
// vector is still validated whole.
func TestSlicedLikelihoodOnObservedVariable(t *testing.T) {
	tr, err := bayesnet.RandomNetwork(20, 3, 3, 9).Compile()
	if err != nil {
		t.Fatal(err)
	}
	vars, _ := tr.Variables()
	e, err := NewEngine(tr, Options{Workers: 2, Reroot: true})
	if err != nil {
		t.Fatal(err)
	}
	v, w := vars[4], vars[11]
	ev := potential.Evidence{v: 2, vars[7]: 0}
	like := potential.Likelihood{v: {0.5, 0.25, 0.125}, w: {1, 0.5, 0.25}}
	res, err := propagate(e, context.Background(), ev, like, taskgraph.SumProduct)
	if err != nil {
		t.Fatal(err)
	}
	want := readSliced(t, fullDomainResult(t, e, taskgraph.SumProduct, ev, like), vars)
	if got := readSliced(t, res, vars); !reflect.DeepEqual(got, want) {
		t.Errorf("sliced run %+v, full-domain reference %+v", got, want)
	}
	res.Release()
	for name, bad := range map[string]potential.Likelihood{
		"wrong length": {v: {1, 1}},
		"negative":     {v: {1, 1, -1}},
	} {
		if _, err := propagate(e, context.Background(), ev, bad, taskgraph.SumProduct); err == nil {
			t.Errorf("%s weights on an observed variable accepted", name)
		}
	}
	// A refused query leaves nothing behind in the recycled state.
	res, err = propagate(e, context.Background(), ev, like, taskgraph.SumProduct)
	if err != nil {
		t.Fatal(err)
	}
	if got := readSliced(t, res, vars); !reflect.DeepEqual(got, want) {
		t.Errorf("after refused queries the sliced run gives %+v, want %+v", got, want)
	}
}

// TestSlicedBadEvidence: an out-of-range state is refused before any table is
// touched, evidence of probability zero propagates to P(e) = 0 with no
// posterior — not even the observed variable's — and neither poisons the
// recycled states.
func TestSlicedBadEvidence(t *testing.T) {
	net := bayesnet.New()
	net.MustAddNode("A", 2, nil, []float64{1, 0})
	net.MustAddNode("B", 2, []int{0}, []float64{0.5, 0.5, 0.5, 0.5})
	net.MustAddNode("C", 3, []int{1}, []float64{0.2, 0.3, 0.5, 0.1, 0.1, 0.8})
	tr, err := net.Compile()
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(tr, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	good, err := propagate(e, context.Background(), potential.Evidence{2: 1}, nil, taskgraph.SumProduct)
	if err != nil {
		t.Fatal(err)
	}
	want := readSliced(t, good, []int{0, 1, 2})
	good.Release() // the state the refused queries below recycle

	for _, ev := range []potential.Evidence{{2: 3}, {0: -1}, {1: 2, 2: 0}} {
		if _, err := propagate(e, context.Background(), ev, nil, taskgraph.SumProduct); err == nil {
			t.Errorf("evidence %v accepted", ev)
		}
	}
	// A variable the tree does not mention is ignored, as before.
	if res, err := propagate(e, context.Background(), potential.Evidence{2: 1, 99: 7}, nil, taskgraph.SumProduct); err != nil {
		t.Errorf("evidence on an unknown variable refused: %v", err)
	} else if got := readSliced(t, res, []int{0, 1, 2}); !reflect.DeepEqual(got, want) {
		t.Errorf("after refused queries: %+v, want %+v", got, want)
	}

	for _, mode := range []taskgraph.Mode{taskgraph.SumProduct, taskgraph.MaxProduct} {
		res, err := propagate(e, context.Background(), potential.Evidence{0: 1, 2: 2}, nil, mode) // P(A=1) = 0
		if err != nil {
			t.Fatal(err)
		}
		if p := res.ProbabilityOfEvidence(); p != 0 {
			t.Errorf("%v: P(impossible evidence) = %v", mode, p)
		}
		for _, v := range []int{0, 1, 2} {
			if _, err := res.Marginal(v); err == nil {
				t.Errorf("%v: posterior of %d under impossible evidence", mode, v)
			}
		}
		if _, err := res.JointMarginal([]int{0, 1}); err == nil {
			t.Errorf("%v: joint under impossible evidence", mode)
		}
		if mode == taskgraph.MaxProduct {
			if _, _, err := res.MostProbableExplanation(); err == nil {
				t.Error("MPE under impossible evidence")
			}
		}
	}
}

// TestGranularityFollowsEvidence: the rule that keeps a run on the caller's
// goroutine is asked about the run, not the graph. mid60 at P = 3 dispatches
// its full domain (mean task 811 entries against d/(P−1) = 500) and stays
// inline once 30 of its 60 variables are observed (≈ 25 entries per task),
// whichever came before.
func TestGranularityFollowsEvidence(t *testing.T) {
	tr := benchmarkModel(t, 60, 4)
	vars, cardOf := tr.Variables()
	e, err := NewEngine(tr, Options{Workers: 3, Reroot: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(18))
	for i, tc := range []struct {
		observed int
		executor string
	}{{0, "pool"}, {30, "inline"}, {0, "pool"}, {30, "inline"}} {
		_, rec, err := e.propagateFull(context.Background(), randomEvidence(rng, vars, cardOf, tc.observed), nil, taskgraph.SumProduct, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Report.Executor != tc.executor {
			t.Errorf("run %d, %d observed, %d of %d entries over %d tasks: ran on %q, want %q",
				i, tc.observed, rec.Entries, rec.GraphEntries, rec.Report.Tasks, rec.Report.Executor, tc.executor)
		}
	}
}

// TestScratchReuseAcrossSlicings is the trap in slicing: the message buffers
// and the partial buffers of partitioned marginalizations are pooled per graph
// and outlive a run, and consecutive runs now want different lengths from
// them. Goroutines drive partitioned pool runs (the dispatch seam, δ = 256
// against 4 096-entry cliques) over evidence of one width after another
// through one engine — one graph, one scratch pool, recycled states — and every
// answer must equal, bit for bit, the same run on an engine of its own, where
// every buffer is new. Under -race it also shows that no run writes a buffer
// another is using.
func TestScratchReuseAcrossSlicings(t *testing.T) {
	tr := wideTree(t)
	vars, _ := tr.Variables()
	joint := tr.Cliques[tr.Root].Vars[:2]
	opts := Options{Workers: 2, ForceDispatch: true, PartitionThreshold: 256}
	const queries = 12
	modeOf := func(i int) taskgraph.Mode {
		if i%3 == 2 {
			return taskgraph.MaxProduct
		}
		return taskgraph.SumProduct
	}
	want := make([]answers, queries)
	for i := range want {
		fresh, err := NewEngine(tr, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := propagate(fresh, context.Background(), evidenceNo(vars, i), nil, modeOf(i))
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = readAnswers(res, vars, joint); err != nil {
			t.Fatal(err)
		}
		if fresh.ObsSnapshot().Partitioned == 0 {
			t.Fatalf("query %d: δ = %d cut nothing", i, opts.PartitionThreshold)
		}
	}

	shared, err := NewEngine(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 2*queries; k++ {
				i := (5*k + 4*g) % queries // widths 1 to 4 bits, out of order
				res, err := propagate(shared, context.Background(), evidenceNo(vars, i), nil, modeOf(i))
				if err != nil {
					t.Errorf("query %d on recycled scratch: %v", i, err)
					return
				}
				got, err := readAnswers(res, vars, joint)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("query %d on recycled scratch differs from the same run on fresh scratch", i)
					return
				}
				res.Release()
			}
		}(g)
	}
	wg.Wait()
}
