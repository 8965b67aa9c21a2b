package evprop

import (
	"fmt"
	"math"
	"testing"
)

// Metamorphic properties of the lazy engine's pruning, stated over the work
// counters rather than the answers: observing a d-separating variable must
// strictly *reduce* the messages, tasks and flops of an otherwise identical
// query, and grafting barren (unobserved, unqueried) branches onto the
// network must change neither the answers nor the number of table entries
// the query materializes.

// chainNet builds the Markov chain X0 → X1 → … → X{n-1} with fixed CPTs,
// optionally with a barren pendant leaf L_i hanging off every interior X_i.
func chainNet(t *testing.T, n int, withLeaves bool) *Network {
	t.Helper()
	net := NewNetwork()
	net.MustAddVariable("X0", 2, nil, []float64{0.6, 0.4})
	for i := 1; i < n; i++ {
		net.MustAddVariable(fmt.Sprintf("X%d", i), 2,
			[]string{fmt.Sprintf("X%d", i-1)}, []float64{0.7, 0.3, 0.2, 0.8})
	}
	if withLeaves {
		for i := 1; i < n-1; i++ {
			net.MustAddVariable(fmt.Sprintf("L%d", i), 2,
				[]string{fmt.Sprintf("X%d", i)}, []float64{0.5, 0.5, 0.9, 0.1})
		}
	}
	return net
}

// peStats propagates the evidence on a lazy engine and snapshots the
// pruning counters after reading only P(e) — no posterior is pulled, so
// the counters reflect the collect pass alone (distribution stays wholly
// undemanded).
func peStats(t *testing.T, eng *Engine, ev Evidence) (float64, PropagationStats) {
	t.Helper()
	res, err := eng.Propagate(ev)
	if err != nil {
		t.Fatalf("propagate %v: %v", ev, err)
	}
	defer res.Close()
	stats, ok := res.PropagationStats()
	if !ok {
		t.Fatal("engine is not lazy")
	}
	// The lazy engines of these tests come from compileColumn: their pruned
	// graphs, a handful of tasks each, still go to the parallel scheduler.
	if ran := res.Records()[0].Executor; ran != "pool" {
		t.Fatalf("lazy run took executor %q, want pool", ran)
	}
	return res.ProbabilityOfEvidence(), stats
}

// TestLazyDSeparationStrictlyReducesWork: with the far end of the chain
// observed, every collect message on the path to the root is live. Also
// observing a variable in the middle of that path d-separates the far
// evidence from the root, so the separator it sits on blocks — the message
// across it collapses to a scalar — and the message, task and flop counts
// must all strictly drop, while the answers stay exact.
func TestLazyDSeparationStrictlyReducesWork(t *testing.T) {
	const n = 10
	net := chainNet(t, n, false)
	eng, _ := compileColumn(t, net, Options{Workers: 2, Lazy: true})
	defer eng.Close()
	eager, err := net.Compile(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eager.Close()

	// Pick the chain end whose clique path to the (possibly rerooted) tree
	// root is longer, and the separator variable halfway along that path:
	// that variable d-separates the far evidence from the root.
	tree := eng.inner.Tree()
	far := "X0"
	if tree.Depth(tree.CliqueOf(eng.net.inner.ID(fmt.Sprintf("X%d", n-1)))) >
		tree.Depth(tree.CliqueOf(eng.net.inner.ID("X0"))) {
		far = fmt.Sprintf("X%d", n-1)
	}
	var path []int // cliques from far's clique up to the root
	for c := tree.CliqueOf(eng.net.inner.ID(far)); c >= 0; c = tree.Cliques[c].Parent {
		path = append(path, c)
	}
	if len(path) < 4 {
		t.Fatalf("chain compiled to a %d-clique path; need depth for a midpoint", len(path))
	}
	midClique := path[len(path)/2]
	if len(tree.Cliques[midClique].SepVars) != 1 {
		t.Fatalf("chain separator holds %d variables, want 1", len(tree.Cliques[midClique].SepVars))
	}
	mid := eng.net.inner.Name(tree.Cliques[midClique].SepVars[0])

	ev1 := Evidence{far: 1}
	ev2 := Evidence{far: 1, mid: 0}
	pe1, s1 := peStats(t, eng, ev1)
	pe2, s2 := peStats(t, eng, ev2)

	// Exactness first: both configurations match the eager engine.
	for ev, lazyPE := range map[*Evidence]float64{&ev1: pe1, &ev2: pe2} {
		res, err := eager.Propagate(*ev)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(res.ProbabilityOfEvidence() - lazyPE); d > 1e-12 {
			t.Errorf("P(e) for %v: lazy %v eager %v", *ev, lazyPE, res.ProbabilityOfEvidence())
		}
		res.Close()
	}

	// The metamorphic claims: observing mid strictly reduces work.
	if s2.MessagesSent >= s1.MessagesSent {
		t.Errorf("MessagesSent %d → %d: observing %s did not reduce sent messages", s1.MessagesSent, s2.MessagesSent, mid)
	}
	if s2.MessagesBlocked <= s1.MessagesBlocked {
		t.Errorf("MessagesBlocked %d → %d: observing %s blocked nothing", s1.MessagesBlocked, s2.MessagesBlocked, mid)
	}
	if s2.TasksRun >= s1.TasksRun {
		t.Errorf("TasksRun %d → %d: observing %s did not reduce tasks", s1.TasksRun, s2.TasksRun, mid)
	}
	if s2.Flops >= s1.Flops {
		t.Errorf("Flops %d → %d: observing %s did not reduce flops", s1.Flops, s2.Flops, mid)
	}
	if s1.Flops >= s1.FlopsFull || s2.Flops >= s2.FlopsFull {
		t.Errorf("lazy flops (%d, %d) not below the eager budget %d", s1.Flops, s2.Flops, s1.FlopsFull)
	}
}

// TestLazyBarrenBranchesCostNothing: hanging unobserved, unqueried pendant
// leaves off every interior chain variable must change neither P(e) nor any
// chain posterior (the leaves marginalize to one), and the query must not
// materialize a single extra table entry for them — barren subtrees are
// never copied, reduced or messaged.
func TestLazyBarrenBranchesCostNothing(t *testing.T) {
	const n = 6
	bare := chainNet(t, n, false)
	leafy := chainNet(t, n, true)
	// Evidence on both chain ends keeps every chain edge active no matter
	// where either compilation roots the tree, making the two engines'
	// collect workloads directly comparable.
	ev := Evidence{"X0": 1, fmt.Sprintf("X%d", n-1): 0}

	bareEng, _ := compileColumn(t, bare, Options{Workers: 2, Lazy: true})
	defer bareEng.Close()
	leafyEng, _ := compileColumn(t, leafy, Options{Workers: 2, Lazy: true})
	defer leafyEng.Close()

	peBare, sBare := peStats(t, bareEng, ev)
	peLeafy, sLeafy := peStats(t, leafyEng, ev)

	if d := math.Abs(peBare - peLeafy); d > 1e-12 {
		t.Errorf("barren leaves changed P(e): %v vs %v", peBare, peLeafy)
	}
	if sLeafy.MaterializedEntries > sBare.MaterializedEntries {
		t.Errorf("barren leaves inflated materialization: %d entries vs %d",
			sLeafy.MaterializedEntries, sBare.MaterializedEntries)
	}
	if sLeafy.MessagesSent > sBare.MessagesSent {
		t.Errorf("barren leaves added messages: %d sent vs %d", sLeafy.MessagesSent, sBare.MessagesSent)
	}

	// Answers are unchanged too: every chain posterior agrees across the
	// two networks (queried after the stats snapshots above, so demand-
	// driven distribution never polluted the materialization comparison).
	resB, err := bareEng.Propagate(ev)
	if err != nil {
		t.Fatal(err)
	}
	defer resB.Close()
	resL, err := leafyEng.Propagate(ev)
	if err != nil {
		t.Fatal(err)
	}
	defer resL.Close()
	for i := 1; i < n-1; i++ {
		v := fmt.Sprintf("X%d", i)
		pb, err := resB.Posterior(v)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := resL.Posterior(v)
		if err != nil {
			t.Fatal(err)
		}
		for s := range pb {
			if d := math.Abs(pb[s] - pl[s]); d > 1e-12 {
				t.Errorf("barren leaves moved posterior %s[%d] by %g", v, s, d)
			}
		}
	}
}

// TestLazySoftEvidenceMatchesEager pins the soft-evidence path: likelihood
// weights dirty exactly one clique per variable and never shrink a hull,
// and the posteriors must match the eager engine.
func TestLazySoftEvidenceMatchesEager(t *testing.T) {
	net := chainNet(t, 8, false)
	soft := SoftEvidence{"X3": {0.9, 0.4}}
	ev := Evidence{"X6": 1}

	lazyEng, executor := compileColumn(t, net, Options{Workers: 2, Lazy: true})
	defer lazyEng.Close()
	eager, err := net.Compile(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eager.Close()

	lr, err := lazyEng.PropagateSoft(ev, soft)
	if err != nil {
		t.Fatal(err)
	}
	defer lr.Close()
	if ran := lr.Records()[0].Executor; ran != executor {
		t.Fatalf("lazy run took executor %q, want %q", ran, executor)
	}
	er, err := eager.PropagateSoft(ev, soft)
	if err != nil {
		t.Fatal(err)
	}
	defer er.Close()

	if d := math.Abs(lr.ProbabilityOfEvidence() - er.ProbabilityOfEvidence()); d > 1e-12 {
		t.Errorf("soft P(e): lazy %v eager %v", lr.ProbabilityOfEvidence(), er.ProbabilityOfEvidence())
	}
	lp, err := lr.Posteriors()
	if err != nil {
		t.Fatal(err)
	}
	ep, err := er.Posteriors()
	if err != nil {
		t.Fatal(err)
	}
	for v, p := range ep {
		for s := range p {
			if d := math.Abs(lp[v][s] - p[s]); d > 1e-9 {
				t.Errorf("soft posterior %q[%d]: lazy %v eager %v", v, s, lp[v][s], p[s])
			}
		}
	}
	if stats, ok := lr.PropagationStats(); !ok || stats.MessagesSkipped == 0 {
		t.Errorf("soft+hard evidence on a chain should still skip messages: %+v", stats)
	}
}
