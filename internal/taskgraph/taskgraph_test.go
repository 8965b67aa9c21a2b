package taskgraph

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"evprop/internal/bayesnet"
	"evprop/internal/jtree"
	"evprop/internal/potential"
)

func chainTree(t *testing.T, n int) *jtree.Tree {
	t.Helper()
	tr, err := jtree.Chain(n, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestBuildTaskCount(t *testing.T) {
	for _, n := range []int{1, 2, 5, 17} {
		tr := chainTree(t, n)
		g := Build(tr)
		if got, want := g.N(), 6*(n-1); got != want {
			t.Errorf("n=%d: %d tasks, want %d", n, got, want)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

func TestBuildOnRandomTreesValidates(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		tr, err := jtree.Random(jtree.RandomConfig{N: 40, Width: 4, States: 2, Degree: 3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		g := Build(tr)
		if err := g.Validate(); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func TestSourcesAreLeafCollectMarginalize(t *testing.T) {
	tr, err := jtree.Star(4, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	g := Build(tr)
	for _, id := range g.Sources() {
		task := &g.Tasks[id]
		if task.Kind != Marginalize || task.Dir != Collect {
			t.Errorf("source task %s is not a collect marginalize", task)
		}
		if len(tr.Cliques[task.Source].Children) != 0 {
			t.Errorf("source task %s does not start at a leaf", task)
		}
	}
	if len(g.Sources()) != 4 {
		t.Errorf("star has %d sources, want 4", len(g.Sources()))
	}
}

func TestTopoOrderRespectsDeps(t *testing.T) {
	tr, err := jtree.Balanced(3, 2, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	g := Build(tr)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int, g.N())
	for k, id := range order {
		pos[id] = k
	}
	for i := range g.Tasks {
		for _, s := range g.Tasks[i].Succs {
			if pos[i] >= pos[s] {
				t.Fatalf("task %s not before successor %s", &g.Tasks[i], &g.Tasks[s])
			}
		}
	}
}

func TestCollectBeforeDistributePerEdge(t *testing.T) {
	tr := chainTree(t, 6)
	g := Build(tr)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int, g.N())
	for k, id := range order {
		pos[id] = k
	}
	// For each edge, the collect Multiply must precede the distribute
	// Marginalize of the same edge in every topological order induced by
	// the dependency structure — verify via reachability.
	reach := reachability(g)
	byEdge := map[int]map[string]int{}
	for i := range g.Tasks {
		task := &g.Tasks[i]
		key := task.Dir.String() + "/" + task.Kind.String()
		if byEdge[task.Edge] == nil {
			byEdge[task.Edge] = map[string]int{}
		}
		byEdge[task.Edge][key] = i
	}
	for edge, m := range byEdge {
		cu, du := m["collect/multiply"], m["distribute/marginalize"]
		if !reach[cu][du] {
			t.Errorf("edge %d: distribute marginalize not ordered after collect multiply", edge)
		}
	}
}

// reachability computes the transitive closure (small graphs only).
func reachability(g *Graph) []map[int]bool {
	order, _ := g.TopoOrder()
	reach := make([]map[int]bool, g.N())
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		reach[id] = map[int]bool{}
		for _, s := range g.Tasks[id].Succs {
			reach[id][s] = true
			for r := range reach[s] {
				reach[id][r] = true
			}
		}
	}
	return reach
}

func TestMultipliesIntoSameCliqueOrdered(t *testing.T) {
	tr, err := jtree.Star(5, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	g := Build(tr)
	reach := reachability(g)
	var cus []int
	for i := range g.Tasks {
		task := &g.Tasks[i]
		if task.Kind == Multiply && task.Dir == Collect && task.Target == tr.Root {
			cus = append(cus, i)
		}
	}
	if len(cus) != 5 {
		t.Fatalf("found %d collect multiplies into root, want 5", len(cus))
	}
	for i := range cus {
		for j := range cus {
			if i != j && !reach[cus[i]][cus[j]] && !reach[cus[j]][cus[i]] {
				t.Errorf("multiplies %d and %d into the root are unordered (write race)", cus[i], cus[j])
			}
		}
	}
}

func TestLevels(t *testing.T) {
	tr := chainTree(t, 4)
	g := Build(tr)
	levels := g.Levels()
	total := 0
	for l, ids := range levels {
		total += len(ids)
		for _, id := range ids {
			for _, s := range g.Tasks[id].Succs {
				found := false
				for l2 := l + 1; l2 < len(levels); l2++ {
					for _, x := range levels[l2] {
						if x == s {
							found = true
						}
					}
				}
				if !found {
					t.Fatalf("successor of level-%d task not in a later level", l)
				}
			}
		}
	}
	if total != g.N() {
		t.Errorf("levels cover %d of %d tasks", total, g.N())
	}
}

func TestWeights(t *testing.T) {
	tr := chainTree(t, 3)
	g := Build(tr)
	if g.TotalWeight() <= 0 {
		t.Error("total weight not positive")
	}
	cp := g.CriticalPathWeight()
	if cp <= 0 || cp > g.TotalWeight()+1e-9 {
		t.Errorf("critical path %v vs total %v", cp, g.TotalWeight())
	}
	maxW := 0.0
	for i := range g.Tasks {
		if g.Tasks[i].Weight > maxW {
			maxW = g.Tasks[i].Weight
		}
	}
	if cp < maxW {
		t.Errorf("critical path %v below max task weight %v", cp, maxW)
	}
}

// TestChainWeightsAndPieceCounts: a chain tree is one dependency chain, so the
// heaviest chain through every task is the whole graph; a branching tree's
// chains are bounded by the critical path and reach it somewhere. SepSize
// reads the edge's separator off the tree, and PieceCounts evaluates its rule
// once per worker count.
func TestChainWeightsAndPieceCounts(t *testing.T) {
	g := Build(chainTree(t, 4))
	up, down := g.ChainWeights()
	for id := range g.Tasks {
		w := g.Tasks[id].Weight
		if through := up[id] + down[id] - w; math.Abs(through-g.TotalWeight()) > 1e-9 {
			t.Errorf("%s: chain through it weighs %v of %v", &g.Tasks[id], through, g.TotalWeight())
		}
		if got, want := g.SepSize(id), g.Tree.Cliques[g.Tasks[id].Edge].SepSize(); got != want {
			t.Errorf("%s: separator %d, tree says %d", &g.Tasks[id], got, want)
		}
	}
	tr, err := jtree.Random(jtree.RandomConfig{N: 30, Width: 5, States: 3, Degree: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	g = Build(tr)
	up, down = g.ChainWeights()
	longest := 0.0
	for id := range g.Tasks {
		through := up[id] + down[id] - g.Tasks[id].Weight
		if through > g.CriticalPathWeight()+1e-9 {
			t.Errorf("%s: chain %v exceeds the critical path %v", &g.Tasks[id], through, g.CriticalPathWeight())
		}
		longest = max(longest, through)
	}
	if math.Abs(longest-g.CriticalPathWeight()) > 1e-9 {
		t.Errorf("heaviest chain %v, critical path %v", longest, g.CriticalPathWeight())
	}
	if (&Graph{Tasks: []Task{{Weight: 1}}}).SepSize(0) != 0 {
		t.Error("a hand-built graph has a separator")
	}

	calls := 0
	rule := func(g *Graph, workers int) []int32 {
		calls++
		if workers < 2 {
			return nil
		}
		return make([]int32, g.N())
	}
	for i := 0; i < 3; i++ {
		if g.PieceCounts(1, rule) != nil || len(g.PieceCounts(4, rule)) != g.N() {
			t.Fatal("PieceCounts does not return its rule's verdict")
		}
	}
	if calls != 2 {
		t.Errorf("rule evaluated %d times for two worker counts", calls)
	}
}

// TestGrains pins the split-alignment contract Build hands the scheduler:
// Marginalize and Multiply carry the constant-run length of their clique ⊇
// separator alignment (recomputed here from the domains), while Divide is
// purely contiguous and carries grain 1. Built from skeleton trees only —
// grains must not require materialized potentials.
func TestGrains(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		tr, err := jtree.Random(jtree.RandomConfig{N: 30, Width: 5, States: 3, Degree: 3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		g := Build(tr)
		for i := range g.Tasks {
			task := &g.Tasks[i]
			c := task.Edge
			p := tr.Cliques[c].Parent
			var want int
			switch {
			case task.Kind == Divide:
				want = 1
			case (task.Kind == Marginalize) == (task.Dir == Collect):
				// cm and du range over the child clique's table.
				want = potential.PartitionGrain(tr.Cliques[c].Vars, tr.Cliques[c].Card, tr.Cliques[c].SepVars)
			default:
				// cu and dm range over the parent clique's table.
				want = potential.PartitionGrain(tr.Cliques[p].Vars, tr.Cliques[p].Card, tr.Cliques[c].SepVars)
			}
			if task.Grain != want {
				t.Errorf("seed %d task %s: grain %d, want %d", seed, task, task.Grain, want)
			}
			if task.Grain < 1 {
				t.Errorf("seed %d task %s: non-positive grain %d", seed, task, task.Grain)
			}
		}
	}
	// Directed shape: in a chain tree the separator {i, i+1} is a *prefix*
	// of the child clique {i, i+1, i+2}, so child-aligned tasks (cm, du)
	// have one trailing variable absent — grain = its state count, 2 — while
	// the separator is a *suffix* of the parent clique {i-1, i, i+1}, so
	// parent-aligned tasks (cu, dm) are contiguous with grain 1.
	g := Build(chainTree(t, 3))
	for i := range g.Tasks {
		task := &g.Tasks[i]
		if task.Kind == Divide {
			continue
		}
		childAligned := (task.Kind == Marginalize) == (task.Dir == Collect)
		want := 1
		if childAligned {
			want = 2
		}
		if task.Grain != want {
			t.Errorf("chain task %s: grain %d, want %d", task, task.Grain, want)
		}
	}
}

func TestSingleCliqueGraphIsEmpty(t *testing.T) {
	tr := chainTree(t, 1)
	g := Build(tr)
	if g.N() != 0 {
		t.Errorf("single-clique graph has %d tasks", g.N())
	}
	if err := g.Validate(); err != nil {
		t.Errorf("empty graph invalid: %v", err)
	}
}

func TestKindDirectionStrings(t *testing.T) {
	if Marginalize.String() != "marginalize" || Divide.String() != "divide" ||
		Extend.String() != "extend" || Multiply.String() != "multiply" {
		t.Error("Kind strings wrong")
	}
	if Kind(42).String() == "" {
		t.Error("unknown kind empty")
	}
	if Collect.String() != "collect" || Distribute.String() != "distribute" {
		t.Error("Direction strings wrong")
	}
}

// --- execution tests ---

func TestRunSerialMatchesOracleAsia(t *testing.T) {
	net, ids := bayesnet.Asia()
	tr, err := net.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cases := []potential.Evidence{
		nil,
		{ids["XRay"]: 1},
		{ids["Asia"]: 1, ids["Smoke"]: 1},
		{ids["Dysp"]: 1, ids["Bronc"]: 0},
	}
	for ci, ev := range cases {
		g := Build(tr)
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
		for name, v := range ids {
			if _, fixed := ev[v]; fixed {
				continue
			}
			got, err := st.Marginal(v, nil)
			if err != nil {
				t.Fatalf("case %d %s: %v", ci, name, err)
			}
			want, err := net.ExactMarginal(v, ev)
			if err != nil {
				t.Fatal(err)
			}
			if !posteriorIs(got, want, 1e-9) {
				t.Errorf("case %d: P(%s|e) = %v, oracle %v", ci, name, got, want.Data)
			}
		}
	}
}

// posteriorIs reports whether a posterior read off a state is the oracle's
// table over its one variable, within tol.
func posteriorIs(got []float64, want *potential.Potential, tol float64) bool {
	return len(got) == len(want.Data) && want.Equal(&potential.Potential{Vars: want.Vars, Card: want.Card, Data: got}, tol)
}

func TestRunSerialMatchesOracleRandomNetworks(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		net := bayesnet.RandomNetwork(9, 2, 2, seed)
		tr, err := net.Compile()
		if err != nil {
			t.Fatal(err)
		}
		g := Build(tr)
		st, err := g.NewState()
		if err != nil {
			t.Fatal(err)
		}
		ev := potential.Evidence{0: 1}
		if err := st.AbsorbEvidence(ev); err != nil {
			t.Fatal(err)
		}
		if err := st.RunSerial(); err != nil {
			t.Fatal(err)
		}
		for v := 1; v < net.N(); v++ {
			got, err := st.Marginal(v, nil)
			if err != nil {
				t.Fatalf("seed %d var %d: %v", seed, v, err)
			}
			want, err := net.ExactMarginal(v, ev)
			if err != nil {
				t.Fatal(err)
			}
			if !posteriorIs(got, want, 1e-9) {
				t.Errorf("seed %d: P(%d|e) = %v, oracle %v", seed, v, got, want.Data)
			}
		}
	}
}

func TestRunSerialCalibratesRandomTree(t *testing.T) {
	// After a full two-pass propagation every pair of adjacent cliques
	// must agree on their separator (Hugin calibration).
	tr, err := jtree.Random(jtree.RandomConfig{N: 25, Width: 4, States: 2, Degree: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.MaterializeRandom(7); err != nil {
		t.Fatal(err)
	}
	g := Build(tr)
	st, err := g.NewState()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.RunSerial(); err != nil {
		t.Fatal(err)
	}
	for c := range tr.Cliques {
		p := tr.Cliques[c].Parent
		if p < 0 {
			continue
		}
		mc, err := st.Clique[c].Marginal(tr.Cliques[c].SepVars)
		if err != nil {
			t.Fatal(err)
		}
		mp, err := st.Clique[p].Marginal(tr.Cliques[c].SepVars)
		if err != nil {
			t.Fatal(err)
		}
		if err := mc.Normalize(); err != nil {
			t.Fatal(err)
		}
		if err := mp.Normalize(); err != nil {
			t.Fatal(err)
		}
		if !mc.Equal(mp, 1e-9) {
			t.Errorf("edge (%d,%d) not calibrated: %v vs %v", c, p, mc.Data, mp.Data)
		}
	}
	// All cliques must also agree on single-variable marginals.
	vars, _ := tr.Variables()
	for _, v := range vars {
		var ref *potential.Potential
		for c := range tr.Cliques {
			if !st.Clique[c].HasVar(v) {
				continue
			}
			m, err := st.Clique[c].Marginal([]int{v})
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Normalize(); err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = m
			} else if !ref.Equal(m, 1e-9) {
				t.Errorf("variable %d marginal differs across cliques", v)
			}
		}
	}
}

func TestPartitionedExecutionMatchesSerial(t *testing.T) {
	net, _ := bayesnet.Asia()
	tr, err := net.Compile()
	if err != nil {
		t.Fatal(err)
	}
	g := Build(tr)

	serial, err := g.NewState()
	if err != nil {
		t.Fatal(err)
	}
	if err := serial.RunSerial(); err != nil {
		t.Fatal(err)
	}

	parted, err := g.NewState()
	if err != nil {
		t.Fatal(err)
	}
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 3
	for _, id := range order {
		size := parted.PartitionSize(id)
		var bufs []*potential.Potential
		for lo := 0; lo < size; lo += chunk {
			hi := lo + chunk
			if hi > size {
				hi = size
			}
			// The first piece reduces straight into the task's destination,
			// the others into a private buffer each, combined in piece order.
			var buf *potential.Potential
			if lo > 0 {
				buf = parted.NewPartialBuffer(id)
			}
			if err := parted.ExecutePiece(id, lo, hi, buf); err != nil {
				t.Fatalf("task %s piece [%d,%d): %v", &g.Tasks[id], lo, hi, err)
			}
			if buf != nil {
				bufs = append(bufs, buf)
			}
		}
		if err := parted.Combine(id, bufs); err != nil {
			t.Fatal(err)
		}
	}
	for i := range serial.Clique {
		if !serial.Clique[i].Equal(parted.Clique[i], 1e-9) {
			t.Errorf("clique %d differs between serial and partitioned execution", i)
		}
	}
}

func TestStateRequiresMaterializedTree(t *testing.T) {
	tr := chainTree(t, 3) // skeleton
	g := Build(tr)
	if _, err := g.NewState(); err == nil {
		t.Error("NewState accepted a skeleton tree")
	}
}

func TestAbsorbEvidenceErrors(t *testing.T) {
	tr := chainTree(t, 2)
	if err := tr.MaterializeUniform(); err != nil {
		t.Fatal(err)
	}
	g := Build(tr)
	st, err := g.NewState()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AbsorbEvidence(potential.Evidence{0: 99}); err == nil {
		t.Error("accepted out-of-range evidence")
	}
}

func TestMarginalErrors(t *testing.T) {
	tr := chainTree(t, 2)
	if err := tr.MaterializeUniform(); err != nil {
		t.Fatal(err)
	}
	g := Build(tr)
	st, err := g.NewState()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Marginal(10_000, nil); err == nil {
		t.Error("Marginal of unknown variable succeeded")
	}
}

func TestPropagationPreservesTotalMass(t *testing.T) {
	// Without evidence, the root's total mass is invariant under
	// collection (messages are ratio-calibrated), so the normalizing
	// constant equals the original network mass.
	net, _ := bayesnet.Sprinkler()
	tr, err := net.Compile()
	if err != nil {
		t.Fatal(err)
	}
	g := Build(tr)
	st, err := g.NewState()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.RunSerial(); err != nil {
		t.Fatal(err)
	}
	if got := st.Clique[tr.Root].Sum(); math.Abs(got-1) > 1e-9 {
		t.Errorf("root mass after propagation = %v, want 1", got)
	}
}

func TestWriteDOT(t *testing.T) {
	tr := chainTree(t, 3)
	g := Build(tr)
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "digraph taskgraph") {
		t.Error("missing digraph header")
	}
	if strings.Count(out, "->") == 0 {
		t.Error("no edges rendered")
	}
	for _, want := range []string{"marginalize", "divide", "multiply", "lightsalmon"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in DOT output", want)
		}
	}
	if strings.Contains(out, "extend") {
		t.Error("DOT output has an extend node: extension is part of multiply")
	}
	if got, want := strings.Count(out, "label="), g.N(); got != want {
		t.Errorf("%d nodes rendered, want %d", got, want)
	}
}

// TestReleasedStateRefusesToRun: a state whose run scratch went back to the
// pool keeps answering reads, reports the tables alone as retained, refuses
// every execution entry point with ErrScratchReleased instead of touching a
// buffer some other run now owns — and runs again after Reset, on a pooled
// scratch, to the very bits a fresh state computes. One scratch serves both
// semirings.
func TestReleasedStateRefusesToRun(t *testing.T) {
	tr, err := jtree.Random(jtree.RandomConfig{N: 25, Width: 4, States: 2, Degree: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.MaterializeRandom(7); err != nil {
		t.Fatal(err)
	}
	g := Build(tr)
	vars, _ := tr.Variables()
	ev := potential.Evidence{vars[0]: 1, vars[5]: 0}
	run := func(st *State) {
		t.Helper()
		if err := st.AbsorbEvidence(ev); err != nil {
			t.Fatal(err)
		}
		if err := st.RunSerial(); err != nil {
			t.Fatal(err)
		}
	}
	tables := 0
	for i := range tr.Cliques {
		tables += tr.Cliques[i].TableSize()
		if tr.Cliques[i].Parent >= 0 {
			tables += tr.Cliques[i].SepSize()
		}
	}

	st, err := g.NewState()
	if err != nil {
		t.Fatal(err)
	}
	if got := st.RetainedEntries(); got <= tables {
		t.Fatalf("a runnable state retains %d entries, no more than its %d table entries", got, tables)
	}
	run(st)
	before, err := st.Marginal(vars[3], nil)
	if err != nil {
		t.Fatal(err)
	}
	st.ReleaseScratch()
	st.ReleaseScratch() // idempotent
	if got := st.RetainedEntries(); got != tables {
		t.Errorf("released state retains %d entries, tables are %d", got, tables)
	}
	after, err := st.Marginal(vars[3], nil)
	if err != nil || !slices.Equal(after, before) {
		t.Errorf("marginal read after release: %v, %v; before %v", after, err, before)
	}
	if pe := st.EvidenceMass(); pe <= 0 {
		t.Errorf("evidence mass after release: %v", pe)
	}

	for id := range g.Tasks {
		if err := st.Execute(id); !errors.Is(err, ErrScratchReleased) {
			t.Fatalf("Execute(%s) on a released state: %v", &g.Tasks[id], err)
		}
		size := st.PartitionSize(id)
		buf := st.NewPartialBuffer(id)
		if (buf != nil) != (g.Tasks[id].Kind == Marginalize) {
			t.Fatalf("NewPartialBuffer(%s) on a released state: %v", &g.Tasks[id], buf)
		}
		if err := st.ExecutePiece(id, 0, size, buf); !errors.Is(err, ErrScratchReleased) {
			t.Fatalf("ExecutePiece(%s) on a released state: %v", &g.Tasks[id], err)
		}
		if g.Tasks[id].Kind == Marginalize {
			if err := st.Combine(id, []*potential.Potential{buf}); !errors.Is(err, ErrScratchReleased) {
				t.Fatalf("Combine(%s) on a released state: %v", &g.Tasks[id], err)
			}
		}
	}
	if err := st.RunSerial(); !errors.Is(err, ErrScratchReleased) {
		t.Fatalf("RunSerial on a released state: %v", err)
	}

	for _, mode := range []Mode{SumProduct, MaxProduct} {
		fresh, err := g.NewStateMode(mode)
		if err != nil {
			t.Fatal(err)
		}
		run(fresh)
		st.Reset(mode)
		run(st)
		for i := range fresh.Clique {
			if !st.Clique[i].Equal(fresh.Clique[i], 0) {
				t.Fatalf("%v: clique %d of the reset state differs from a fresh state's", mode, i)
			}
		}
		st.ReleaseScratch()
		fresh.ReleaseScratch()
	}
}

// TestScratchPoolSharedAcrossGoroutines: concurrent propagations over one
// graph, each taking its scratch from the graph's pool and handing it back,
// all compute the serial reference bit for bit — whichever run last used the
// buffers, in whichever semiring. -race checks that a scratch has one owner
// at a time.
func TestScratchPoolSharedAcrossGoroutines(t *testing.T) {
	tr, err := jtree.Random(jtree.RandomConfig{N: 25, Width: 4, States: 2, Degree: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.MaterializeRandom(9); err != nil {
		t.Fatal(err)
	}
	g := Build(tr)
	vars, _ := tr.Variables()
	evs := []potential.Evidence{{vars[0]: 1}, {vars[2]: 0, vars[7]: 1}, {}}
	var want [2][]*State // by mode, by evidence
	for _, mode := range []Mode{SumProduct, MaxProduct} {
		for _, ev := range evs {
			ref, err := g.NewStateMode(mode)
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.AbsorbEvidence(ev); err != nil {
				t.Fatal(err)
			}
			if err := ref.RunSerial(); err != nil {
				t.Fatal(err)
			}
			want[mode] = append(want[mode], ref)
		}
	}
	const goroutines, rounds = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st, err := g.NewState()
			if err != nil {
				t.Error(err)
				return
			}
			for k := 0; k < rounds; k++ {
				mode, e := Mode((w+k)%2), (w+k)%len(evs)
				st.Reset(mode)
				if err := st.AbsorbEvidence(evs[e]); err != nil {
					t.Error(err)
					return
				}
				if err := st.RunSerial(); err != nil {
					t.Error(err)
					return
				}
				st.ReleaseScratch()
				for i := range st.Clique {
					if !st.Clique[i].Equal(want[mode][e].Clique[i], 0) {
						t.Errorf("worker %d round %d: clique %d differs from the reference", w, k, i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestConcurrentPiecesShareOnePlan: the two halves of every Marginalize and
// every Multiply run on two goroutines at once, both walking the edge's one
// compiled plan (its cursor is on each kernel call's own stack), in both
// semirings, on cliques wide enough for tiled and run-shaped plans alike. The
// result is the very bits the same pieces leave when run one after the other;
// -race checks that the pieces share nothing they write.
func TestConcurrentPiecesShareOnePlan(t *testing.T) {
	tr, err := jtree.Random(jtree.RandomConfig{N: 12, Width: 10, States: 2, Degree: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.MaterializeRandom(13); err != nil {
		t.Fatal(err)
	}
	g := Build(tr)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	run := func(mode Mode, concurrent bool) *State {
		st, err := g.NewStateMode(mode)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range order {
			if k := g.Tasks[id].Kind; k == Divide {
				if err := st.Execute(id); err != nil {
					t.Fatal(err)
				}
				continue
			}
			// Deliberately unaligned: the cut falls inside a run or a tile.
			size := st.PartitionSize(id)
			mid := size/2 + 1
			buf := st.NewPartialBuffer(id) // nil for Multiply
			var wg sync.WaitGroup
			piece := func(lo, hi int, b *potential.Potential) {
				defer wg.Done()
				if err := st.ExecutePiece(id, lo, hi, b); err != nil {
					t.Errorf("task %s piece [%d,%d): %v", &g.Tasks[id], lo, hi, err)
				}
			}
			wg.Add(2)
			if concurrent {
				go piece(0, mid, nil)
				go piece(mid, size, buf)
			} else {
				piece(0, mid, nil)
				piece(mid, size, buf)
			}
			wg.Wait()
			var bufs []*potential.Potential
			if buf != nil {
				bufs = append(bufs, buf)
			}
			if err := st.Combine(id, bufs); err != nil {
				t.Fatal(err)
			}
		}
		return st
	}
	for _, mode := range []Mode{SumProduct, MaxProduct} {
		want, got := run(mode, false), run(mode, true)
		for i := range want.Clique {
			if !want.Clique[i].Equal(got.Clique[i], 0) {
				t.Errorf("%v: clique %d differs between concurrent and sequential pieces", mode, i)
			}
		}
	}
}
