package baseline

import (
	"testing"

	"evprop/internal/bayesnet"
	"evprop/internal/jtree"
	"evprop/internal/lazy"
	"evprop/internal/potential"
	"evprop/internal/taskgraph"
)

// fixture returns a graph plus the serial reference state.
func fixture(t *testing.T) (*taskgraph.Graph, *taskgraph.State) {
	t.Helper()
	tr, err := jtree.Random(jtree.RandomConfig{N: 24, Width: 5, States: 2, Degree: 3, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.MaterializeRandom(31); err != nil {
		t.Fatal(err)
	}
	g := taskgraph.Build(tr)
	ref, err := g.NewState()
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.RunSerial(); err != nil {
		t.Fatal(err)
	}
	return g, ref
}

func assertSame(t *testing.T, label string, ref, got *taskgraph.State) {
	t.Helper()
	for i := range ref.Clique {
		a, b := ref.Clique[i].Clone(), got.Clique[i].Clone()
		if err := a.Normalize(); err != nil {
			t.Fatal(err)
		}
		if err := b.Normalize(); err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b, 1e-9) {
			t.Fatalf("%s: clique %d differs from serial reference", label, i)
		}
	}
}

func TestLevelSyncMatchesSerial(t *testing.T) {
	g, ref := fixture(t)
	for _, p := range []int{1, 2, 4, 8} {
		st, err := g.NewState()
		if err != nil {
			t.Fatal(err)
		}
		if err := LevelSync(st, p); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		assertSame(t, "levelsync", ref, st)
	}
	st, _ := g.NewState()
	if err := LevelSync(st, 0); err == nil {
		t.Error("accepted p=0")
	}
}

func TestBaselinesOnBayesNet(t *testing.T) {
	// LevelSync must reproduce the brute-force oracle on Asia, driving the
	// eager state and a lazy state's pruned graph.
	net, ids := bayesnet.Asia()
	tr, err := net.Compile()
	if err != nil {
		t.Fatal(err)
	}
	g := taskgraph.Build(tr)
	lp, err := lazy.New(tr, g)
	if err != nil {
		t.Fatal(err)
	}
	ev := potential.Evidence{ids["Dysp"]: 1}
	type marginaler interface {
		Marginal(v int, dst []float64) ([]float64, error)
	}
	check := func(label string, st marginaler) {
		t.Helper()
		for name, v := range ids {
			if v == ids["Dysp"] {
				continue
			}
			got, err := st.Marginal(v, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := net.ExactMarginal(v, ev)
			if err != nil {
				t.Fatal(err)
			}
			if !want.Equal(&potential.Potential{Vars: want.Vars, Card: want.Card, Data: got}, 1e-9) {
				t.Errorf("%s: P(%s|e) = %v, oracle %v", label, name, got, want.Data)
			}
		}
	}
	st, err := g.NewState()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AbsorbEvidence(ev); err != nil {
		t.Fatal(err)
	}
	if err := LevelSync(st, 4); err != nil {
		t.Fatal(err)
	}
	check("levelsync", st)
	lst, err := lp.NewState(taskgraph.SumProduct, ev, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := LevelSync(lst, 4); err != nil {
		t.Fatalf("lazy: %v", err)
	}
	check("levelsync lazy", lst)
}

func TestEmptyGraphBaselines(t *testing.T) {
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
	if err := LevelSync(st, 2); err != nil {
		t.Errorf("levelsync: %v", err)
	}
}
