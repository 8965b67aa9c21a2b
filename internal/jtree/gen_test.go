package jtree

import (
	"testing"
)

func TestTemplateShape(t *testing.T) {
	cfg := TemplateConfig{Branches: 3, TotalCliques: 41, Width: 4, States: 2}
	tr, err := Template(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// 1 hub + 4 branches × 10 cliques.
	if tr.N() != 41 {
		t.Errorf("N = %d, want 41", tr.N())
	}
	// The root is a leaf (tip of branch 0).
	if len(tr.Cliques[tr.Root].Children) != 1 {
		t.Errorf("root has %d children, want 1 (chain tip)", len(tr.Cliques[tr.Root].Children))
	}
	// Exactly b+1 = 4 leaves... the root tip is also an endpoint but it is
	// the root, so leaf count is 3 (tips of branches 1..3).
	if got := len(tr.Leaves()); got != 3 {
		t.Errorf("leaves = %d, want 3", got)
	}
	// The hub must have degree b+1 = 4.
	hubFound := false
	for i := range tr.Cliques {
		if tr.Cliques[i].Degree() == 4 {
			hubFound = true
		}
	}
	if !hubFound {
		t.Error("no clique with hub degree 4")
	}
}

func TestTemplateWidths(t *testing.T) {
	tr, err := Template(TemplateConfig{Branches: 1, TotalCliques: 11, Width: 6, States: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Cliques {
		c := &tr.Cliques[i]
		if c.Width() != 6 {
			t.Errorf("clique %d width %d, want 6", i, c.Width())
		}
		for _, r := range c.Card {
			if r != 3 {
				t.Errorf("clique %d has non-3 cardinality", i)
			}
		}
		if c.Parent >= 0 && len(c.SepVars) != 5 {
			t.Errorf("clique %d separator width %d, want 5", i, len(c.SepVars))
		}
	}
}

func TestTemplateErrors(t *testing.T) {
	if _, err := Template(TemplateConfig{Branches: 0, TotalCliques: 10, Width: 3, States: 2}); err == nil {
		t.Error("accepted 0 branches")
	}
	if _, err := Template(TemplateConfig{Branches: 1, TotalCliques: 10, Width: 0, States: 2}); err == nil {
		t.Error("accepted width 0")
	}
}

func TestRandomShape(t *testing.T) {
	cfg := RandomConfig{N: 100, Width: 5, States: 2, Degree: 4, Seed: 42}
	tr, err := Random(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if tr.N() != 100 {
		t.Errorf("N = %d", tr.N())
	}
	for i := range tr.Cliques {
		if len(tr.Cliques[i].Children) > 4 {
			t.Errorf("clique %d has %d children, exceeds degree 4", i, len(tr.Cliques[i].Children))
		}
		if tr.Cliques[i].Width() != 5 {
			t.Errorf("clique %d width %d", i, tr.Cliques[i].Width())
		}
	}
}

func TestRandomDeterministic(t *testing.T) {
	a, err := Random(RandomConfig{N: 50, Width: 4, States: 2, Degree: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Random(RandomConfig{N: 50, Width: 4, States: 2, Degree: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Cliques {
		if a.Cliques[i].Parent != b.Cliques[i].Parent {
			t.Fatal("same seed produced different trees")
		}
	}
	c, err := Random(RandomConfig{N: 50, Width: 4, States: 2, Degree: 3, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Cliques {
		if a.Cliques[i].Parent != c.Cliques[i].Parent {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical trees")
	}
}

func TestRandomErrors(t *testing.T) {
	if _, err := Random(RandomConfig{N: 0, Width: 3, States: 2}); err == nil {
		t.Error("accepted N=0")
	}
	if _, err := Random(RandomConfig{N: 3, Width: 0, States: 2}); err == nil {
		t.Error("accepted width 0")
	}
}

func TestPaperTreeConfigs(t *testing.T) {
	for _, cfg := range []RandomConfig{JT1(), JT2(), JT3()} {
		tr, err := Random(cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%+v invalid: %v", cfg, err)
		}
		if tr.N() != cfg.N {
			t.Errorf("%+v: N = %d", cfg, tr.N())
		}
	}
}

func TestChainStarBalanced(t *testing.T) {
	ch, err := Chain(7, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(ch.Leaves()); got != 1 {
		t.Errorf("chain leaves = %d", got)
	}

	st, err := Star(5, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(st.Cliques[0].Children); got != 5 {
		t.Errorf("star children = %d", got)
	}

	bal, err := Balanced(3, 2, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := bal.Validate(); err != nil {
		t.Fatal(err)
	}
	if bal.N() != 1+2+4+8 {
		t.Errorf("balanced N = %d, want 15", bal.N())
	}
	if _, err := Balanced(1, 0, 3, 2); err == nil {
		t.Error("accepted fanout 0")
	}
}

func TestTemplateBranchesBalanced(t *testing.T) {
	// The paper: "the serial complexity of each Branch is approximately
	// equal" — all branches have the same clique count and weight.
	tr, err := Template(TemplateConfig{Branches: 4, TotalCliques: 101, Width: 6, States: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The hub is the unique degree-5 clique; each branch hangs off it.
	hub := -1
	for i := range tr.Cliques {
		if tr.Cliques[i].Degree() == 5 {
			hub = i
		}
	}
	if hub < 0 {
		t.Fatal("no hub found")
	}
	// Collect per-branch total weights by walking away from the hub.
	var branchWeights []float64
	for _, start := range tr.Neighbors(hub) {
		w := 0.0
		prev, cur := hub, start
		for {
			w += tr.CliqueWeight(cur)
			next := -1
			for _, nb := range tr.Neighbors(cur) {
				if nb != prev {
					next = nb
				}
			}
			if next < 0 {
				break
			}
			prev, cur = cur, next
		}
		branchWeights = append(branchWeights, w)
	}
	if len(branchWeights) != 5 {
		t.Fatalf("%d branches, want 5", len(branchWeights))
	}
	for i := 1; i < len(branchWeights); i++ {
		ratio := branchWeights[i] / branchWeights[0]
		if ratio < 0.95 || ratio > 1.05 {
			t.Errorf("branch %d weight %.0f vs branch 0 %.0f", i, branchWeights[i], branchWeights[0])
		}
	}
}
