package jtree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRerootPreservesTopology(t *testing.T) {
	tr := tinyTree(t)
	for target := 0; target < tr.N(); target++ {
		rt, err := tr.Reroot(target)
		if err != nil {
			t.Fatalf("Reroot(%d): %v", target, err)
		}
		if rt.Root != target {
			t.Errorf("Reroot(%d) root = %d", target, rt.Root)
		}
		if err := rt.Validate(); err != nil {
			t.Errorf("Reroot(%d) invalid: %v", target, err)
		}
		// Undirected edge sets must match.
		if !sameEdges(tr, rt) {
			t.Errorf("Reroot(%d) changed topology", target)
		}
	}
}

func sameEdges(a, b *Tree) bool {
	type edge struct{ lo, hi int }
	set := map[edge]int{}
	add := func(t *Tree, d int) {
		for i := range t.Cliques {
			p := t.Cliques[i].Parent
			if p < 0 {
				continue
			}
			lo, hi := i, p
			if lo > hi {
				lo, hi = hi, lo
			}
			set[edge{lo, hi}] += d
		}
	}
	add(a, 1)
	add(b, -1)
	for _, v := range set {
		if v != 0 {
			return false
		}
	}
	return true
}

func TestRerootSelf(t *testing.T) {
	tr := tinyTree(t)
	rt, err := tr.Reroot(tr.Root)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Root != tr.Root {
		t.Error("Reroot at current root moved the root")
	}
}

func TestRerootOutOfRange(t *testing.T) {
	tr := tinyTree(t)
	if _, err := tr.Reroot(-1); err == nil {
		t.Error("Reroot(-1) succeeded")
	}
	if _, err := tr.Reroot(99); err == nil {
		t.Error("Reroot(99) succeeded")
	}
}

func TestRerootPreservesPotentials(t *testing.T) {
	tr := tinyTree(t)
	if err := tr.MaterializeRandom(5); err != nil {
		t.Fatal(err)
	}
	rt, err := tr.Reroot(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for i := range tr.Cliques {
		if !tr.Cliques[i].Pot.Equal(rt.Cliques[i].Pot, 0) {
			t.Errorf("clique %d potential changed by reroot", i)
		}
	}
	// Every non-root clique must carry the separator domain of its edge.
	for i := range rt.Cliques {
		c := &rt.Cliques[i]
		if c.Parent < 0 {
			if len(c.SepVars) != 0 {
				t.Error("new root kept a separator")
			}
			continue
		}
		if len(c.SepVars) == 0 || len(c.SepVars) != len(c.SepCard) {
			t.Errorf("clique %d separator domain %v/%v", i, c.SepVars, c.SepCard)
		}
	}
}

func TestRerootTwiceRoundTrips(t *testing.T) {
	tr := tinyTree(t)
	rt, err := tr.Reroot(3)
	if err != nil {
		t.Fatal(err)
	}
	back, err := rt.Reroot(0)
	if err != nil {
		t.Fatal(err)
	}
	if back.Root != 0 {
		t.Fatal("round trip root wrong")
	}
	for i := range tr.Cliques {
		if tr.Cliques[i].Parent != back.Cliques[i].Parent {
			t.Errorf("clique %d parent %d after round trip, want %d",
				i, back.Cliques[i].Parent, tr.Cliques[i].Parent)
		}
	}
}

func TestSelectRootOnTemplate(t *testing.T) {
	// On the Fig. 4 template rooted at the tip of branch 0, Algorithm 1
	// must move the root to the hub region, nearly halving the critical
	// path (the hub's own weight keeps the ratio strictly below 2 for
	// short branches, approaching 2 as branches lengthen).
	for _, b := range []int{1, 2, 4, 8} {
		tr, err := Template(TemplateConfig{Branches: b, TotalCliques: 40 * (b + 1), Width: 5, States: 2})
		if err != nil {
			t.Fatalf("Template(b=%d): %v", b, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("template invalid: %v", err)
		}
		before, _ := tr.CriticalPath()
		r := tr.SelectRoot()
		rt, err := tr.Reroot(r)
		if err != nil {
			t.Fatal(err)
		}
		after, _ := rt.CriticalPath()
		ratio := before / after
		if ratio < 1.7 || ratio > 2.2 {
			t.Errorf("b=%d: critical path ratio %.3f, want ≈2", b, ratio)
		}
		// Algorithm 1 must match the brute-force optimum on the
		// symmetric template.
		_, bruteW := tr.BestRootBrute()
		if after > bruteW+1e-9 {
			t.Errorf("b=%d: Algorithm 1 gives %v, brute force %v", b, after, bruteW)
		}
	}
}

func TestSelectRootNearOptimal(t *testing.T) {
	// Algorithm 1's balance rule must be within one clique weight of the
	// brute-force optimum, and the exact variant must match it.
	for seed := int64(0); seed < 20; seed++ {
		cfg := RandomConfig{N: 24, Width: 4, States: 2, Degree: 3, Seed: seed}
		tr, err := Random(cfg)
		if err != nil {
			t.Fatal(err)
		}
		bruteRoot, bruteW := tr.BestRootBrute()
		r := tr.SelectRoot()
		rt, err := tr.Reroot(r)
		if err != nil {
			t.Fatal(err)
		}
		algW, _ := rt.CriticalPath()
		maxClique := 0.0
		for i := 0; i < tr.N(); i++ {
			if w := tr.CliqueWeight(i); w > maxClique {
				maxClique = w
			}
		}
		if algW > bruteW+maxClique+1e-9 {
			t.Errorf("seed %d: Algorithm 1 root %d gives %v, brute root %d gives %v",
				seed, r, algW, bruteRoot, bruteW)
		}

		re := tr.SelectRootExact()
		rte, err := tr.Reroot(re)
		if err != nil {
			t.Fatal(err)
		}
		exW, _ := rte.CriticalPath()
		if math.Abs(exW-bruteW) > 1e-9 {
			t.Errorf("seed %d: exact root %d gives %v, brute gives %v", seed, re, exW, bruteW)
		}
	}
}

func TestSelectRootOnChainIsMiddle(t *testing.T) {
	ch, err := Chain(11, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := ch.SelectRoot()
	// All cliques weigh the same except the two endpoints (degree 1 vs 2),
	// so the balanced root is near the middle: depth about 5 from the end.
	d := ch.Depth(r)
	if d < 4 || d > 6 {
		t.Errorf("chain root depth = %d, want ≈5", d)
	}
}

func TestHeaviestLeafPathEndpoints(t *testing.T) {
	tr, err := Template(TemplateConfig{Branches: 2, TotalCliques: 31, Width: 4, States: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := tr.HeaviestLeafPath()
	if len(p) < 2 {
		t.Fatalf("path too short: %v", p)
	}
	first, last := p[0], p[len(p)-1]
	if len(tr.Cliques[first].Children) != 0 && first != tr.Root {
		t.Errorf("path start %d is not a leaf", first)
	}
	if len(tr.Cliques[last].Children) != 0 && last != tr.Root {
		t.Errorf("path end %d is not a leaf", last)
	}
	// Consecutive path entries must be tree neighbors.
	for k := 0; k+1 < len(p); k++ {
		found := false
		for _, nb := range tr.Neighbors(p[k]) {
			if nb == p[k+1] {
				found = true
			}
		}
		if !found {
			t.Errorf("path entries %d,%d not adjacent", p[k], p[k+1])
		}
	}
}

func TestRerootMinimalReportsWeights(t *testing.T) {
	tr, err := Template(TemplateConfig{Branches: 4, TotalCliques: 51, Width: 4, States: 2})
	if err != nil {
		t.Fatal(err)
	}
	nt, before, after, err := tr.RerootMinimal()
	if err != nil {
		t.Fatal(err)
	}
	if after > before {
		t.Errorf("rerooting increased critical path: %v -> %v", before, after)
	}
	if err := nt.Validate(); err != nil {
		t.Errorf("rerooted tree invalid: %v", err)
	}
}

func TestQuickRerootInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := RandomConfig{
			N:      2 + rng.Intn(30),
			Width:  1 + rng.Intn(4),
			States: 1 + rng.Intn(3),
			Degree: 1 + rng.Intn(4),
			Seed:   seed,
		}
		tr, err := Random(cfg)
		if err != nil {
			return false
		}
		if tr.Validate() != nil {
			return false
		}
		target := rng.Intn(tr.N())
		rt, err := tr.Reroot(target)
		if err != nil {
			return false
		}
		if rt.Validate() != nil || rt.Root != target {
			return false
		}
		if !sameEdges(tr, rt) {
			return false
		}
		// Total weight is root-independent (degrees are undirected).
		return math.Abs(tr.TotalWeight()-rt.TotalWeight()) < 1e-9
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(99))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickSelectRootOnPath(t *testing.T) {
	// The selected root must lie on the heaviest leaf-to-leaf path.
	f := func(seed int64) bool {
		n := int(seed % 29)
		if n < 0 {
			n = -n
		}
		cfg := RandomConfig{N: 2 + n, Width: 3, States: 2, Degree: 3, Seed: seed}
		tr, err := Random(cfg)
		if err != nil {
			return false
		}
		r := tr.SelectRoot()
		for _, i := range tr.HeaviestLeafPath() {
			if i == r {
				return true
			}
		}
		return false
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(100))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
