package bayesnet

import (
	"math"
	"testing"

	"evprop/internal/potential"
)

func TestAddNodeBasics(t *testing.T) {
	n := New()
	a, err := n.AddNode("A", 2, nil, []float64{0.3, 0.7})
	if err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	if a != 0 || n.ID("A") != 0 || n.Name(0) != "A" || n.N() != 1 {
		t.Error("bookkeeping wrong")
	}
	if n.ID("missing") != -1 {
		t.Error("ID of missing node != -1")
	}
}

func TestAddNodeErrors(t *testing.T) {
	n := New()
	n.MustAddNode("A", 2, nil, []float64{0.3, 0.7})
	if _, err := n.AddNode("A", 2, nil, []float64{1, 0}); err == nil {
		t.Error("accepted duplicate name")
	}
	if _, err := n.AddNode("B", 0, nil, nil); err == nil {
		t.Error("accepted cardinality 0")
	}
	if _, err := n.AddNode("B", 2, []int{5}, []float64{1, 0, 1, 0}); err == nil {
		t.Error("accepted forward parent reference")
	}
	if _, err := n.AddNode("B", 2, []int{0}, []float64{1, 0}); err == nil {
		t.Error("accepted wrong-size CPT")
	}
}

func TestCPTCanonicalization(t *testing.T) {
	// Node 2 with parents declared as (1, 0): the input layout has parent 1
	// slowest, then parent 0, then self fastest. The canonical potential is
	// over sorted vars {0,1,2}.
	n := New()
	n.MustAddNode("P0", 2, nil, []float64{0.5, 0.5})
	n.MustAddNode("P1", 2, nil, []float64{0.5, 0.5})
	// dist[p1][p0][self]
	dist := []float64{
		0.10, 0.90, // p1=0, p0=0
		0.20, 0.80, // p1=0, p0=1
		0.30, 0.70, // p1=1, p0=0
		0.40, 0.60, // p1=1, p0=1
	}
	id := n.MustAddNode("C", 2, []int{1, 0}, dist)
	cpt := n.Nodes[id].CPT
	// canonical order (v0, v1, v2): At(p0, p1, self).
	cases := []struct {
		p0, p1, self int
		want         float64
	}{
		{0, 0, 0, 0.10}, {0, 0, 1, 0.90},
		{1, 0, 0, 0.20}, {1, 0, 1, 0.80},
		{0, 1, 0, 0.30}, {0, 1, 1, 0.70},
		{1, 1, 0, 0.40}, {1, 1, 1, 0.60},
	}
	for _, c := range cases {
		if got := cpt.At(c.p0, c.p1, c.self); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("CPT(p0=%d,p1=%d,self=%d) = %v, want %v", c.p0, c.p1, c.self, got, c.want)
		}
	}
}

func TestValidate(t *testing.T) {
	n, _ := Asia()
	if err := n.Validate(); err != nil {
		t.Fatalf("Asia Validate: %v", err)
	}
	// Corrupt a CPT row.
	n.Nodes[0].CPT.Data[0] = 0.5
	if err := n.Validate(); err == nil {
		t.Error("Validate missed unnormalized CPT")
	}
}

func TestTopologicalOrder(t *testing.T) {
	n, _ := Asia()
	order, err := n.TopologicalOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[int]int{}
	for i, v := range order {
		pos[v] = i
	}
	for id, node := range n.Nodes {
		for _, p := range node.Parents {
			if pos[p] > pos[id] {
				t.Errorf("parent %d after child %d", p, id)
			}
		}
	}
}

func TestJointSumsToOne(t *testing.T) {
	for _, build := range []func() (*Network, map[string]int){Asia, Sprinkler, Student} {
		n, _ := build()
		j, err := n.Joint()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(j.Sum()-1) > 1e-9 {
			t.Errorf("joint mass = %v", j.Sum())
		}
	}
}

func TestSprinklerPosterior(t *testing.T) {
	// Published values for Murphy's sprinkler network:
	// P(Sprinkler=1 | WetGrass=1) ≈ 0.4298, P(Rain=1 | WetGrass=1) ≈ 0.7079.
	n, ids := Sprinkler()
	ev := potential.Evidence{ids["WetGrass"]: 1}
	ps, err := n.ExactMarginal(ids["Sprinkler"], ev)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ps.Data[1]-0.4298) > 1e-3 {
		t.Errorf("P(S=1|W=1) = %v, want ≈0.4298", ps.Data[1])
	}
	pr, err := n.ExactMarginal(ids["Rain"], ev)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pr.Data[1]-0.7079) > 1e-3 {
		t.Errorf("P(R=1|W=1) = %v, want ≈0.7079", pr.Data[1])
	}
}

func TestAsiaPriors(t *testing.T) {
	n, ids := Asia()
	want := map[string]float64{
		"Tub":    0.0104,
		"Lung":   0.055,
		"Bronc":  0.45,
		"TbOrCa": 0.064828,
		"XRay":   0.110290,
	}
	for name, p := range want {
		m, err := n.ExactMarginal(ids[name], nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(m.Data[1]-p) > 1e-5 {
			t.Errorf("P(%s=1) = %v, want %v", name, m.Data[1], p)
		}
	}
}

func TestAsiaEvidencePropagatesDirection(t *testing.T) {
	// A positive X-ray must raise the probability of lung cancer.
	n, ids := Asia()
	prior, err := n.ExactMarginal(ids["Lung"], nil)
	if err != nil {
		t.Fatal(err)
	}
	post, err := n.ExactMarginal(ids["Lung"], potential.Evidence{ids["XRay"]: 1})
	if err != nil {
		t.Fatal(err)
	}
	if post.Data[1] <= prior.Data[1] {
		t.Errorf("P(Lung|XRay=1) = %v not above prior %v", post.Data[1], prior.Data[1])
	}
	// Explaining away: given dyspnea, also observing bronchitis lowers
	// the probability of TbOrCa.
	d := potential.Evidence{ids["Dysp"]: 1}
	db := potential.Evidence{ids["Dysp"]: 1, ids["Bronc"]: 1}
	pd, err := n.ExactMarginal(ids["TbOrCa"], d)
	if err != nil {
		t.Fatal(err)
	}
	pdb, err := n.ExactMarginal(ids["TbOrCa"], db)
	if err != nil {
		t.Fatal(err)
	}
	if pdb.Data[1] >= pd.Data[1] {
		t.Errorf("explaining away failed: %v vs %v", pdb.Data[1], pd.Data[1])
	}
}

func TestExactMarginalImpossibleEvidence(t *testing.T) {
	n := New()
	n.MustAddNode("A", 2, nil, []float64{1, 0})
	if _, err := n.ExactMarginal(0, potential.Evidence{0: 1}); err == nil {
		t.Error("zero-probability evidence did not error")
	}
}

func TestMoralizedMarriesParents(t *testing.T) {
	n, ids := Asia()
	adj := n.Moralized()
	if !adj[ids["Tub"]][ids["Lung"]] {
		t.Error("parents Tub and Lung of TbOrCa not married")
	}
	if !adj[ids["TbOrCa"]][ids["Bronc"]] {
		t.Error("parents TbOrCa and Bronc of Dysp not married")
	}
	if !adj[ids["Smoke"]][ids["Lung"]] {
		t.Error("parent-child edge Smoke–Lung missing")
	}
	if adj[ids["Asia"]][ids["Smoke"]] {
		t.Error("spurious edge Asia–Smoke")
	}
}

func TestEliminationOrderComplete(t *testing.T) {
	n, _ := Asia()
	for _, h := range []Heuristic{MinFill, MinDegree} {
		order, _ := n.eliminate(h, tieLowestID)
		if len(order) != n.N() {
			t.Fatalf("%v: order has %d of %d nodes", h, len(order), n.N())
		}
		seen := map[int]bool{}
		for _, v := range order {
			if seen[v] {
				t.Fatalf("%v: node %d eliminated twice", h, v)
			}
			seen[v] = true
		}
	}
}

func TestHeuristicString(t *testing.T) {
	if MinFill.String() != "min-fill" || MinDegree.String() != "min-degree" {
		t.Error("Heuristic String wrong")
	}
	if Heuristic(9).String() == "" {
		t.Error("unknown heuristic String empty")
	}
}

func TestTriangulationCliquesCoverFamilies(t *testing.T) {
	n, _ := Asia()
	_, cliques := n.eliminate(MinFill, tieLowestID)
	for id, node := range n.Nodes {
		family := node.CPT.Vars
		found := false
		for _, cl := range cliques {
			if subset(family, cl) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("family of node %d (%v) not covered by any clique", id, family)
		}
	}
	// No clique may contain another.
	for i, a := range cliques {
		for j, b := range cliques {
			if i != j && subset(a, b) {
				t.Errorf("clique %v ⊆ clique %v", a, b)
			}
		}
	}
}

func TestCompileAsia(t *testing.T) {
	n, _ := Asia()
	tr, err := n.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("compiled tree invalid: %v", err)
	}
	// The textbook Asia junction tree has 6 cliques of width ≤ 3.
	if tr.N() < 4 || tr.N() > 8 {
		t.Errorf("Asia compiled to %d cliques", tr.N())
	}
	for i := range tr.Cliques {
		if w := tr.Cliques[i].Width(); w > 4 {
			t.Errorf("clique %d has width %d", i, w)
		}
	}
}

func TestCompiledTreeEncodesJoint(t *testing.T) {
	// Π ψ_C / Π ψ_S over the compiled (uncalibrated) tree equals the joint
	// distribution, because separators start at 1 and each CPT is placed
	// exactly once.
	for _, build := range []func() (*Network, map[string]int){Sprinkler, Student, Asia} {
		n, _ := build()
		tr, err := n.Compile()
		if err != nil {
			t.Fatal(err)
		}
		joint, err := n.Joint()
		if err != nil {
			t.Fatal(err)
		}
		prod := potential.Scalar(1)
		for i := range tr.Cliques {
			prod, err = potential.Product(prod, tr.Cliques[i].Pot)
			if err != nil {
				t.Fatal(err)
			}
		}
		if !prod.Equal(joint, 1e-9) {
			t.Errorf("clique product does not equal joint for %d-node network", n.N())
		}
	}
}

func TestCompileHonorsRootOption(t *testing.T) {
	n, _ := Asia()
	tr, err := n.CompileJunctionTree(CompileOptions{Heuristic: MinDegree, Root: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Root != 2 {
		t.Errorf("root = %d, want 2", tr.Root)
	}
}

func TestCompileEmptyNetwork(t *testing.T) {
	if _, err := New().Compile(); err == nil {
		t.Error("compiled an empty network")
	}
}

func TestRandomNetworkValidCompiles(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		n := RandomNetwork(10, 2, 3, seed)
		if err := n.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		tr, err := n.Compile()
		if err != nil {
			t.Fatalf("seed %d: Compile: %v", seed, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("seed %d: tree invalid: %v", seed, err)
		}
	}
}

func TestRandomNetworkDeterministic(t *testing.T) {
	a := RandomNetwork(8, 3, 2, 5)
	b := RandomNetwork(8, 3, 2, 5)
	for i := range a.Nodes {
		if !a.Nodes[i].CPT.Equal(b.Nodes[i].CPT, 0) {
			t.Fatal("same seed produced different networks")
		}
	}
}

func TestNodeName(t *testing.T) {
	if nodeName(0) != "A" || nodeName(25) != "Z" {
		t.Error("single-letter names wrong")
	}
	if nodeName(26) == "" || nodeName(26) == nodeName(27) {
		t.Error("multi-letter names wrong")
	}
}

func TestSubset(t *testing.T) {
	if !subset([]int{1, 3}, []int{1, 2, 3}) {
		t.Error("subset false negative")
	}
	if subset([]int{1, 4}, []int{1, 2, 3}) {
		t.Error("subset false positive")
	}
	if !subset(nil, []int{1}) {
		t.Error("empty set not a subset")
	}
}

func TestIntersectionSize(t *testing.T) {
	if intersectionSize([]int{1, 2, 5}, []int{2, 3, 5, 7}) != 2 {
		t.Error("intersectionSize wrong")
	}
}
