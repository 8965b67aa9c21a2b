package jtree

import (
	"math"
	"testing"
)

// tinyTree builds a small hand-made tree:
//
//	0:{0,1} — 1:{1,2} — 2:{2,3}
//	           \
//	            3:{1,4}
//
// rooted at 0, all variables binary.
func tinyTree(t *testing.T) *Tree {
	t.Helper()
	vars := [][]int{{0, 1}, {1, 2}, {2, 3}, {1, 4}}
	card := [][]int{{2, 2}, {2, 2}, {2, 2}, {2, 2}}
	adj := [][]int{{1}, {0, 2, 3}, {1}, {1}}
	tr, err := NewFromAdjacency(vars, card, adj, 0)
	if err != nil {
		t.Fatalf("NewFromAdjacency: %v", err)
	}
	return tr
}

func TestNewFromAdjacency(t *testing.T) {
	tr := tinyTree(t)
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if tr.Root != 0 || tr.Cliques[0].Parent != -1 {
		t.Error("root wiring wrong")
	}
	if tr.Cliques[2].Parent != 1 || tr.Cliques[3].Parent != 1 {
		t.Error("parents wrong")
	}
	if len(tr.Cliques[1].Children) != 2 {
		t.Errorf("clique 1 has children %v", tr.Cliques[1].Children)
	}
}

func TestSeparators(t *testing.T) {
	tr := tinyTree(t)
	c1 := tr.Cliques[1]
	if len(c1.SepVars) != 1 || c1.SepVars[0] != 1 {
		t.Errorf("sep(1) = %v, want [1]", c1.SepVars)
	}
	c2 := tr.Cliques[2]
	if len(c2.SepVars) != 1 || c2.SepVars[0] != 2 {
		t.Errorf("sep(2) = %v, want [2]", c2.SepVars)
	}
	if tr.Cliques[0].SepVars != nil {
		t.Errorf("root separator = %v, want nil", tr.Cliques[0].SepVars)
	}
}

func TestValidateCatchesBadChildLink(t *testing.T) {
	tr := tinyTree(t)
	tr.Cliques[2].Parent = 0 // child link 1->2 now inconsistent
	if err := tr.Validate(); err == nil {
		t.Error("Validate missed inconsistent child link")
	}
}

func TestValidateCatchesRIPViolation(t *testing.T) {
	// Variable 9 appears in cliques 0 and 2 but not on the path between
	// them (clique 1), violating the running intersection property.
	vars := [][]int{{0, 9}, {0, 1}, {1, 9}}
	card := [][]int{{2, 2}, {2, 2}, {2, 2}}
	adj := [][]int{{1}, {0, 2}, {1}}
	tr, err := NewFromAdjacency(vars, card, adj, 0)
	if err != nil {
		t.Fatalf("NewFromAdjacency: %v", err)
	}
	if err := tr.Validate(); err == nil {
		t.Error("Validate missed RIP violation")
	}
}

func TestValidateCatchesCardinalityConflict(t *testing.T) {
	vars := [][]int{{0, 1}, {1, 2}}
	card := [][]int{{2, 2}, {3, 2}} // variable 1: cardinality 2 vs 3
	adj := [][]int{{1}, {0}}
	tr, err := NewFromAdjacency(vars, card, adj, 0)
	if err != nil {
		t.Fatalf("NewFromAdjacency: %v", err)
	}
	if err := tr.Validate(); err == nil {
		t.Error("Validate missed cardinality conflict")
	}
}

func TestTopoAndPostOrder(t *testing.T) {
	tr := tinyTree(t)
	topo, err := tr.TopoOrder()
	if err != nil {
		t.Fatalf("TopoOrder: %v", err)
	}
	pos := make(map[int]int)
	for k, i := range topo {
		pos[i] = k
	}
	for i := range tr.Cliques {
		p := tr.Cliques[i].Parent
		if p >= 0 && pos[p] > pos[i] {
			t.Errorf("parent %d after child %d in topo order", p, i)
		}
	}
	post := tr.PostOrder()
	posPost := make(map[int]int)
	for k, i := range post {
		posPost[i] = k
	}
	for i := range tr.Cliques {
		p := tr.Cliques[i].Parent
		if p >= 0 && posPost[p] < posPost[i] {
			t.Errorf("parent %d before child %d in post order", p, i)
		}
	}
}

func TestLeavesAndDepth(t *testing.T) {
	tr := tinyTree(t)
	leaves := tr.Leaves()
	if len(leaves) != 2 {
		t.Errorf("leaves = %v", leaves)
	}
	if tr.Depth(0) != 0 || tr.Depth(1) != 1 || tr.Depth(2) != 2 {
		t.Error("Depth wrong")
	}
}

func TestCliqueWeight(t *testing.T) {
	tr := tinyTree(t)
	// Clique 1: degree 3, width 2, table 4 => 24.
	if w := tr.CliqueWeight(1); w != 24 {
		t.Errorf("CliqueWeight(1) = %v, want 24", w)
	}
	// Clique 2: degree 1, width 2, table 4 => 8.
	if w := tr.CliqueWeight(2); w != 8 {
		t.Errorf("CliqueWeight(2) = %v, want 8", w)
	}
}

func TestCriticalPath(t *testing.T) {
	tr := tinyTree(t)
	w, leaf := tr.CriticalPath()
	// Root 0 (deg1,w2,4)=8, clique1=24, leaves 2 and 3 = 8 each.
	if w != 40 {
		t.Errorf("critical path weight = %v, want 40", w)
	}
	if leaf != 2 && leaf != 3 {
		t.Errorf("critical leaf = %d", leaf)
	}
}

func TestTotalWeight(t *testing.T) {
	tr := tinyTree(t)
	if w := tr.TotalWeight(); w != 8+24+8+8 {
		t.Errorf("TotalWeight = %v", w)
	}
}

func TestCloneDeep(t *testing.T) {
	tr := tinyTree(t)
	if err := tr.MaterializeRandom(1); err != nil {
		t.Fatal(err)
	}
	cp := tr.Clone()
	cp.Cliques[0].Pot.Data[0] = -99
	cp.Cliques[1].Children[0] = 99
	if tr.Cliques[0].Pot.Data[0] == -99 || tr.Cliques[1].Children[0] == 99 {
		t.Error("Clone shares storage")
	}
}

func TestMaterialize(t *testing.T) {
	tr := tinyTree(t)
	if err := tr.MaterializeUniform(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate after materialize: %v", err)
	}
	for i := range tr.Cliques {
		if c := &tr.Cliques[i]; c.Pot == nil || c.Pot.Len() != c.TableSize() {
			t.Fatalf("clique %d not materialized", i)
		}
	}
}

func TestVariablesAndCliqueOf(t *testing.T) {
	tr := tinyTree(t)
	vars, cardOf := tr.Variables()
	if len(vars) != 5 {
		t.Errorf("Variables = %v", vars)
	}
	for _, v := range vars {
		if cardOf[v] != 2 {
			t.Errorf("cardOf[%d] = %d", v, cardOf[v])
		}
	}
	if tr.CliqueOf(4) != 3 {
		t.Errorf("CliqueOf(4) = %d, want 3", tr.CliqueOf(4))
	}
	if tr.CliqueOf(99) != -1 {
		t.Error("CliqueOf(99) found a clique")
	}
}

func TestSingleCliqueTree(t *testing.T) {
	tr, err := NewFromAdjacency([][]int{{0, 1}}, [][]int{{2, 3}}, [][]int{nil}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if w, _ := tr.CriticalPath(); w != 1*2*6 {
		t.Errorf("single-clique critical path = %v", w)
	}
	if r := tr.SelectRoot(); r != 0 {
		t.Errorf("SelectRoot = %d", r)
	}
}

func TestNewFromAdjacencyErrors(t *testing.T) {
	if _, err := NewFromAdjacency([][]int{{0}}, [][]int{{2}}, [][]int{nil}, 5); err == nil {
		t.Error("accepted out-of-range root")
	}
	// Disconnected graph.
	if _, err := NewFromAdjacency([][]int{{0}, {1}}, [][]int{{2}, {2}}, [][]int{nil, nil}, 0); err == nil {
		t.Error("accepted disconnected graph")
	}
	if _, err := NewFromAdjacency([][]int{{0}}, [][]int{}, [][]int{nil}, 0); err == nil {
		t.Error("accepted inconsistent sizes")
	}
}

func TestNeighbors(t *testing.T) {
	tr := tinyTree(t)
	nb := tr.Neighbors(1)
	if len(nb) != 3 {
		t.Errorf("Neighbors(1) = %v", nb)
	}
	if nb := tr.Neighbors(0); len(nb) != 1 || nb[0] != 1 {
		t.Errorf("Neighbors(0) = %v", nb)
	}
}

func TestCriticalPathMonotoneUnderWeights(t *testing.T) {
	// A chain's critical path equals its total weight.
	ch, err := Chain(10, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	w, leaf := ch.CriticalPath()
	if math.Abs(w-ch.TotalWeight()) > 1e-9 {
		t.Errorf("chain critical path %v != total %v", w, ch.TotalWeight())
	}
	if ch.Depth(leaf) != 9 {
		t.Errorf("critical leaf depth = %d", ch.Depth(leaf))
	}
}

func TestComputeStats(t *testing.T) {
	tr := tinyTree(t)
	s := tr.ComputeStats()
	if s.Cliques != 4 || s.Variables != 5 || s.Leaves != 2 {
		t.Errorf("stats = %+v", s)
	}
	if s.MinWidth != 2 || s.MaxWidth != 2 || s.MeanWidth != 2 {
		t.Errorf("width stats = %+v", s)
	}
	if s.MaxTableSize != 4 || s.TotalEntries != 16 {
		t.Errorf("table stats = %+v", s)
	}
	if s.Depth != 2 || s.MaxChildren != 2 {
		t.Errorf("shape stats = %+v", s)
	}
	if s.CriticalRatio <= 1 {
		t.Errorf("critical ratio = %v", s.CriticalRatio)
	}
}
