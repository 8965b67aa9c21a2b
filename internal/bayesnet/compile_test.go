package bayesnet

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"evprop/internal/taskgraph"
)

// refEliminate is the map-based elimination the compiler ran before it moved
// to bitsets: each step takes the live variable of least score, ties to the
// lowest id, and records {v} ∪ its live neighbors.
func refEliminate(n *Network, h Heuristic) (order []int, cliques [][]int) {
	adj := n.Moralized()
	alive := make([]bool, len(adj))
	for i := range alive {
		alive[i] = true
	}
	live := func(v int) []int {
		var nb []int
		for u := range adj[v] {
			if alive[u] {
				nb = append(nb, u)
			}
		}
		sort.Ints(nb)
		return nb
	}
	for len(order) < len(adj) {
		best, bestScore := -1, math.MaxInt
		for v := range adj {
			if !alive[v] {
				continue
			}
			nb := live(v)
			score := len(nb)
			if h == MinFill {
				score = 0
				for i, a := range nb {
					for _, b := range nb[i+1:] {
						if !adj[a][b] {
							score++
						}
					}
				}
			}
			if score < bestScore {
				best, bestScore = v, score
			}
		}
		nb := live(best)
		cl := append([]int{best}, nb...)
		sort.Ints(cl)
		cliques = append(cliques, cl)
		for i, a := range nb {
			for _, b := range nb[i+1:] {
				adj[a][b] = true
				adj[b][a] = true
			}
		}
		alive[best] = false
		order = append(order, best)
	}
	return order, maximalOnly(cliques)
}

// TestBitsetMinFillOrder holds the bitset elimination to the map-based one,
// order and maximal cliques, on the classic networks and 300 seeded random
// ones, under both heuristics.
func TestBitsetMinFillOrder(t *testing.T) {
	nets := map[string]*Network{}
	for name, build := range map[string]func() (*Network, map[string]int){"asia": Asia, "sprinkler": Sprinkler, "student": Student} {
		nets[name], _ = build()
	}
	for seed := int64(0); seed < 300; seed++ {
		nodes, states, parents := 10+int(seed%71), 2+int(seed%2), 2+int(seed%4)
		nets[fmt.Sprintf("random(%d,%d,%d,%d)", nodes, states, parents, seed)] = RandomNetwork(nodes, states, parents, seed)
	}
	for name, n := range nets {
		for _, h := range []Heuristic{MinFill, MinDegree} {
			wantOrder, wantCliques := refEliminate(n, h)
			order, cliques := n.eliminate(h, tieLowestID)
			if !reflect.DeepEqual(order, wantOrder) {
				t.Fatalf("%s %v: order %v, reference %v", name, h, order, wantOrder)
			}
			if !reflect.DeepEqual(cliques, wantCliques) {
				t.Fatalf("%s %v: cliques %v, reference %v", name, h, cliques, wantCliques)
			}
		}
	}
}

// TestCompileNeverCostlier compiles the classic networks and 160 seeded
// random ones and holds each tree to the one min-fill and the first maximal
// edge built before message cost was priced: never more full-propagation
// work (taskgraph.Graph.TotalWeight), a valid junction tree, and on the
// classic networks the very same tree, tables included.
func TestCompileNeverCostlier(t *testing.T) {
	type model struct {
		name string
		net  *Network
	}
	var models []model
	for _, c := range []struct {
		name  string
		build func() (*Network, map[string]int)
	}{{"asia", Asia}, {"sprinkler", Sprinkler}, {"student", Student}} {
		n, _ := c.build()
		models = append(models, model{c.name, n})
	}
	for _, shape := range []struct{ nodes, states, parents int }{{25, 2, 4}, {40, 3, 3}, {60, 2, 4}, {80, 2, 3}} {
		for seed := int64(1); seed <= 40; seed++ {
			models = append(models, model{
				fmt.Sprintf("random(%d,%d,%d,%d)", shape.nodes, shape.states, shape.parents, seed),
				RandomNetwork(shape.nodes, shape.states, shape.parents, seed)})
		}
	}
	cheaper, sum, least := 0, 0.0, 1.0
	for i, m := range models {
		_, refCliques := refEliminate(m.net, MinFill)
		ref, err := m.net.buildTree(refCliques, joinTree(refCliques, nil), -1)
		if err != nil {
			t.Fatalf("%s: reference tree: %v", m.name, err)
		}
		tr, err := m.net.Compile()
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		got, want := taskgraph.Build(tr).TotalWeight(), taskgraph.Build(ref).TotalWeight()
		if got > want {
			t.Errorf("%s: total weight %v, above the reference's %v", m.name, got, want)
		}
		if got < want {
			cheaper++
		}
		sum += got / want
		least = min(least, got/want)
		if i < 3 && !reflect.DeepEqual(tr, ref) {
			t.Errorf("%s: the compiled tree differs from the reference", m.name)
		}
	}
	t.Logf("%d of %d trees cheaper than the reference; cost ratio mean %.3f, least %.3f", cheaper, len(models), sum/float64(len(models)), least)
}

// TestCompileMessageCost pins the full-propagation work of the benchmark's
// three random models' trees, and that the candidates price it as
// taskgraph.Graph.TotalWeight does.
func TestCompileMessageCost(t *testing.T) {
	for _, c := range []struct {
		name           string
		nodes, parents int
		refCost, kept  float64
	}{
		{"small40", 40, 3, 5533, 4917},
		{"mid60", 60, 4, 197826, 145374},
		{"wide60", 60, 5, 3041155, 2416763},
	} {
		n := RandomNetwork(c.nodes, 2, c.parents, 7)
		cands, kept := n.JoinTreeCandidates(MinFill)
		if cands[0].Cost != c.refCost || cands[kept].Cost != c.kept {
			t.Errorf("%s: first candidate %v, kept %v; want %v and %v", c.name, cands[0].Cost, cands[kept].Cost, c.refCost, c.kept)
		}
		tr, err := n.Compile()
		if err != nil {
			t.Fatal(err)
		}
		if w := taskgraph.Build(tr).TotalWeight(); w != c.kept {
			t.Errorf("%s: TotalWeight %v, kept candidate's cost %v", c.name, w, c.kept)
		}
	}
}

// TestCompileMemoryLinear: compiling many small cliques allocates memory
// near linear in them. 2 000 independent binary variables make 2 000
// one-variable cliques, and their compile allocates some 5.4 MB: the moral
// graph and maximalOnly's bitsets are n²/8 B, 0.5 MB each, the rest is
// linear. A table of every two cliques' intersections, an int and a float64
// a pair, would be 64 MB per triangulation.
func TestCompileMemoryLinear(t *testing.T) {
	const vars, bound = 2000, 6 << 20
	n := New()
	for v := 0; v < vars; v++ {
		if _, err := n.AddNode(fmt.Sprint("v", v), 2, nil, []float64{0.5, 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tree, err := n.Compile()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if tree.N() != vars {
		t.Fatalf("%d cliques, want %d", tree.N(), vars)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Errorf("compiling %d independent variables allocated %d B, more than %d", vars, got, bound)
	}
}
