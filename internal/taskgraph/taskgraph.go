// Package taskgraph constructs the task dependency graph of Section 5 of
// the paper: evidence propagation in a junction tree is decomposed into a
// DAG whose nodes are node-level primitives (marginalization, division,
// extension, multiplication) and whose edges are precedence constraints.
//
// The graph is built in two steps, mirroring the paper exactly. First the
// *clique updating graph*: the junction tree is updated twice, evidence
// flowing from the leaves to the root (collection) and back from the root
// to the leaves (distribution). Second, each clique update is expanded into
// its *local task dependency graph*: a message over edge (parent P, child C)
// with separator S runs
//
//	ψ*S  = marginalize(ψsource onto S)   (Marginalize)
//	ρ    = ψ*S / ψS ;  ψS ← ψ*S          (Divide)
//	ψtgt ← ψtgt · extend(ρ)              (Multiply)
//
// The paper lists extension as a fourth task that writes ρ broadcast onto the
// target's domain for Multiply to read back. Here the broadcast is folded into
// Multiply, which reads ρ through the compiled walk of the (target ⊇ S) pair
// (potential.Plan) — the scattering pass of Zheng & Mengshoel — so a message
// is three tasks and no clique-sized temporary exists. The per-entry product
// is the same two floats either way. Kind Extend remains for per-kind arrays
// and hand-built graphs; Build emits none.
//
// Every separator starts at one, so the collect message's Divide is the
// identity: its Marginalize reduces straight into ψS, which its Multiply reads.
// The collect Divide task stays in the graph — the paper's structure, the
// simulator's and the partitioner's weights are unchanged — with nothing to
// compute.
//
// A Graph is pure structure plus weights: it can be built from a skeleton
// tree (no potentials) and fed to the simulated-multicore machine, or
// paired with a State (allocated working tables) and executed for real by
// the schedulers in internal/sched and internal/baseline.
//
// A State is split by lifetime. Its result tables (clique and separator
// potentials) are what the propagation computes and live as long as anyone
// reads them; its run scratch (per-edge message buffers) is
// used only while the graph executes, so it is owned by the Graph, lent to
// one run at a time from a pool, and handed back by State.ReleaseScratch when
// the run has succeeded. Holding a finished State therefore holds its tables
// only.
package taskgraph

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"evprop/internal/jtree"
	"evprop/internal/potential"
)

// Kind identifies the node-level primitive a task performs.
type Kind int

const (
	Marginalize Kind = iota
	Divide
	Extend
	Multiply

	// NumKinds is the number of primitive kinds, for arrays indexed by Kind
	// (per-kind time breakdowns in sched.WorkerMetrics and internal/obs).
	NumKinds = 4
)

func (k Kind) String() string {
	switch k {
	case Marginalize:
		return "marginalize"
	case Divide:
		return "divide"
	case Extend:
		return "extend"
	case Multiply:
		return "multiply"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Direction distinguishes the two passes of evidence propagation.
type Direction int

const (
	// Collect propagates evidence from the leaves toward the root.
	Collect Direction = iota
	// Distribute propagates evidence from the root back to the leaves.
	Distribute
)

func (d Direction) String() string {
	if d == Collect {
		return "collect"
	}
	return "distribute"
}

// Task is one node of the dependency graph.
type Task struct {
	ID     int
	Kind   Kind
	Dir    Direction
	Edge   int // child-clique id identifying the tree edge (child, parent)
	Source int // clique read by Marginalize / holding the message origin
	Target int // clique written by Multiply / holding the message target
	Weight float64
	// Grain is the preferred split alignment (in table entries) for the
	// scheduler's δ-partitioning: the constant-run length of the task's
	// kernel (potential.PartitionGrain), so split points land on run
	// boundaries and no two pieces reduce into the same destination cell.
	// 1 for purely contiguous kernels (Divide, and a Marginalize or Multiply
	// whose trailing variables are shared), where any split point costs the
	// same. 0 on hand-built graphs means "unknown" and is
	// treated as 1.
	Grain int
	Succs []int
	NDeps int // number of predecessors
}

// Graph is the full task dependency graph for one junction tree. It is
// immutable once built: the first TopoOrder or TotalWeight call caches what
// it derives from Tasks, PieceCounts caches one partition verdict per worker
// count, Plans compiles the full-domain kernel walks of every tree edge once,
// and every run of the graph reads those caches. It also owns the pool of run scratch
// its States draw from (see State): scratch is shaped by the tree's edges
// alone, so one pool serves every state of the graph, sum- or max-product,
// from any number of goroutines.
type Graph struct {
	Tree  *jtree.Tree
	Tasks []Task

	derive   sync.Once
	order    []int   // topological order, nil when the graph has a cycle
	orderErr error   // the cycle, if any
	weight   float64 // sum of task weights

	pieces sync.Map // worker count → []int32, see PieceCounts

	// prior marks the tasks that read a clique's table from the tree while a
	// state's copy is unwritten: each clique's first writer and a leaf's
	// collect Marginalize (State). Empty on a graph with no tasks.
	prior []bool

	planOnce sync.Once
	plans    []EdgePlans // per child clique, see Plans
	varCard  []int       // per variable id its cardinality, 0 for ids the tree lacks
	planErr  error

	scratchPool sync.Pool // of *scratch
}

// EdgePlans holds the two compiled kernel walks of one tree edge: the child
// clique against the edge's separator and the parent clique against it. The
// collect message marginalizes through Child and multiplies through Parent,
// the distribute message the other way round.
type EdgePlans struct{ Child, Parent *potential.Plan }

// Of returns the plan pairing the given clique — the edge's child or its
// parent — with the separator.
func (e EdgePlans) Of(clique, child int) *potential.Plan {
	if clique == child {
		return e.Child
	}
	return e.Parent
}

// taskIdx addresses the 3 collect + 3 distribute tasks of one edge.
type taskIdx struct{ cm, cd, cu, dm, dd, du int }

// Build constructs the full two-pass dependency graph for the given
// (possibly skeleton) junction tree: two messages on every tree edge, each a
// Marginalize over one clique of the edge, a Divide over its separator and a
// Multiply over the other clique. A tree with a single clique yields an empty
// graph. A run that needs less than both passes masks tasks (State.Target).
func Build(t *jtree.Tree) *Graph {
	g := &Graph{Tree: t}
	idx := make(map[int]taskIdx) // child clique id -> its edge's tasks

	add := func(k Kind, d Direction, edge, source, target int, w float64, grain int) int {
		id := len(g.Tasks)
		g.Tasks = append(g.Tasks, Task{
			ID: id, Kind: k, Dir: d, Edge: edge, Source: source, Target: target,
			Weight: w, Grain: grain,
		})
		return id
	}
	dep := func(from, to int) {
		g.Tasks[from].Succs = append(g.Tasks[from].Succs, to)
		g.Tasks[to].NDeps++
	}

	// Create the six tasks of every edge. Edges are identified by the
	// child clique id in the *current* rooting.
	for c := range t.Cliques {
		p := t.Cliques[c].Parent
		if p < 0 {
			continue
		}
		childSize := float64(t.Cliques[c].TableSize())
		parentSize := float64(t.Cliques[p].TableSize())
		sepSize := float64(t.Cliques[c].SepSize())
		// Kernel grains: Marginalize and Multiply range over a clique table
		// aligned against the edge's separator, so their grain is the
		// constant-run length of that (clique ⊇ separator) pair. Divide runs
		// elementwise over the separator: grain 1.
		childGrain := potential.PartitionGrain(t.Cliques[c].Vars, t.Cliques[c].Card, t.Cliques[c].SepVars)
		parentGrain := potential.PartitionGrain(t.Cliques[p].Vars, t.Cliques[p].Card, t.Cliques[c].SepVars)
		ti := taskIdx{
			cm: add(Marginalize, Collect, c, c, p, childSize, childGrain),
			cd: add(Divide, Collect, c, c, p, sepSize, 1),
			cu: add(Multiply, Collect, c, c, p, parentSize, parentGrain),
			dm: add(Marginalize, Distribute, c, p, c, parentSize, parentGrain),
			dd: add(Divide, Distribute, c, p, c, sepSize, 1),
			du: add(Multiply, Distribute, c, p, c, childSize, childGrain),
		}
		// Local chains: M -> D -> U in both directions.
		dep(ti.cm, ti.cd)
		dep(ti.cd, ti.cu)
		dep(ti.dm, ti.dd)
		dep(ti.dd, ti.du)
		idx[c] = ti
	}

	// Cross-edge dependencies.
	for c := range t.Cliques {
		children := t.Cliques[c].Children
		// Serialize the collection multiplies into clique c: they all write
		// ψc, so they form a chain (the paper's local task graph orders the
		// per-clique updates).
		for i := 1; i < len(children); i++ {
			dep(idx[children[i-1]].cu, idx[children[i]].cu)
		}
		lastCU := -1
		if len(children) > 0 {
			lastCU = idx[children[len(children)-1]].cu
		}

		if p := t.Cliques[c].Parent; p >= 0 {
			ti := idx[c]
			// c's upward marginalization waits for all collection updates
			// into c (transitively via the last element of the chain).
			if lastCU >= 0 {
				dep(lastCU, ti.cm)
			}
			// The downward marginalization toward c reads ψp, which must
			// be fully updated first.
			if gp := t.Cliques[p].Parent; gp >= 0 {
				dep(idx[p].du, ti.dm)
			} else {
				// p is the root: it is ready once every collection update
				// into it has run.
				rc := t.Cliques[p].Children
				if len(rc) > 0 {
					dep(idx[rc[len(rc)-1]].cu, ti.dm)
				}
			}
			// No explicit ordering is needed for the downward multiply
			// into ψc: it transitively follows c's upward marginalization
			// (dm waits for the parent's update, which waits for cm), and
			// the only other writers of ψc — c's children's collection
			// multiplies — already precede cm.
		}
	}

	// A clique's first writer is the head of its collect-Multiply chain, or a
	// leaf's distribute Multiply, before which only the leaf's collect
	// Marginalize reads it.
	g.prior = make([]bool, len(g.Tasks))
	for c := range t.Cliques {
		if ch := t.Cliques[c].Children; len(ch) > 0 {
			g.prior[idx[ch[0]].cu] = true
		} else if ti, ok := idx[c]; ok {
			g.prior[ti.cm], g.prior[ti.du] = true, true
		}
	}
	return g
}

// N returns the number of tasks.
func (g *Graph) N() int { return len(g.Tasks) }

// Sources returns the ids of tasks with no dependencies (initially ready).
func (g *Graph) Sources() []int {
	var out []int
	for i := range g.Tasks {
		if g.Tasks[i].NDeps == 0 {
			out = append(out, i)
		}
	}
	return out
}

// DepCounts returns a fresh slice of the per-task dependency counts,
// suitable for one execution of the graph.
func (g *Graph) DepCounts() []int32 {
	out := make([]int32, len(g.Tasks))
	for i := range g.Tasks {
		out[i] = int32(g.Tasks[i].NDeps)
	}
	return out
}

// TotalWeight returns the sum of all task weights (serial work).
func (g *Graph) TotalWeight() float64 {
	g.derive.Do(g.deriveOnce)
	return g.weight
}

// CriticalPathWeight returns the weight of the heaviest dependency chain,
// the lower bound on any schedule's makespan in weight units.
func (g *Graph) CriticalPathWeight() float64 {
	_, down := g.ChainWeights()
	best := 0.0
	for _, w := range down {
		best = max(best, w)
	}
	return best
}

// ChainWeights returns, per task, the weight of the heaviest dependency chain
// that ends with the task (up) and of the heaviest that starts with it (down),
// the task's own weight included in both: up[id]+down[id]−Weight is the
// longest path through the task, and the largest down is CriticalPathWeight.
// Both are nil when the graph has a cycle.
func (g *Graph) ChainWeights() (up, down []float64) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, nil
	}
	up = make([]float64, len(g.Tasks))
	down = make([]float64, len(g.Tasks))
	for _, id := range order {
		up[id] += g.Tasks[id].Weight
		for _, s := range g.Tasks[id].Succs {
			up[s] = max(up[s], up[id])
		}
	}
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		for _, s := range g.Tasks[id].Succs {
			down[id] = max(down[id], down[s])
		}
		down[id] += g.Tasks[id].Weight
	}
	return up, down
}

// SepSize returns the number of entries of the separator on the task's tree
// edge — the size of the buffer a Marginalize over that edge reduces into —
// or 0 on a hand-built graph that has no tree.
func (g *Graph) SepSize(id int) int {
	if g.Tree == nil {
		return 0
	}
	return g.Tree.Cliques[g.Tasks[id].Edge].SepSize()
}

// PieceCounts returns the graph's partition verdict for the given worker
// count: per task, the number of pieces it is split into (below 2: it runs
// whole), or nil when no task is split. The verdict is rule(g, workers),
// evaluated once per worker count and kept with the graph, so rule must be a
// pure function of the two; the scheduler's sched.Split is the one rule in
// use, and the slice is shared by every run and must not be modified.
func (g *Graph) PieceCounts(workers int, rule func(g *Graph, workers int) []int32) []int32 {
	v, ok := g.pieces.Load(workers)
	if !ok {
		v, _ = g.pieces.LoadOrStore(workers, rule(g, workers))
	}
	return v.([]int32)
}

// Plans returns the compiled kernel walks of every tree edge, indexed by child
// clique id (the root's entry is empty). They are built on first use from the
// cliques' and separators' domains alone — a skeleton tree has plans — and
// shared, read-only, by every state and run of the graph, and by
// internal/lazy, whose pruned graphs run over the same tree. The error is a
// tree whose separator is not a sub-domain of both its cliques.
func (g *Graph) Plans() ([]EdgePlans, error) {
	g.planOnce.Do(func() {
		t := g.Tree
		plans := make([]EdgePlans, t.N())
		for c := range t.Cliques {
			ch := &t.Cliques[c]
			if ch.Parent < 0 {
				continue
			}
			pa := &t.Cliques[ch.Parent]
			var err error
			if plans[c].Child, err = potential.NewPlan(ch.Vars, ch.Card, ch.SepVars, ch.SepCard); err == nil {
				plans[c].Parent, err = potential.NewPlan(pa.Vars, pa.Card, ch.SepVars, ch.SepCard)
			}
			if err != nil {
				g.planErr = fmt.Errorf("taskgraph: edge (%d, %d): %w", c, ch.Parent, err)
				return
			}
		}
		g.plans = plans
		// What evidence is checked against and lifted back to (State).
		vars, cardOf := t.Variables()
		if len(vars) > 0 {
			g.varCard = make([]int, vars[len(vars)-1]+1)
		}
		for v, c := range cardOf {
			g.varCard[v] = c
		}
	})
	return g.plans, g.planErr
}

// TopoOrder returns a topological order of the tasks, or an error if the
// graph has a cycle (which would indicate a construction bug). The order is
// derived once per graph and shared by every caller, who must not modify it.
func (g *Graph) TopoOrder() ([]int, error) {
	g.derive.Do(g.deriveOnce)
	return g.order, g.orderErr
}

// deriveOnce fills the graph's cached total weight and topological order.
func (g *Graph) deriveOnce() {
	for i := range g.Tasks {
		g.weight += g.Tasks[i].Weight
	}
	g.order, g.orderErr = g.topoOrder()
}

func (g *Graph) topoOrder() ([]int, error) {
	deps := g.DepCounts()
	queue := make([]int, 0, len(g.Tasks))
	for i, d := range deps {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	order := make([]int, 0, len(g.Tasks))
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, s := range g.Tasks[id].Succs {
			deps[s]--
			if deps[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != len(g.Tasks) {
		return nil, fmt.Errorf("taskgraph: cycle detected (%d of %d tasks ordered)", len(order), len(g.Tasks))
	}
	return order, nil
}

// Levels partitions the tasks into dependency levels: level 0 holds the
// sources, level k the tasks whose longest predecessor chain has k edges.
// This is the schedule shape of the OpenMP-style level-synchronous
// baseline.
func (g *Graph) Levels() [][]int {
	order, _ := g.TopoOrder()
	level := make([]int, len(g.Tasks))
	maxLevel := 0
	for _, id := range order {
		for _, s := range g.Tasks[id].Succs {
			if level[id]+1 > level[s] {
				level[s] = level[id] + 1
			}
		}
		if level[id] > maxLevel {
			maxLevel = level[id]
		}
	}
	out := make([][]int, maxLevel+1)
	for id, l := range level {
		out[l] = append(out[l], id)
	}
	return out
}

// Validate checks structural invariants: acyclicity, in-degree consistency
// and positive weights.
func (g *Graph) Validate() error {
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	indeg := make([]int, len(g.Tasks))
	for i := range g.Tasks {
		for _, s := range g.Tasks[i].Succs {
			if s < 0 || s >= len(g.Tasks) {
				return fmt.Errorf("taskgraph: task %d has successor %d out of range", i, s)
			}
			indeg[s]++
		}
	}
	for i := range g.Tasks {
		if indeg[i] != g.Tasks[i].NDeps {
			return fmt.Errorf("taskgraph: task %d NDeps=%d but in-degree=%d", i, g.Tasks[i].NDeps, indeg[i])
		}
		if g.Tasks[i].Weight <= 0 {
			return fmt.Errorf("taskgraph: task %d has weight %v", i, g.Tasks[i].Weight)
		}
	}
	return nil
}

// String summarizes a task for logs and test failures.
func (t *Task) String() string {
	return fmt.Sprintf("#%d %s/%s edge=%d %d->%d w=%.0f",
		t.ID, t.Dir, t.Kind, t.Edge, t.Source, t.Target, t.Weight)
}

// WriteDOT renders the dependency graph in Graphviz DOT form, one node per
// task colored by direction and shaped by primitive kind — a debugging and
// documentation aid (`dot -Tsvg`).
func (g *Graph) WriteDOT(w io.Writer) error {
	var b strings.Builder
	b.WriteString("digraph taskgraph {\n  rankdir=TB;\n  node [fontsize=9];\n")
	for i := range g.Tasks {
		t := &g.Tasks[i]
		shape := "box"
		switch t.Kind {
		case Marginalize:
			shape = "invtrapezium"
		case Divide:
			shape = "diamond"
		}
		color := "lightblue"
		if t.Dir == Distribute {
			color = "lightsalmon"
		}
		fmt.Fprintf(&b, "  t%d [label=\"%s\\n%s e%d w=%.0f\" shape=%s style=filled fillcolor=%s];\n",
			t.ID, t.Kind, t.Dir, t.Edge, t.Weight, shape, color)
	}
	for i := range g.Tasks {
		for _, s := range g.Tasks[i].Succs {
			fmt.Fprintf(&b, "  t%d -> t%d;\n", i, s)
		}
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}
