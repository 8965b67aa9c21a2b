package lazy

import (
	"evprop/internal/potential"
	"evprop/internal/taskgraph"
)

// Edge statuses of the pruned plan. Collect and distribute are classified
// independently (an edge may carry a full collect message yet a vacuous
// distribute one, and vice versa).
const (
	// edgeSkip: the message is provably the identity ratio and is never
	// sent. Collect: the child's subtree holds no dirty clique. Distribute:
	// every dirty clique lies inside the child's subtree, so after collect
	// the parent's separator marginal already equals the stored ψ*S.
	edgeSkip = iota
	// edgeSend: a full 3-task message.
	edgeSend
	// edgeBlock: every separator variable is hard-observed, so at most one
	// separator entry is non-zero and the message is a scalar. Collect runs
	// only Marginalize+Divide (Divide records the scalar λ); distribute is
	// skipped outright. The d-separation exploit.
	edgeBlock
)

// edgePlan classifies the two messages of one tree edge (identified by the
// child clique) and holds the pruned graph's task ids for its collect
// message (-1 when pruned away).
type edgePlan struct {
	collect int8
	dist    int8
	// obsIdx is the separator index selected by the evidence on a blocked
	// edge — where the lone surviving ratio entry (λ) lives.
	obsIdx     int
	cm, cd, cu int
}

// hull is the contiguous non-zero block [lo, lo+span) that hard evidence
// on a clique's leading (slowest-varying) variables leaves in its reduced
// table. Cliques without leading observed variables have the full-table
// hull {0, TableSize}.
type hull struct{ lo, span int }

// plan is one pruned propagation recipe for an evidence configuration:
// the collect task graph over surviving messages, the per-edge message
// classification (the distribute half is executed on demand), per-clique
// evidence hulls and the plan-time pruning counters.
type plan struct {
	g     *taskgraph.Graph
	edges []edgePlan
	dirty []bool
	hulls []hull

	sent, blocked, skipped int64 // collect messages by fate
}

func (p *Prop) buildPlan(ev potential.Evidence, like potential.Likelihood) *plan {
	t := p.tree
	n := t.N()
	pl := &plan{
		edges: make([]edgePlan, n),
		dirty: make([]bool, n),
		hulls: make([]hull, n),
	}
	for i := range pl.edges {
		pl.edges[i] = edgePlan{cm: -1, cd: -1, cu: -1}
	}

	// Dirty cliques: every clique containing a hard-observed variable (all
	// of them must be reduced, exactly as the eager AbsorbEvidence reduces
	// every clique — reduction elsewhere is a no-op), plus the one clique
	// per soft-evidence variable that absorbs its likelihood.
	for i := range t.Cliques {
		c := &t.Cliques[i]
		pl.hulls[i] = hull{0, c.TableSize()}
		for _, v := range c.Vars {
			if _, ok := ev[v]; ok {
				pl.dirty[i] = true
				break
			}
		}
	}
	for v := range like {
		if ci := t.CliqueOf(v); ci >= 0 {
			pl.dirty[ci] = true
		}
	}

	// Evidence hulls: a dirty clique whose leading variables are observed
	// keeps its non-zero entries in one contiguous block after Reduce
	// (row-major layout, Vars[0] slowest). Only hard evidence zeroes
	// entries; soft evidence scales them and never shrinks the hull.
	for i := range t.Cliques {
		if !pl.dirty[i] {
			continue
		}
		c := &t.Cliques[i]
		base, span := 0, c.TableSize()
		for k := 0; k < len(c.Vars); k++ {
			s, ok := ev[c.Vars[k]]
			if !ok {
				break
			}
			base = base*c.Card[k] + s
			span /= c.Card[k]
		}
		pl.hulls[i] = hull{base * span, span}
	}

	// Subtree dirt counts (children before parents) drive both pruning
	// rules: collect over edge (c, parent) is live iff subtree(c) is dirty;
	// distribute over it is live iff any dirt lies *outside* subtree(c).
	sub := make([]int, n)
	for _, c := range t.PostOrder() {
		if pl.dirty[c] {
			sub[c]++
		}
		for _, ch := range t.Cliques[c].Children {
			sub[c] += sub[ch]
		}
	}
	total := sub[t.Root]

	// Classify every edge and emit the pruned collect graph. Weights feed
	// the schedulers' δ-partitioning and the machine cost model, so a
	// hull-shrunk Marginalize carries its span, not its table size.
	g := &taskgraph.Graph{Tree: t}
	add := func(k taskgraph.Kind, edge, source, target int, w float64, grain int) int {
		id := len(g.Tasks)
		g.Tasks = append(g.Tasks, taskgraph.Task{
			ID: id, Kind: k, Dir: taskgraph.Collect,
			Edge: edge, Source: source, Target: target,
			Weight: w, Grain: grain,
		})
		return id
	}
	dep := func(from, to int) {
		g.Tasks[from].Succs = append(g.Tasks[from].Succs, to)
		g.Tasks[to].NDeps++
	}

	for c := range t.Cliques {
		par := t.Cliques[c].Parent
		if par < 0 {
			continue
		}
		ep := &pl.edges[c]

		blocked := len(t.Cliques[c].SepVars) > 0
		obsIdx := 0
		for k, v := range t.Cliques[c].SepVars {
			s, ok := ev[v]
			if !ok {
				blocked = false
				break
			}
			obsIdx = obsIdx*t.Cliques[c].SepCard[k] + s
		}

		switch {
		case total == sub[c]:
			ep.dist = edgeSkip
		case blocked:
			ep.dist = edgeBlock
			ep.obsIdx = obsIdx
		default:
			ep.dist = edgeSend
		}

		if sub[c] == 0 {
			ep.collect = edgeSkip
			pl.skipped++
			continue
		}
		sepSize := float64(t.Cliques[c].SepSize())
		childGrain := potential.PartitionGrain(t.Cliques[c].Vars, t.Cliques[c].Card, t.Cliques[c].SepVars)
		ep.cm = add(taskgraph.Marginalize, c, c, par, float64(pl.hulls[c].span), childGrain)
		ep.cd = add(taskgraph.Divide, c, c, par, sepSize, 1)
		dep(ep.cm, ep.cd)
		if blocked {
			ep.collect = edgeBlock
			ep.obsIdx = obsIdx
			pl.blocked++
			continue
		}
		ep.collect = edgeSend
		pl.sent++
		parentSize := float64(t.Cliques[par].TableSize())
		parentGrain := potential.PartitionGrain(t.Cliques[par].Vars, t.Cliques[par].Card, t.Cliques[c].SepVars)
		ep.cu = add(taskgraph.Multiply, c, c, par, parentSize, parentGrain)
		dep(ep.cd, ep.cu)
	}

	// Cross-edge ordering, exactly the eager builder's shape restricted to
	// surviving tasks: collect multiplies into one clique form a chain (they
	// all write ψc), and a clique's upward Marginalize waits for the last
	// of them. Blocked children never write the parent, so they need no
	// ordering against it — their Marginalize still waits on updates into
	// their *own* clique.
	for c := range t.Cliques {
		lastCU := -1
		for _, ch := range t.Cliques[c].Children {
			cu := pl.edges[ch].cu
			if cu < 0 {
				continue
			}
			if lastCU >= 0 {
				dep(lastCU, cu)
			}
			lastCU = cu
		}
		if pl.edges[c].cm >= 0 && lastCU >= 0 {
			dep(lastCU, pl.edges[c].cm)
		}
	}
	pl.g = g
	return pl
}
