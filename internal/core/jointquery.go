package core

import (
	"fmt"
	"sort"

	"evprop/internal/potential"
)

// JointMarginalAny computes the normalized posterior over an arbitrary set
// of variables, even when no single clique contains them all. It folds the
// calibrated cliques of the minimal (Steiner) subtree spanning the
// variables: for adjacent calibrated cliques, P(A ∪ B) = ψA·ψB/ψS, applied
// recursively with early marginalization so intermediate tables stay as
// small as possible. Cost is exponential only in the number of query
// variables carried across each subtree edge.
func (r *Result) JointMarginalAny(vars []int) (*potential.Potential, error) {
	if len(vars) == 0 {
		return nil, fmt.Errorf("core: empty joint query")
	}
	if r.state == nil {
		return nil, ErrReleased
	}
	query := append([]int(nil), vars...)
	sort.Ints(query)
	for i := 1; i < len(query); i++ {
		if query[i] == query[i-1] {
			return nil, fmt.Errorf("core: duplicate variable %d in joint query", query[i])
		}
	}
	// Fast path: one clique covers everything.
	if m, err := r.JointMarginal(query); err == nil {
		return m, nil
	}

	// The Steiner fold reads cliques and separators across the subtree;
	// materialize a lazy state's deferred distribute messages first. The
	// per-table scalars of elided blocked messages compose into one global
	// scalar over the fold, which the final Normalize removes.
	if err := r.state.Calibrate(); err != nil {
		return nil, err
	}
	tree := r.state.Graph().Tree
	// Covering clique per variable.
	covering := map[int]bool{}
	for _, v := range query {
		ci := tree.CliqueOf(v)
		if ci < 0 {
			return nil, fmt.Errorf("core: no clique contains variable %d", v)
		}
		covering[ci] = true
	}
	// Steiner node set: close under ancestors, then prune non-covering
	// leaves of the induced subtree.
	inSet := map[int]bool{}
	for ci := range covering {
		for i := ci; i >= 0; i = tree.Cliques[i].Parent {
			if inSet[i] {
				break
			}
			inSet[i] = true
		}
	}
	childCount := map[int]int{}
	for i := range inSet {
		if p := tree.Cliques[i].Parent; p >= 0 && inSet[p] {
			childCount[p]++
		}
	}
	pruned := true
	for pruned {
		pruned = false
		for i := range inSet {
			if childCount[i] == 0 && !covering[i] {
				// A leaf of the induced subtree carrying no query variable.
				delete(inSet, i)
				if p := tree.Cliques[i].Parent; p >= 0 && inSet[p] {
					childCount[p]--
				}
				pruned = true
			}
		}
	}

	// Order the remaining nodes deepest-first, ties by index so that siblings
	// always fold into their parent in one order (one query, one set of
	// bits), and fold messages upward.
	nodes := make([]int, 0, len(inSet))
	for i := range inSet {
		nodes = append(nodes, i)
	}
	sort.Ints(nodes)
	sort.SliceStable(nodes, func(a, b int) bool { return tree.Depth(nodes[a]) > tree.Depth(nodes[b]) })
	// Declared targets' root paths cover the subtree; anything else completes first.
	if err := r.reach(nodes...); err != nil {
		return nil, err
	}

	acc := map[int]*potential.Potential{}
	get := func(ci int) (*potential.Potential, error) {
		if p, ok := acc[ci]; ok {
			return p, nil
		}
		cp, err := r.state.CliquePot(ci)
		if err != nil {
			return nil, err
		}
		p := cp.Clone()
		acc[ci] = p
		return p, nil
	}
	querySet := map[int]bool{}
	for _, v := range query {
		querySet[v] = true
	}
	top := nodes[len(nodes)-1]
	for _, ci := range nodes {
		if ci == top {
			break
		}
		p := tree.Cliques[ci].Parent
		cur, err := get(ci)
		if err != nil {
			return nil, err
		}
		// Keep the separator with the parent plus any query variables this
		// branch carries; everything else marginalizes out now.
		keep := append([]int(nil), tree.Cliques[ci].SepVars...)
		for _, v := range cur.Vars {
			if querySet[v] && !containsSorted(keep, v) {
				keep = append(keep, v)
			}
		}
		sort.Ints(keep)
		msg, err := cur.Marginal(keep)
		if err != nil {
			return nil, err
		}
		// Divide out the separator so the edge's mass is not counted twice
		// (P(A∪B) = ψA·ψB/ψS on a calibrated tree).
		sep, err := r.state.SepPot(ci)
		if err != nil {
			return nil, err
		}
		if err := msg.DivBy(sep); err != nil {
			return nil, err
		}
		parent, err := get(p)
		if err != nil {
			return nil, err
		}
		combined, err := potential.Product(parent, msg)
		if err != nil {
			return nil, err
		}
		acc[p] = combined
	}
	topPot, err := get(top)
	if err != nil {
		return nil, err
	}
	out, err := topPot.Marginal(query)
	if err != nil {
		return nil, err
	}
	if err := out.Normalize(); err != nil {
		return nil, fmt.Errorf("core: zero posterior mass: %w", err)
	}
	return r.lift(out), nil
}

func containsSorted(s []int, v int) bool {
	i := sort.SearchInts(s, v)
	return i < len(s) && s[i] == v
}
