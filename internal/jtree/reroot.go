package jtree

import (
	"fmt"
	"math"
)

// Reroot returns a copy of the tree reoriented so that newRoot is the root.
// The underlying undirected topology, clique domains and potentials are
// unchanged; only edge directions (parent/children) and separators follow
// the new preorder walk, exactly as in Section 4 of the paper. Separator
// variable sets are edge properties and therefore identical before and
// after; they are recomputed for consistency.
func (t *Tree) Reroot(newRoot int) (*Tree, error) {
	if newRoot < 0 || newRoot >= t.N() {
		return nil, fmt.Errorf("jtree: reroot target %d out of range", newRoot)
	}
	out := t.Clone()
	if newRoot == t.Root {
		return out, nil
	}
	// Reverse parent links along the path from newRoot to the old root.
	path := []int{}
	for i := newRoot; i >= 0; i = t.Cliques[i].Parent {
		path = append(path, i)
	}
	for k := 0; k+1 < len(path); k++ {
		child, parent := path[k], path[k+1]
		// Edge (parent -> child) becomes (child -> parent).
		out.Cliques[parent].Parent = child
		out.Cliques[parent].Children = removeInt(out.Cliques[parent].Children, child)
		out.Cliques[child].Children = append(out.Cliques[child].Children, parent)
	}
	out.Cliques[newRoot].Parent = -1
	out.Root = newRoot
	out.RecomputeSeparators()
	return out, nil
}

func removeInt(s []int, v int) []int {
	for i, x := range s {
		if x == v {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// rootSelection carries the per-clique tuple ⟨v_i, p_i, q_i⟩ of Algorithm 1.
type rootSelection struct {
	v []float64 // weight of the heaviest path from clique i down to a leaf
	p []int     // child starting the heaviest such path (-1 if leaf)
	q []int     // child starting the second-heaviest such path (-1 if none)
}

// SelectRoot implements Algorithm 1: it finds the heaviest leaf-to-leaf
// path and returns the clique on it that best balances the two sides, which
// minimizes the critical path of the rerooted tree. Runtime O(w·N).
func (t *Tree) SelectRoot() int {
	root, _ := t.selectRoot(balanceAbsDiff)
	return root
}

// SelectRootExact is SelectRoot with the balance rule replaced by the exact
// min–max objective along the heaviest path. Algorithm 1 as printed picks
// argmin |L(Cx,Ci) − L(Ci,Cy)|, which can be one clique off the true
// min–max optimum when clique weights are very uneven; this variant is the
// ablation discussed in DESIGN.md.
func (t *Tree) SelectRootExact() int {
	root, _ := t.selectRoot(balanceMinMax)
	return root
}

type balanceRule int

const (
	balanceAbsDiff balanceRule = iota // paper's Algorithm 1, line 17
	balanceMinMax                     // exact objective
)

func (t *Tree) selectRoot(rule balanceRule) (root int, path []int) {
	n := t.N()
	if n == 1 {
		return t.Root, []int{t.Root}
	}
	sel := rootSelection{
		v: make([]float64, n),
		p: make([]int, n),
		q: make([]int, n),
	}
	for i := 0; i < n; i++ {
		sel.v[i] = t.CliqueWeight(i) // line 1 of Algorithm 1
		sel.p[i], sel.q[i] = -1, -1
	}
	// Lines 2–6: bottom-up pass computing, for each clique, the best and
	// second-best child subtree path weights.
	for _, i := range t.PostOrder() {
		c := &t.Cliques[i]
		best, second := -1.0, -1.0
		for _, ch := range c.Children {
			if sel.p[i] < 0 || sel.v[ch] > best {
				second, sel.q[i] = best, sel.p[i]
				best, sel.p[i] = sel.v[ch], ch
			} else if sel.q[i] < 0 || sel.v[ch] > second {
				second, sel.q[i] = sel.v[ch], ch
			}
		}
		if sel.p[i] >= 0 {
			sel.v[i] += sel.v[sel.p[i]]
		}
	}
	// Line 7: the clique where the heaviest leaf-to-leaf path turns.
	m, bestTotal := t.Root, -1.0
	for i := 0; i < n; i++ {
		total := sel.v[i]
		if sel.q[i] >= 0 {
			total += sel.v[sel.q[i]]
		}
		if total > bestTotal {
			bestTotal, m = total, i
		}
	}
	// Lines 8–15: reconstruct the path leaf_x … m … leaf_y.
	var left []int
	for i := m; i >= 0; i = sel.p[i] {
		left = append(left, i)
	}
	// left = [m, …, leaf_x]; reverse so the path reads leaf_x … m.
	for i, j := 0, len(left)-1; i < j; i, j = i+1, j-1 {
		left[i], left[j] = left[j], left[i]
	}
	path = left
	for i := sel.q[m]; i >= 0; i = sel.p[i] {
		path = append(path, i)
	}
	// Line 17: pick the balancing clique on the path.
	prefix := make([]float64, len(path))
	acc := 0.0
	for k, i := range path {
		acc += t.CliqueWeight(i)
		prefix[k] = acc
	}
	total := prefix[len(prefix)-1]
	bestScore := math.Inf(1)
	root = path[0]
	for k, i := range path {
		lx := prefix[k]                                   // L(Cx, Ci), endpoints included
		ly := total - prefix[k] + t.CliqueWeight(path[k]) // L(Ci, Cy)
		var score float64
		switch rule {
		case balanceAbsDiff:
			score = math.Abs(lx - ly)
		case balanceMinMax:
			score = math.Max(lx, ly)
		}
		if score < bestScore {
			bestScore, root = score, i
		}
	}
	return root, path
}

// HeaviestLeafPath returns the heaviest leaf-to-leaf path found by the
// bottom-up pass of Algorithm 1 (exported for tests and tooling).
func (t *Tree) HeaviestLeafPath() []int {
	_, path := t.selectRoot(balanceAbsDiff)
	return path
}

// BestRootBrute computes, by rerooting at every clique and measuring the
// critical path, the root with the minimum critical-path weight. It is the
// O(w·N²) straightforward approach of Section 4, kept as a test oracle.
func (t *Tree) BestRootBrute() (root int, weight float64) {
	root, weight = -1, math.Inf(1)
	for i := 0; i < t.N(); i++ {
		rt, err := t.Reroot(i)
		if err != nil {
			continue
		}
		if w, _ := rt.CriticalPath(); w < weight {
			weight, root = w, i
		}
	}
	return root, weight
}

// RerootMinimal reroots the tree at the clique chosen by Algorithm 1 and
// returns the new tree along with the old and new critical-path weights.
func (t *Tree) RerootMinimal() (*Tree, float64, float64, error) {
	before, _ := t.CriticalPath()
	r := t.SelectRoot()
	nt, err := t.Reroot(r)
	if err != nil {
		return nil, 0, 0, err
	}
	after, _ := nt.CriticalPath()
	return nt, before, after, nil
}
