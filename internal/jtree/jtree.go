// Package jtree implements junction trees: the clique-tree decomposition on
// which evidence propagation runs, together with the critical-path weight
// model (Eq. 2 of the paper) and the root-selection Algorithm 1 that
// minimizes the critical path.
//
// A tree may be fully materialized (every clique holds a potential table) or
// a *skeleton* (potentials nil). Skeletons carry enough information —
// variables and cardinalities — to compute every weight in the paper's cost
// model, which lets the simulated-multicore experiments use the paper's
// exact junction-tree parameters without allocating multi-gigabyte tables.
package jtree

import (
	"fmt"
	"math/rand"
	"sort"

	"evprop/internal/potential"
)

// Clique is one vertex of a junction tree. Vars is sorted ascending and
// Card is parallel to it. Parent is -1 for the root. SepVars/SepCard
// describe the separator with the parent (empty for the root). Pot is nil in
// skeleton trees. A separator has no table here: every propagation starts it
// at one, so a state sizes its own from SepCard.
type Clique struct {
	Vars     []int
	Card     []int
	Parent   int
	Children []int
	SepVars  []int
	SepCard  []int
	Pot      *potential.Potential
}

// Width returns the number of variables in the clique.
func (c *Clique) Width() int { return len(c.Vars) }

// TableSize returns the number of entries of the clique's potential table
// (computed from cardinalities; works on skeletons).
func (c *Clique) TableSize() int { return potential.Size(c.Card) }

// SepSize returns the number of entries of the separator table with the
// parent; 1 for the root (an empty separator is a scalar).
func (c *Clique) SepSize() int { return potential.Size(c.SepCard) }

// Degree returns the number of neighbors in the (undirected) tree.
func (c *Clique) Degree() int {
	d := len(c.Children)
	if c.Parent >= 0 {
		d++
	}
	return d
}

// Tree is a rooted junction tree.
type Tree struct {
	Cliques []Clique
	Root    int
	// cliqueOf[v] is the lowest-indexed clique holding variable v, -1 for none:
	// built once from the cliques' Vars (which no method changes) by the
	// constructors, and read by CliqueOf.
	cliqueOf []int
}

// N returns the number of cliques.
func (t *Tree) N() int { return len(t.Cliques) }

// NewFromAdjacency builds a rooted tree from clique variable sets, an
// undirected adjacency list, and a root, deriving parents, children and
// separators. Potentials are left nil (skeleton).
func NewFromAdjacency(vars [][]int, card [][]int, adj [][]int, root int) (*Tree, error) {
	n := len(vars)
	if len(card) != n || len(adj) != n {
		return nil, fmt.Errorf("jtree: inconsistent input sizes %d/%d/%d", len(vars), len(card), len(adj))
	}
	if root < 0 || root >= n {
		return nil, fmt.Errorf("jtree: root %d out of range", root)
	}
	t := &Tree{Cliques: make([]Clique, n), Root: root}
	for i := range t.Cliques {
		t.Cliques[i].Vars = append([]int(nil), vars[i]...)
		t.Cliques[i].Card = append([]int(nil), card[i]...)
		t.Cliques[i].Parent = -1
	}
	t.indexVariables()
	// BFS orientation from the root.
	visited := make([]bool, n)
	queue := []int{root}
	visited[root] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if visited[v] {
				continue
			}
			visited[v] = true
			t.Cliques[v].Parent = u
			t.Cliques[u].Children = append(t.Cliques[u].Children, v)
			queue = append(queue, v)
		}
	}
	for i := range t.Cliques {
		if !visited[i] {
			return nil, fmt.Errorf("jtree: clique %d unreachable from root %d", i, root)
		}
	}
	t.RecomputeSeparators()
	return t, nil
}

// RecomputeSeparators refreshes SepVars/SepCard of every non-root clique
// from the intersection with its parent.
func (t *Tree) RecomputeSeparators() {
	for i := range t.Cliques {
		c := &t.Cliques[i]
		if c.Parent < 0 {
			c.SepVars, c.SepCard = nil, nil
			continue
		}
		p := &t.Cliques[c.Parent]
		c.SepVars, c.SepCard = potential.IntersectDomain(c.Vars, c.Card, p.Vars)
	}
}

// Validate checks the structural invariants: a single root, consistent
// parent/child links, connectivity, sorted clique domains with consistent
// cardinalities, separators matching parent intersections, and the running
// intersection property (for every variable, the cliques containing it form
// a connected subtree).
func (t *Tree) Validate() error {
	n := t.N()
	if n == 0 {
		return fmt.Errorf("jtree: empty tree")
	}
	if t.Root < 0 || t.Root >= n {
		return fmt.Errorf("jtree: root %d out of range", t.Root)
	}
	if t.Cliques[t.Root].Parent != -1 {
		return fmt.Errorf("jtree: root %d has parent %d", t.Root, t.Cliques[t.Root].Parent)
	}
	cardOf := map[int]int{}
	seen := make([]bool, n)
	order, err := t.TopoOrder()
	if err != nil {
		return err
	}
	if len(order) != n {
		return fmt.Errorf("jtree: only %d of %d cliques reachable from root", len(order), n)
	}
	for _, i := range order {
		seen[i] = true
		c := &t.Cliques[i]
		if len(c.Vars) != len(c.Card) {
			return fmt.Errorf("jtree: clique %d has %d vars but %d cardinalities", i, len(c.Vars), len(c.Card))
		}
		for j, v := range c.Vars {
			if j > 0 && c.Vars[j-1] >= v {
				return fmt.Errorf("jtree: clique %d vars not strictly ascending", i)
			}
			if prev, ok := cardOf[v]; ok && prev != c.Card[j] {
				return fmt.Errorf("jtree: variable %d has cardinality %d and %d", v, prev, c.Card[j])
			}
			cardOf[v] = c.Card[j]
		}
		for _, ch := range c.Children {
			if ch < 0 || ch >= n || t.Cliques[ch].Parent != i {
				return fmt.Errorf("jtree: child link %d -> %d inconsistent", i, ch)
			}
		}
		if c.Parent >= 0 {
			sv, sc := potential.IntersectDomain(c.Vars, c.Card, t.Cliques[c.Parent].Vars)
			if !equalInts(sv, c.SepVars) || !equalInts(sc, c.SepCard) {
				return fmt.Errorf("jtree: clique %d separator %v/%v does not match intersection %v/%v",
					i, c.SepVars, c.SepCard, sv, sc)
			}
		}
		if c.Pot != nil {
			if !equalInts(c.Pot.Vars, c.Vars) || !equalInts(c.Pot.Card, c.Card) {
				return fmt.Errorf("jtree: clique %d potential domain mismatch", i)
			}
		}
	}
	return t.checkRIP()
}

// checkRIP verifies the running intersection property variable by variable.
func (t *Tree) checkRIP() error {
	holders := map[int][]int{}
	for i := range t.Cliques {
		for _, v := range t.Cliques[i].Vars {
			holders[v] = append(holders[v], i)
		}
	}
	inSet := make([]bool, t.N())
	for v, cl := range holders {
		if len(cl) == 1 {
			continue
		}
		for _, i := range cl {
			inSet[i] = true
		}
		// BFS within the holders, starting anywhere.
		reached := 0
		stack := []int{cl[0]}
		visited := map[int]bool{cl[0]: true}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			reached++
			for _, nb := range t.Neighbors(u) {
				if inSet[nb] && !visited[nb] {
					visited[nb] = true
					stack = append(stack, nb)
				}
			}
		}
		for _, i := range cl {
			inSet[i] = false
		}
		if reached != len(cl) {
			return fmt.Errorf("jtree: running intersection violated for variable %d (cliques %v)", v, cl)
		}
	}
	return nil
}

// Neighbors returns the undirected neighbors of clique i.
func (t *Tree) Neighbors(i int) []int {
	c := &t.Cliques[i]
	nb := append([]int(nil), c.Children...)
	if c.Parent >= 0 {
		nb = append(nb, c.Parent)
	}
	return nb
}

// Leaves returns the indices of cliques with no children.
func (t *Tree) Leaves() []int {
	var out []int
	for i := range t.Cliques {
		if len(t.Cliques[i].Children) == 0 {
			out = append(out, i)
		}
	}
	return out
}

// TopoOrder returns the cliques in a parent-before-child (preorder) walk
// from the root, erroring on cycles in the parent links.
func (t *Tree) TopoOrder() ([]int, error) {
	order := make([]int, 0, t.N())
	var walk func(i, depth int) error
	walk = func(i, depth int) error {
		if depth > t.N() {
			return fmt.Errorf("jtree: cycle detected in parent links")
		}
		order = append(order, i)
		for _, ch := range t.Cliques[i].Children {
			if err := walk(ch, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.Root, 0); err != nil {
		return nil, err
	}
	return order, nil
}

// PostOrder returns the cliques children-before-parent.
func (t *Tree) PostOrder() []int {
	pre, err := t.TopoOrder()
	if err != nil {
		return nil
	}
	for i, j := 0, len(pre)-1; i < j; i, j = i+1, j-1 {
		pre[i], pre[j] = pre[j], pre[i]
	}
	return pre
}

// Depth returns the number of edges from the root to clique i.
func (t *Tree) Depth(i int) int {
	d := 0
	for t.Cliques[i].Parent >= 0 {
		i = t.Cliques[i].Parent
		d++
	}
	return d
}

// CliqueWeight is the paper's Eq. 2 per-clique term: degree × width ×
// table size (the serial complexity of updating the clique).
func (t *Tree) CliqueWeight(i int) float64 {
	c := &t.Cliques[i]
	deg := c.Degree()
	if deg == 0 {
		deg = 1 // single-clique tree
	}
	return float64(deg) * float64(c.Width()) * float64(c.TableSize())
}

// PathWeight returns the weight of the unique path between cliques a and b,
// summing CliqueWeight over every clique on the path, endpoints included.
func (t *Tree) PathWeight(a, b int) float64 {
	path := t.Path(a, b)
	w := 0.0
	for _, i := range path {
		w += t.CliqueWeight(i)
	}
	return w
}

// Path returns the unique tree path from a to b, endpoints included.
func (t *Tree) Path(a, b int) []int {
	// Walk both nodes to the root recording ancestors, then splice.
	anc := map[int]int{} // node -> position on a's root path
	pa := []int{}
	for i := a; ; i = t.Cliques[i].Parent {
		anc[i] = len(pa)
		pa = append(pa, i)
		if t.Cliques[i].Parent < 0 {
			break
		}
	}
	pb := []int{}
	meet := -1
	for i := b; ; i = t.Cliques[i].Parent {
		if _, ok := anc[i]; ok {
			meet = i
			break
		}
		pb = append(pb, i)
		if t.Cliques[i].Parent < 0 {
			break
		}
	}
	if meet < 0 {
		return nil // disconnected; Validate would have caught this
	}
	path := append([]int(nil), pa[:anc[meet]+1]...)
	for i := len(pb) - 1; i >= 0; i-- {
		path = append(path, pb[i])
	}
	return path
}

// CriticalPath returns the maximum weighted root-to-clique path weight and
// the clique attaining it. Evidence propagation takes at least as long as
// its critical path, so the best root minimizes this value.
func (t *Tree) CriticalPath() (weight float64, leaf int) {
	order, _ := t.TopoOrder()
	acc := make([]float64, t.N())
	best, bestAt := -1.0, t.Root
	for _, i := range order {
		c := &t.Cliques[i]
		w := t.CliqueWeight(i)
		if c.Parent >= 0 {
			acc[i] = acc[c.Parent] + w
		} else {
			acc[i] = w
		}
		if acc[i] > best {
			best, bestAt = acc[i], i
		}
	}
	return best, bestAt
}

// TotalWeight returns the sum of all clique weights (the serial work).
func (t *Tree) TotalWeight() float64 {
	w := 0.0
	for i := range t.Cliques {
		w += t.CliqueWeight(i)
	}
	return w
}

// Clone returns a deep copy of the tree (including potentials, if any).
func (t *Tree) Clone() *Tree {
	out := &Tree{Cliques: make([]Clique, t.N()), Root: t.Root, cliqueOf: t.cliqueOf}
	for i := range t.Cliques {
		c := &t.Cliques[i]
		n := Clique{
			Vars:     append([]int(nil), c.Vars...),
			Card:     append([]int(nil), c.Card...),
			Parent:   c.Parent,
			Children: append([]int(nil), c.Children...),
			SepVars:  append([]int(nil), c.SepVars...),
			SepCard:  append([]int(nil), c.SepCard...),
		}
		if c.Pot != nil {
			n.Pot = c.Pot.Clone()
		}
		out.Cliques[i] = n
	}
	return out
}

// MaterializeUniform allocates potentials for a skeleton tree: clique
// potentials constant 1. The resulting distribution is uniform; it is mostly
// useful in tests.
func (t *Tree) MaterializeUniform() error {
	return t.materialize(func(*Clique, []float64) {
		// leave the constant-1 fill in place
	})
}

// MaterializeRandom allocates potentials with positive pseudo-random clique
// entries (seeded, reproducible). This mirrors the randomized junction trees
// of the paper's Section 7.
func (t *Tree) MaterializeRandom(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	return t.materialize(func(_ *Clique, data []float64) {
		for i := range data {
			data[i] = rng.Float64() + 1e-3
		}
	})
}

func (t *Tree) materialize(fill func(*Clique, []float64)) error {
	for i := range t.Cliques {
		c := &t.Cliques[i]
		pot, err := potential.NewConstant(c.Vars, c.Card, 1)
		if err != nil {
			return fmt.Errorf("jtree: clique %d: %w", i, err)
		}
		fill(c, pot.Data)
		c.Pot = pot
	}
	return nil
}

// Variables returns the sorted list of all variable ids and a map from id to
// cardinality.
func (t *Tree) Variables() ([]int, map[int]int) {
	cardOf := map[int]int{}
	for i := range t.Cliques {
		c := &t.Cliques[i]
		for j, v := range c.Vars {
			cardOf[v] = c.Card[j]
		}
	}
	vars := make([]int, 0, len(cardOf))
	for v := range cardOf {
		vars = append(vars, v)
	}
	sort.Ints(vars)
	return vars, cardOf
}

// CliqueOf returns the lowest-indexed clique containing variable v, or -1.
func (t *Tree) CliqueOf(v int) int {
	if v < 0 || v >= len(t.cliqueOf) {
		return -1
	}
	return t.cliqueOf[v]
}

// indexVariables builds the index CliqueOf reads from the cliques' Vars.
func (t *Tree) indexVariables() {
	n := 0
	for i := range t.Cliques {
		for _, v := range t.Cliques[i].Vars {
			n = max(n, v+1)
		}
	}
	t.cliqueOf = make([]int, n)
	for v := range t.cliqueOf {
		t.cliqueOf[v] = -1
	}
	for i := len(t.Cliques) - 1; i >= 0; i-- {
		for _, v := range t.Cliques[i].Vars {
			if v >= 0 { // Validate's business, not a panic here
				t.cliqueOf[v] = i
			}
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
