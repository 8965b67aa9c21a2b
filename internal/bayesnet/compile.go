package bayesnet

import (
	"fmt"
	"math/bits"
	"slices"

	"evprop/internal/jtree"
	"evprop/internal/potential"
)

// Heuristic selects the elimination-order heuristic used for triangulation.
type Heuristic int

const (
	// MinFill eliminates the variable adding the fewest fill-in edges.
	MinFill Heuristic = iota
	// MinDegree eliminates the variable with the fewest live neighbors.
	MinDegree
)

func (h Heuristic) String() string {
	switch h {
	case MinFill:
		return "min-fill"
	case MinDegree:
		return "min-degree"
	default:
		return fmt.Sprintf("heuristic(%d)", int(h))
	}
}

// tieRule picks among the variables whose heuristic scores are equal.
type tieRule int

const (
	// tieLowestID takes the lowest variable id.
	tieLowestID tieRule = iota
	// tieSmallerClique takes the variable whose eliminated clique has the
	// fewest table entries, then the lowest id.
	tieSmallerClique
)

// eliminate runs variable elimination on the moral graph, as bitsets, and
// returns the order and the maximal cliques (sorted variable lists,
// duplicates and subsets removed) of the triangulated graph. Each step takes
// the live variable of least heuristic score, ties broken by tie, and
// records the clique {v} ∪ liveNeighbors(v).
func (n *Network) eliminate(h Heuristic, tie tieRule) ([]int, [][]int) {
	adj := n.moralBitsets()
	alive := make([]int, len(adj))
	for v := range alive {
		alive[v] = v
	}
	order := make([]int, 0, len(adj))
	cliques := make([][]int, 0, len(adj))
	for len(alive) > 0 {
		best, bestScore, bestSize := -1, 0, int64(0)
		for _, v := range alive {
			var score int
			switch h {
			case MinDegree:
				score = adj[v].count()
			default: // MinFill
				score = adj.fill(v)
			}
			if best >= 0 && score > bestScore {
				continue
			}
			size := int64(0)
			if tie == tieSmallerClique {
				size = n.cliqueEntries(v, adj[v])
			}
			if best < 0 || score < bestScore || size < bestSize {
				best, bestScore, bestSize = v, score, size
			}
		}
		order = append(order, best)
		// Record {best} ∪ its live neighbors, connect the neighbors pairwise,
		// then remove best.
		adj[best].set(best)
		cl := adj[best].members()
		adj[best].clear(best)
		cliques = append(cliques, cl)
		for _, a := range cl {
			if a != best {
				adj[a].or(adj[best])
				adj[a].clear(a)
				adj[a].clear(best)
			}
		}
		for i, v := range alive {
			if v == best {
				alive = append(alive[:i], alive[i+1:]...)
				break
			}
		}
	}
	return order, maximalOnly(cliques)
}

// cliqueEntries is the table size of {v} ∪ nb, saturating at 2⁶².
func (n *Network) cliqueEntries(v int, nb bitset) int64 {
	size := int64(n.Nodes[v].Card)
	for i, w := range nb {
		for w != 0 {
			c := int64(n.Nodes[i<<6+bits.TrailingZeros64(w)].Card)
			w &= w - 1
			if size > 1<<62/c {
				return 1 << 62
			}
			size *= c
		}
	}
	return size
}

// moralBitsets is Moralized with one bitset of neighbors per variable.
func (n *Network) moralBitsets() graph {
	adj := make(graph, len(n.Nodes))
	words := (len(n.Nodes) + 63) / 64
	backing := make([]uint64, words*len(n.Nodes))
	for i := range adj {
		adj[i] = backing[i*words : (i+1)*words : (i+1)*words]
	}
	link := func(a, b int) {
		if a != b {
			adj[a].set(b)
			adj[b].set(a)
		}
	}
	for id, node := range n.Nodes {
		for i, p := range node.Parents {
			link(p, id)
			for _, q := range node.Parents[i+1:] {
				link(p, q)
			}
		}
	}
	return adj
}

// bitset is a set of variable ids, one bit each.
type bitset []uint64

func (b bitset) set(i int)   { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) clear(i int) { b[i>>6] &^= 1 << (uint(i) & 63) }

func (b bitset) or(c bitset) {
	for i := range b {
		b[i] |= c[i]
	}
}

// within reports whether b ⊆ c.
func (b bitset) within(c bitset) bool {
	for i, w := range b {
		if w&^c[i] != 0 {
			return false
		}
	}
	return true
}

func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// members lists the set's ids in ascending order.
func (b bitset) members() []int {
	out := make([]int, 0, b.count())
	for i, w := range b {
		for w != 0 {
			out = append(out, i<<6+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return out
}

// graph is an undirected graph as one neighbor bitset per variable.
type graph []bitset

// fill counts the edges eliminating v would add: the pairs of v's neighbors
// that are not adjacent. Each neighbor a misses |N(v) \ N(a)| − 1 of the
// others (a itself is in N(v), not in N(a)); every missing pair is seen
// from both ends.
func (g graph) fill(v int) int {
	nv := g[v]
	missing := 0
	for i, w := range nv {
		for w != 0 {
			a := i<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			for k, x := range nv {
				missing += bits.OnesCount64(x &^ g[a][k])
			}
			missing--
		}
	}
	return missing / 2
}

// maximalOnly drops the cliques contained in another, keeping the first of
// equal ones.
func maximalOnly(cliques [][]int) [][]int {
	sets := newBitsets(cliques)
	var out [][]int
	for i, c := range cliques {
		maximal := true
		for j, d := range cliques {
			if i == j || len(d) < len(c) {
				continue
			}
			if sets[i].within(sets[j]) && (len(c) < len(d) || i > j) {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, c)
		}
	}
	return out
}

// newBitsets returns each sorted variable list as a bitset, all of one size.
func newBitsets(lists [][]int) []bitset {
	words := 1
	for _, l := range lists {
		if len(l) > 0 {
			words = max(words, l[len(l)-1]>>6+1)
		}
	}
	backing := make([]uint64, words*len(lists))
	sets := make([]bitset, len(lists))
	for i, l := range lists {
		sets[i] = backing[i*words : (i+1)*words : (i+1)*words]
		for _, v := range l {
			sets[i].set(v)
		}
	}
	return sets
}

// subset reports whether sorted a ⊆ sorted b.
func subset(a, b []int) bool {
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j >= len(b) || b[j] != x {
			return false
		}
		j++
	}
	return true
}

// CompileOptions configures junction-tree compilation.
type CompileOptions struct {
	Heuristic Heuristic
	// Root selects the root clique; -1 (default via Compile) picks the
	// clique with the largest table, a common convention. The propagation
	// engine typically reroots with Algorithm 1 anyway.
	Root int
}

// CompileJunctionTree converts the network into a calibratable junction
// tree: moralize, triangulate, extract maximal cliques, connect them with a
// maximum-spanning tree on separator sizes, assign each CPT to a containing
// clique, and initialize separator potentials to ones. Of the candidate
// trees (JoinTreeCandidates) it keeps the one of least message cost.
func (n *Network) CompileJunctionTree(opts CompileOptions) (*jtree.Tree, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	cands, kept := n.JoinTreeCandidates(opts.Heuristic)
	return n.buildTree(cands[kept].Cliques, cands[kept].Adj, opts.Root)
}

// buildTree materializes the junction tree over the given cliques and join
// tree, rooted at root (the largest table when out of range), with every CPT
// multiplied into the first clique containing its family. Each table is
// allocated and written once: a clique's first CPT, in node order, is
// extended into it (the bits of multiplying it into ones, since 1 × x is x),
// the rest are multiplied in after it in node order, and a clique no CPT
// goes to is all ones. The tree is left for its user to validate.
func (n *Network) buildTree(cliques, adj [][]int, root int) (*jtree.Tree, error) {
	if len(cliques) == 0 {
		return nil, fmt.Errorf("bayesnet: no cliques (empty network)")
	}
	cards := make([][]int, len(cliques))
	for i, cl := range cliques {
		cards[i] = make([]int, len(cl))
		for j, v := range cl {
			cards[i][j] = n.Nodes[v].Card
		}
	}
	if root < 0 || root >= len(cliques) {
		root = largestClique(cliques, cards)
	}
	t, err := jtree.NewFromAdjacency(cliques, cards, adj, root)
	if err != nil {
		return nil, err
	}
	for id, node := range n.Nodes {
		i := slices.IndexFunc(cliques, func(cl []int) bool { return subset(node.CPT.Vars, cl) })
		if i < 0 {
			return nil, fmt.Errorf("bayesnet: no clique contains the family of node %q (%d)", node.Name, id)
		}
		if c := &t.Cliques[i]; c.Pot == nil {
			c.Pot, err = node.CPT.Extend(c.Vars, c.Card)
		} else {
			err = c.Pot.MulBy(node.CPT)
		}
		if err != nil {
			return nil, err
		}
	}
	for i := range t.Cliques {
		if c := &t.Cliques[i]; c.Pot == nil {
			if c.Pot, err = potential.NewConstant(c.Vars, c.Card, 1); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

// Compile is CompileJunctionTree with default options (min-fill, automatic
// root).
func (n *Network) Compile() (*jtree.Tree, error) {
	return n.CompileJunctionTree(CompileOptions{Heuristic: MinFill, Root: -1})
}

// Candidate is one junction tree the compiler weighs: the maximal cliques of
// an elimination order, joined by a maximum-|sep| spanning tree.
type Candidate struct {
	// Ties says how the order broke heuristic ties: "id" (the lowest
	// variable id) or "size" (the smaller eliminated clique, then the id).
	Ties string
	// Join says which maximum-|sep| spanning tree joins the cliques:
	// "first" (the first maximal edge Prim meets) or "cost" (the one of
	// least Cost).
	Join    string
	Cliques [][]int
	Adj     [][]int
	// Cost is Σ over tree edges of 2|Ci| + 2|Cj| + |Sij| table entries (only
	// the distribute message divides): taskgraph.Graph.TotalWeight.
	Cost float64
}

// JoinTreeCandidates returns the junction trees the compiler chooses among
// for heuristic h, and the index of the one it keeps. The first candidate
// is the tree compiles built before message cost was priced (ties to the
// lowest id, the first maximal edge); a later one is kept only when it is
// strictly cheaper than every candidate before it, so a network no
// candidate improves keeps that tree.
func (n *Network) JoinTreeCandidates(h Heuristic) ([]Candidate, int) {
	card := make([]int, len(n.Nodes))
	for v := range n.Nodes {
		card[v] = n.Nodes[v].Card
	}
	_, byID := n.eliminate(h, tieLowestID)
	_, bySize := n.eliminate(h, tieSmallerClique)
	cands := []Candidate{
		{Ties: "id", Join: "first", Cliques: byID, Adj: joinTree(byID, nil)},
		{Ties: "id", Join: "cost", Cliques: byID, Adj: joinTree(byID, card)},
		{Ties: "size", Join: "cost", Cliques: bySize, Adj: joinTree(bySize, card)},
	}
	kept := 0
	for i := range cands {
		cands[i].Cost = messageCost(cands[i].Cliques, cands[i].Adj, card)
		if cands[i].Cost < cands[kept].Cost {
			kept = i
		}
	}
	return cands, kept
}

func largestClique(cliques [][]int, cards [][]int) int {
	best, bestSize := 0, -1
	for i := range cliques {
		if s := potential.Size(cards[i]); s > bestSize {
			best, bestSize = i, s
		}
	}
	return best
}

// joinTree connects the cliques with a maximum spanning tree on separator
// sizes |Ci ∩ Cj| (Prim from clique 0). Zero-weight edges (disconnected
// networks) are still linked so the result is one tree; every maximum
// spanning tree has the running-intersection property because the cliques
// come from one triangulation. With card nil, ties go to the first maximal
// edge met. With the variables' cardinalities, ties go to the cheaper
// message, 2|Ci| + 2|Cj| + |Sij| entries: Prim on the key (|sep| desc,
// cost asc) yields, of all maximum-|sep| spanning trees, one of least
// message cost. A clique joining the tree is met with every other through
// the lists of cliques holding each of its variables, so no two cliques are
// compared that share none, and the memory stays linear in the cliques'
// sizes.
func joinTree(cliques [][]int, card []int) [][]int {
	n := len(cliques)
	adj := make([][]int, n)
	if n <= 1 {
		return adj
	}
	vars := 0
	for _, cl := range cliques {
		if len(cl) > 0 {
			vars = max(vars, cl[len(cl)-1]+1)
		}
	}
	holders := make([][]int, vars) // the cliques holding each variable
	for i, cl := range cliques {
		for _, v := range cl {
			holders[v] = append(holders[v], i)
		}
	}
	// meet(i) sets common[j] to |Ci ∩ Cj| and, priced, sep[j] to the table
	// entries over Ci ∩ Cj, its variables' sizes multiplied in ascending
	// order as entries multiplies them.
	common := make([]int, n)
	sep := make([]float64, n)
	meet := func(i int) {
		clear(common)
		for j := range sep {
			sep[j] = 1
		}
		for _, v := range cliques[i] {
			for _, j := range holders[v] {
				common[j]++
				if card != nil {
					sep[j] *= float64(card[v])
				}
			}
		}
	}
	size := make([]float64, n)
	cost := func(i, j int) float64 { // after meet(i)
		if card == nil {
			return 0
		}
		return 2*(size[i]+size[j]) + sep[j]
	}
	if card != nil {
		for i, cl := range cliques {
			size[i] = entries(cl, cl, card)
		}
	}
	inTree := make([]bool, n)
	bestW := make([]int, n)
	bestC := make([]float64, n)
	bestTo := make([]int, n)
	inTree[0] = true
	meet(0)
	for j := 1; j < n; j++ {
		bestW[j], bestC[j] = common[j], cost(0, j)
	}
	for added := 1; added < n; added++ {
		pick := -1
		for j := 1; j < n; j++ {
			if !inTree[j] && (pick < 0 || bestW[j] > bestW[pick] || bestW[j] == bestW[pick] && bestC[j] < bestC[pick]) {
				pick = j
			}
		}
		inTree[pick] = true
		adj[pick] = append(adj[pick], bestTo[pick])
		adj[bestTo[pick]] = append(adj[bestTo[pick]], pick)
		meet(pick)
		for j := 1; j < n; j++ {
			if inTree[j] {
				continue
			}
			w := common[j]
			if w > bestW[j] || w == bestW[j] && card != nil && cost(pick, j) < bestC[j] {
				bestW[j], bestC[j], bestTo[j] = w, cost(pick, j), pick
			}
		}
	}
	return adj
}

// messageCost is Σ over the tree's edges of 2|Ci| + 2|Cj| + |Sij|.
func messageCost(cliques [][]int, adj [][]int, card []int) float64 {
	total := 0.0
	for i, nb := range adj {
		for _, j := range nb {
			if i < j {
				total += 2*(entries(cliques[i], cliques[i], card)+entries(cliques[j], cliques[j], card)) +
					entries(cliques[i], cliques[j], card)
			}
		}
	}
	return total
}

// entries is the table size over the variables sorted a and b share.
func entries(a, b []int, card []int) float64 {
	size := 1.0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			size *= float64(card[a[i]])
			i++
			j++
		}
	}
	return size
}
