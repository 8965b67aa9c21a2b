package experiments

import (
	"fmt"
	"io"
	"strings"

	"evprop/internal/bayesnet"
)

// HeuristicRow compares elimination-order heuristics on one network, and
// prices the junction trees the compiler chooses among.
type HeuristicRow struct {
	Network      string
	MinFillState int // total clique table entries under min-fill
	MinDegState  int // total clique table entries under min-degree
	MinFillWidth int
	MinDegWidth  int
	// Candidates are bayesnet.JoinTreeCandidates under min-fill, with their
	// message cost (full two-pass entries); Kept indexes the one Compile
	// keeps.
	Candidates []bayesnet.Candidate
	Kept       int
}

// HeuristicsResult compares the triangulation heuristics the compiler
// offers — the state-space blowup is the dominant cost of exact inference,
// so this table justifies the min-fill default — and the message cost of
// each candidate junction tree (order × join tree) min-fill yields.
type HeuristicsResult struct {
	Rows []HeuristicRow
}

// Heuristics compiles the classic networks, the load benchmark's three
// models and a set of random networks under both heuristics and reports the
// resulting junction-tree state space and candidate message costs.
func Heuristics() (*HeuristicsResult, error) {
	out := &HeuristicsResult{}
	add := func(name string, net *bayesnet.Network) error {
		row := HeuristicRow{Network: name}
		for _, h := range []bayesnet.Heuristic{bayesnet.MinFill, bayesnet.MinDegree} {
			tr, err := net.CompileJunctionTree(bayesnet.CompileOptions{Heuristic: h, Root: -1})
			if err != nil {
				return fmt.Errorf("%s/%v: %w", name, h, err)
			}
			stats := tr.ComputeStats()
			switch h {
			case bayesnet.MinFill:
				row.MinFillState = stats.TotalEntries
				row.MinFillWidth = stats.MaxWidth
			case bayesnet.MinDegree:
				row.MinDegState = stats.TotalEntries
				row.MinDegWidth = stats.MaxWidth
			}
		}
		row.Candidates, row.Kept = net.JoinTreeCandidates(bayesnet.MinFill)
		out.Rows = append(out.Rows, row)
		return nil
	}
	for _, c := range []struct {
		name  string
		build func() (*bayesnet.Network, map[string]int)
	}{{"asia", bayesnet.Asia}, {"sprinkler", bayesnet.Sprinkler}, {"student", bayesnet.Student}} {
		net, _ := c.build()
		if err := add(c.name, net); err != nil {
			return nil, err
		}
	}
	for _, m := range []struct {
		name              string
		nodes, maxParents int
	}{{"small40", 40, 3}, {"mid60", 60, 4}, {"wide60", 60, 5}} {
		if err := add(m.name, bayesnet.RandomNetwork(m.nodes, 2, m.maxParents, 7)); err != nil {
			return nil, err
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		net := bayesnet.RandomNetwork(25, 2, 4, seed)
		if err := add(fmt.Sprintf("random-%d", seed), net); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Write prints the heuristic comparison, then the candidates' message cost.
func (r *HeuristicsResult) Write(w io.Writer) {
	fmt.Fprintln(w, "Triangulation heuristics — junction-tree state space (total entries)")
	fmt.Fprintln(w, "network      min-fill (width)   min-degree (width)")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-12s %8d (%2d)      %8d (%2d)\n",
			row.Network, row.MinFillState, row.MinFillWidth, row.MinDegState, row.MinDegWidth)
	}
	if len(r.Rows) == 0 {
		return
	}
	fmt.Fprintln(w, "\nMin-fill junction trees — message cost, Σ over edges of 2|Ci|+2|Cj|+|Sij| entries")
	fmt.Fprintln(w, "(ties: id = lowest variable id, size = smaller eliminated clique; join: first = first maximum-|sep| edge, cost = cheapest maximum-|sep| tree)")
	var head strings.Builder
	fmt.Fprintf(&head, "%-12s", "network")
	for _, c := range r.Rows[0].Candidates {
		fmt.Fprintf(&head, " %12s", c.Ties+"/"+c.Join)
	}
	fmt.Fprintf(&head, "  %-10s %s", "kept", "kept/first")
	fmt.Fprintln(w, head.String())
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-12s", row.Network)
		for _, c := range row.Candidates {
			fmt.Fprintf(w, " %12.0f", c.Cost)
		}
		kept := row.Candidates[row.Kept]
		fmt.Fprintf(w, "  %-10s %.3f\n", kept.Ties+"/"+kept.Join, kept.Cost/row.Candidates[0].Cost)
	}
}
