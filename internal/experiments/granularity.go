package experiments

import (
	"fmt"
	"io"

	"evprop/internal/bayesnet"
	"evprop/internal/jtree"
	"evprop/internal/machine"
	"evprop/internal/sched"
	"evprop/internal/taskgraph"
)

// GranularityRow is one (model, P) cell of the crossover table: what the
// engine's two granularity rules decide for the model's task graph at P
// workers — run it inline or dispatch it (sched.Inline), and which of its
// tasks to cut (sched.Split) — next to what the simulated machine says a
// collaborative schedule of that graph achieves unsplit, at a fixed δ, and
// under the rule.
type GranularityRow struct {
	Model    string
	Tasks    int
	MeanTask float64 // W/N, entries
	Workers  int
	// Bound is d/(P−1): the mean task above which dispatching pays.
	Bound float64
	// Inline is the dispatch rule's verdict.
	Inline bool
	// Parallelism is W/CP, the workers the unsplit graph can occupy; the
	// split rule cuts nothing when it is at least max(P, (P−1)²).
	Parallelism float64
	// SplitTasks and SplitPieces are the split rule's verdict: how many
	// tasks it cuts at this P, and into how many pieces in all.
	SplitTasks, SplitPieces int
	// Delta is the fixed δ of the comparison.
	Delta int
	// The simulated collaborative speed-up over one core (below 1:
	// scheduling loses) with no task split, with every task over Delta
	// split, and — Speedup, what the engine runs — under the split rule.
	SpeedupNone, SpeedupFixed, Speedup float64
}

// GranularityResult is the crossover table of the granularity rules.
type GranularityResult struct{ Rows []GranularityRow }

// fixedDelta is the fixed partition threshold the rule is compared with on the
// benchmark models: twice the mean clique table, at least one dispatch and a
// whole number of cache lines. It is the δ the engine derived for itself
// before sched.Split existed, and the one the load benchmark's traced pool
// runs still pass.
func fixedDelta(t *jtree.Tree) int {
	total := 0
	for i := range t.Cliques {
		total += t.Cliques[i].TableSize()
	}
	return (max(2*total/t.N(), sched.DispatchEntries) + 7) / 8 * 8
}

// granularityModel is one task graph of the granularity and load tables with
// the fixed δ it is compared at.
type granularityModel struct {
	name string
	g    *taskgraph.Graph
	δ    int
}

// granularityModels builds the six graphs both tables range over: the load
// benchmark's three generated models (benchmark/spec.go), compiled the way the
// engine does — junction tree, then rerooted at the clique Algorithm 1 selects
// — and the paper's three junction trees.
func granularityModels() ([]granularityModel, error) {
	var models []granularityModel
	for _, m := range []struct {
		name              string
		nodes, maxParents int
	}{{"small40", 40, 3}, {"mid60", 60, 4}, {"wide60", 60, 5}} {
		tr, err := bayesnet.RandomNetwork(m.nodes, 2, m.maxParents, 7).Compile()
		if err != nil {
			return nil, err
		}
		if r := tr.SelectRoot(); r != tr.Root {
			if tr, err = tr.Reroot(r); err != nil {
				return nil, err
			}
		}
		models = append(models, granularityModel{m.name, taskgraph.Build(tr), fixedDelta(tr)})
	}
	for _, m := range []struct {
		name string
		cfg  jtree.RandomConfig
	}{{"JT1", jtree.JT1()}, {"JT2", jtree.JT2()}, {"JT3", jtree.JT3()}} {
		g, err := mustGraph(m.cfg)
		if err != nil {
			return nil, err
		}
		models = append(models, granularityModel{m.name, g, int(autoThreshold(g))})
	}
	return models, nil
}

// Granularity evaluates sched.Inline and sched.Split on the load benchmark's
// three generated models and on the paper's three junction trees (Fig. 7)
// across core counts, and simulates the collaborative scheduler on the same
// graphs under the three partitioning policies, so both rules can be read
// against the machine model their constants are taken from. The fixed δ is
// fixedDelta for the benchmark models and the harness's autoThreshold for the
// paper's trees.
func Granularity(cm machine.CostModel) (*GranularityResult, error) {
	models, err := granularityModels()
	if err != nil {
		return nil, err
	}
	out := &GranularityResult{}
	for _, m := range models {
		g := m.g
		serial := machine.SerialTime(g, cm)
		for _, p := range []int{2, 4, 8, 16} {
			row := GranularityRow{
				Model: m.name, Tasks: g.N(), MeanTask: g.TotalWeight() / float64(g.N()),
				Workers: p, Bound: sched.DispatchEntries / float64(p-1), Inline: sched.Inline(g, p),
				Parallelism: g.TotalWeight() / g.CriticalPathWeight(), Delta: m.δ,
			}
			pieces := sched.Split(g, p)
			for _, n := range pieces {
				if n > 1 {
					row.SplitTasks++
					row.SplitPieces += int(n)
				}
			}
			if pieces == nil {
				pieces = make([]int32, g.N()) // an explicit "cut nothing"
			}
			for _, sim := range []struct {
				opts    machine.CollabOptions
				speedup *float64
			}{
				{machine.CollabOptions{}, &row.SpeedupNone},
				{machine.CollabOptions{Threshold: float64(m.δ)}, &row.SpeedupFixed},
				{machine.CollabOptions{Pieces: pieces}, &row.Speedup},
			} {
				res, err := machine.SimulateCollaborativeOpts(g, p, cm, sim.opts)
				if err != nil {
					return nil, err
				}
				*sim.speedup = serial / res.Makespan
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// Write prints the crossover table.
func (r *GranularityResult) Write(w io.Writer) {
	fmt.Fprintf(w, "Granularity — run inline when mean task ≤ d/(P−1), split only when W/CP < max(P, (P−1)²); d = %d entries\n", sched.DispatchEntries)
	fmt.Fprintln(w, "                                                           split rule      simulated speed-up")
	fmt.Fprintln(w, "model    tasks  mean task    P  d/(P−1)  rule    W/CP   tasks pieces       δ    none  fixed δ    rule")
	for _, row := range r.Rows {
		verdict := "pool"
		if row.Inline {
			verdict = "inline"
		}
		fmt.Fprintf(w, "%-8s %5d %10.0f %4d %8.1f  %-6s %5.2f  %6d %6d %7d %6.2f× %7.2f× %6.2f×\n",
			row.Model, row.Tasks, row.MeanTask, row.Workers, row.Bound, verdict, row.Parallelism,
			row.SplitTasks, row.SplitPieces, row.Delta, row.SpeedupNone, row.SpeedupFixed, row.Speedup)
	}
}
