package experiments

import (
	"fmt"
	"io"

	"evprop/internal/bayesnet"
	"evprop/internal/machine"
	"evprop/internal/sched"
	"evprop/internal/taskgraph"
)

// GranularityRow is one (model, P) cell of the crossover table: what the
// engine's granularity rule decides for the model's task graph at P workers,
// next to what the simulated machine says a collaborative schedule of that
// graph achieves.
type GranularityRow struct {
	Model    string
	Tasks    int
	MeanTask float64 // W/N, entries
	Delta    int     // the automatic δ the engine compiles with
	Workers  int
	// Bound is d/(P−1): the mean task above which dispatching pays.
	Bound float64
	// Inline is the rule's verdict; Speedup the simulated collaborative
	// speed-up over one core at Delta (below 1: scheduling loses).
	Inline  bool
	Speedup float64
}

// GranularityResult is the crossover table of the granularity rule.
type GranularityResult struct{ Rows []GranularityRow }

// Granularity evaluates sched.Inline on the load benchmark's three generated
// models (benchmark/spec.go) across core counts, and simulates the
// collaborative scheduler on the same graphs, so the rule's constant can be
// read against the machine model it is taken from.
func Granularity(cm machine.CostModel) (*GranularityResult, error) {
	out := &GranularityResult{}
	for _, model := range []struct {
		name              string
		nodes, maxParents int
	}{{"small40", 40, 3}, {"mid60", 60, 4}, {"wide60", 60, 5}} {
		tr, err := bayesnet.RandomNetwork(model.nodes, 2, model.maxParents, 7).Compile()
		if err != nil {
			return nil, err
		}
		if r := tr.SelectRoot(); r != tr.Root {
			if tr, err = tr.Reroot(r); err != nil {
				return nil, err
			}
		}
		g := taskgraph.Build(tr)
		δ := sched.AutoThreshold(tr)
		serial := machine.SerialTime(g, cm)
		for _, p := range []int{2, 4, 8, 16} {
			sim, err := machine.SimulateCollaborative(g, p, float64(δ), cm)
			if err != nil {
				return nil, err
			}
			out.Rows = append(out.Rows, GranularityRow{
				Model: model.name, Tasks: g.N(), MeanTask: g.TotalWeight() / float64(g.N()), Delta: δ,
				Workers: p, Bound: sched.DispatchEntries / float64(p-1),
				Inline: sched.Inline(g, p), Speedup: serial / sim.Makespan,
			})
		}
	}
	return out, nil
}

// Write prints the crossover table.
func (r *GranularityResult) Write(w io.Writer) {
	fmt.Fprintf(w, "Granularity — run inline when mean task ≤ d/(P−1), d = %d entries\n", sched.DispatchEntries)
	fmt.Fprintln(w, "model    tasks  mean task       δ    P  d/(P−1)  rule    simulated speed-up")
	for _, row := range r.Rows {
		verdict := "pool"
		if row.Inline {
			verdict = "inline"
		}
		fmt.Fprintf(w, "%-8s %5d %10.0f %7d %4d %8.1f  %-6s %8.2f×\n",
			row.Model, row.Tasks, row.MeanTask, row.Delta, row.Workers, row.Bound, verdict, row.Speedup)
	}
}
