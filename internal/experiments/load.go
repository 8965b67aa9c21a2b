package experiments

import (
	"fmt"
	"io"

	"evprop/internal/machine"
	"evprop/internal/sched"
)

// LoadRow is one (model, P, k) cell of the load figure: the throughput of k
// callers in a closed loop on P cores, in propagations per second, when every
// run is dispatched to the one pool, when every run stays on its caller's
// goroutine, and under the engine's rule, which prices each run at P ÷ k
// workers (sched.Pool.EnterRun) and asks sched.InlineWeight.
type LoadRow struct {
	Model   string
	Workers int // P
	Runs    int // k
	// EffectiveWorkers is max(1, ⌊P/k⌋): in a closed loop a run that starts
	// finds the other k−1 callers mid-run, so every run is priced alike.
	EffectiveWorkers int
	// Inline is the rule's verdict at EffectiveWorkers.
	Inline bool
	// Pool, AllInline and Rule are the three policies' throughputs; Rule is
	// one of the other two, whichever the verdict picks.
	Pool, AllInline, Rule float64
}

// LoadResult is the load figure under one cost model.
type LoadResult struct {
	Platform string
	Rows     []LoadRow
}

// Load simulates k ∈ {1, 2, 4, 8, 16} concurrent propagations on P ∈ {2, 4, 8}
// cores for the load benchmark's two wide models and the paper's three
// junction trees — the figure the paper, which gives all P threads to one
// propagation, does not have. A dispatched run is partitioned as the engine's
// pool partitions it, by sched.Split at P: load moves a run between executors,
// never between partitions. The rule is asked with the platform's own d: the
// engine's sched.DispatchEntries is machine.Default's Dispatch ÷
// SecondsPerEntry, so under another cost model the graph's weight is first put
// in units where one dispatch costs that many entries.
func Load(platform string, cm machine.CostModel) (*LoadResult, error) {
	models, err := granularityModels()
	if err != nil {
		return nil, err
	}
	out := &LoadResult{Platform: platform}
	perDispatch := sched.DispatchEntries / (cm.Dispatch / cm.SecondsPerEntry)
	for _, m := range models {
		if m.name == "small40" {
			continue // inline at every P below 35: nothing for load to decide
		}
		g := m.g
		for _, p := range []int{2, 4, 8} {
			pieces := sched.Split(g, p) // nil cuts nothing, as does δ = 0
			for _, k := range []int{1, 2, 4, 8, 16} {
				res, err := machine.SimulateConcurrent(g, k, p, cm, machine.CollabOptions{Pieces: pieces})
				if err != nil {
					return nil, err
				}
				row := LoadRow{
					Model: m.name, Workers: p, Runs: k, EffectiveWorkers: max(1, p/k),
					Pool:      float64(k) / res.Makespan,
					AllInline: float64(k) / machine.ConcurrentInlineTime(g, k, p, cm),
				}
				row.Inline = sched.InlineWeight(g.TotalWeight()*perDispatch, g.N(), row.EffectiveWorkers)
				row.Rule = row.Pool
				if row.Inline {
					row.Rule = row.AllInline
				}
				out.Rows = append(out.Rows, row)
			}
		}
	}
	return out, nil
}

// Write prints the load figure.
func (r *LoadResult) Write(w io.Writer) {
	fmt.Fprintf(w, "Load — k runs in flight on P cores, each priced at ⌊P/k⌋ workers; throughput in propagations/s (%s)\n", r.Platform)
	fmt.Fprintln(w, "model       P    k  P/k  rule    always pool  always inline   load-aware")
	for _, row := range r.Rows {
		verdict := "pool"
		if row.Inline {
			verdict = "inline"
		}
		fmt.Fprintf(w, "%-8s %4d %4d %4d  %-6s %12s %14s %12s\n",
			row.Model, row.Workers, row.Runs, row.EffectiveWorkers, verdict, perSecond(row.Pool), perSecond(row.AllInline), perSecond(row.Rule))
	}
}

// perSecond prints a throughput to about four significant digits: the
// figure's models range from half a propagation per second to 46 000.
func perSecond(v float64) string {
	switch {
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	}
	return fmt.Sprintf("%.3f", v)
}
