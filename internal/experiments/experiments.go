// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 7). Each Fig* function builds the paper's workload at
// the paper's exact parameters, runs the appropriate scheduler on the
// simulated multicore machine (see internal/machine for why simulation
// substitutes for the 8-core testbeds), and returns the series the figure
// plots. The Write methods print rows in the shape the paper reports;
// EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"fmt"
	"io"
	"time"

	"evprop/internal/jtree"
	"evprop/internal/machine"
	"evprop/internal/obs"
	"evprop/internal/taskgraph"
)

// Cores is the processor range of the paper's plots (two quad-core chips).
var Cores = []int{1, 2, 3, 4, 5, 6, 7, 8}

// autoThreshold is the harness's δ: a quarter of the mean task weight —
// so the dominant clique-sized operations split roughly eight ways while
// separator-sized tasks run whole — floored at 4096 entries, because
// splitting tables that already fit in L1 only buys scheduling overhead
// (the paper's δ is likewise an absolute table-size threshold).
func autoThreshold(g *taskgraph.Graph) float64 {
	if g.N() == 0 {
		return 0
	}
	d := g.TotalWeight() / float64(g.N()) / 4
	if d < 4096 {
		d = 4096
	}
	return d
}

// mustGraph builds the task graph for a junction-tree config.
func mustGraph(cfg jtree.RandomConfig) (*taskgraph.Graph, error) {
	tr, err := jtree.Random(cfg)
	if err != nil {
		return nil, err
	}
	return taskgraph.Build(tr), nil
}

// --- Fig. 5: speedup from junction-tree rerooting -------------------------

// Fig5Series is one curve of Fig. 5: the rerooting speedup of one template
// tree across core counts.
type Fig5Series struct {
	Branches int       // b (the template has b+1 branches)
	Speedup  []float64 // indexed parallel to Cores
}

// Fig5Result reproduces Fig. 5. Each platform panel of the paper maps to
// one cost model (machine.Xeon / machine.Opteron); Fig5 runs the model it
// is given and Fig5Both produces the two panels.
type Fig5Result struct {
	Platform string
	Series   []Fig5Series
}

// Fig5Both regenerates both panels of Fig. 5.
func Fig5Both() (xeon, opteron *Fig5Result, err error) {
	if xeon, err = Fig5(machine.Xeon()); err != nil {
		return nil, nil, err
	}
	xeon.Platform = "Intel Xeon (panel a)"
	if opteron, err = Fig5(machine.Opteron()); err != nil {
		return nil, nil, err
	}
	opteron.Platform = "AMD Opteron (panel b)"
	return xeon, opteron, nil
}

// Fig5 runs the rerooting experiment: template junction trees (Fig. 4) with
// b ∈ {1,2,4,8}, 512 cliques of 15 binary variables, task partitioning
// disabled, measuring Sp = t_original / t_rerooted.
func Fig5(cm machine.CostModel) (*Fig5Result, error) {
	out := &Fig5Result{}
	for _, b := range []int{1, 2, 4, 8} {
		tr, err := jtree.Template(jtree.TemplateConfig{
			Branches: b, TotalCliques: 512, Width: 15, States: 2,
		})
		if err != nil {
			return nil, err
		}
		orig := taskgraph.Build(tr)
		rerooted, _, _, err := tr.RerootMinimal()
		if err != nil {
			return nil, err
		}
		rg := taskgraph.Build(rerooted)
		s := Fig5Series{Branches: b}
		for _, p := range Cores {
			ro, err := machine.SimulateCollaborative(orig, p, 0, cm)
			if err != nil {
				return nil, err
			}
			rr, err := machine.SimulateCollaborative(rg, p, 0, cm)
			if err != nil {
				return nil, err
			}
			s.Speedup = append(s.Speedup, ro.Makespan/rr.Makespan)
		}
		out.Series = append(out.Series, s)
	}
	return out, nil
}

// Write prints the Fig. 5 rows.
func (r *Fig5Result) Write(w io.Writer) {
	platform := r.Platform
	if platform == "" {
		platform = "default platform"
	}
	fmt.Fprintf(w, "Fig. 5 — speedup from rerooting (template trees, partitioning off) — %s\n", platform)
	fmt.Fprint(w, "branches(b+1)")
	for _, p := range Cores {
		fmt.Fprintf(w, "  P=%d", p)
	}
	fmt.Fprintln(w)
	for _, s := range r.Series {
		fmt.Fprintf(w, "%13d", s.Branches+1)
		for _, sp := range s.Speedup {
			fmt.Fprintf(w, " %4.2f", sp)
		}
		fmt.Fprintln(w)
	}
}

// --- Rerooting overhead (Section 7 text) ----------------------------------

// RerootOverheadResult compares the cost of Algorithm 1 with the propagation
// it prepares, for a 512-clique tree — the paper reports 24 µs vs ~1e5 µs.
// FractionPercent divides the host's wall clock by a simulated makespan, so
// the host's speed moves it; WorkPercent is a property of the tree alone.
type RerootOverheadResult struct {
	RerootWall      time.Duration
	PropagationSim  time.Duration
	FractionPercent float64
	// RerootWork is the steps root selection and the reroot take, counted
	// by the algorithm as it runs (jtree.Tree.RerootSteps). PropagationWork
	// is the table entries a serial propagation of the same tree ranges over
	// (its task graph's total weight).
	RerootWork, PropagationWork float64
	WorkPercent                 float64
}

// RerootOverhead measures Algorithm 1's cost (real wall clock — the
// algorithm is sequential, so the 1-core host measures it faithfully) and
// counts its work against a propagation's.
func RerootOverhead(cm machine.CostModel) (*RerootOverheadResult, error) {
	tr, err := jtree.Random(jtree.RandomConfig{N: 512, Width: 15, States: 2, Degree: 4, Seed: 7})
	if err != nil {
		return nil, err
	}
	// Warm once, then time the best of several runs to suppress noise.
	best := time.Duration(1 << 62)
	for i := 0; i < 10; i++ {
		start := time.Now()
		r := tr.SelectRoot()
		if _, err := tr.Reroot(r); err != nil {
			return nil, err
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	g := taskgraph.Build(tr)
	sim, err := machine.SimulateCollaborative(g, 8, autoThreshold(g), cm)
	if err != nil {
		return nil, err
	}
	prop := time.Duration(sim.Makespan * float64(time.Second))
	steps, err := tr.RerootSteps()
	if err != nil {
		return nil, err
	}
	work := float64(steps)
	return &RerootOverheadResult{
		RerootWall:      best,
		PropagationSim:  prop,
		FractionPercent: 100 * float64(best) / float64(prop),
		RerootWork:      work,
		PropagationWork: g.TotalWeight(),
		WorkPercent:     100 * work / g.TotalWeight(),
	}, nil
}

// Write prints the overhead comparison.
func (r *RerootOverheadResult) Write(w io.Writer) {
	fmt.Fprintln(w, "Rerooting overhead (512-clique junction tree)")
	fmt.Fprintf(w, "  Algorithm 1 wall clock: %v\n", r.RerootWall)
	fmt.Fprintf(w, "  evidence propagation (8 cores, simulated): %v\n", r.PropagationSim)
	fmt.Fprintf(w, "  overhead fraction: %.4f%%\n", r.FractionPercent)
	fmt.Fprintf(w, "  work: %.0f steps vs %.0f table entries (%.4f%%)\n",
		r.RerootWork, r.PropagationWork, r.WorkPercent)
}

// --- Fig. 6: PNL-style distributed baseline --------------------------------

// Fig6Procs is the processor range of Fig. 6.
var Fig6Procs = []int{1, 2, 4, 8, 12, 16}

// Fig6Series is one junction tree's execution-time curve.
type Fig6Series struct {
	Name    string
	Seconds []float64 // indexed parallel to Fig6Procs
}

// Fig6Result reproduces Fig. 6: the distributed-memory (PNL-like) baseline
// whose execution time rises beyond 4 processors.
type Fig6Result struct {
	Series []Fig6Series
}

// Fig6 runs the distributed baseline over the paper's three junction trees.
func Fig6(cm machine.CostModel) (*Fig6Result, error) {
	out := &Fig6Result{}
	for _, tc := range []struct {
		name string
		cfg  jtree.RandomConfig
	}{
		{"Junction tree 1", jtree.JT1()},
		{"Junction tree 2", jtree.JT2()},
		{"Junction tree 3", jtree.JT3()},
	} {
		g, err := mustGraph(tc.cfg)
		if err != nil {
			return nil, err
		}
		s := Fig6Series{Name: tc.name}
		for _, p := range Fig6Procs {
			res, err := machine.SimulateDistributed(g, p, cm)
			if err != nil {
				return nil, err
			}
			s.Seconds = append(s.Seconds, res.Makespan)
		}
		out.Series = append(out.Series, s)
	}
	return out, nil
}

// Write prints the Fig. 6 rows.
func (r *Fig6Result) Write(w io.Writer) {
	fmt.Fprintln(w, "Fig. 6 — PNL-style distributed baseline, execution time (s)")
	fmt.Fprint(w, "                ")
	for _, p := range Fig6Procs {
		fmt.Fprintf(w, "     P=%-2d", p)
	}
	fmt.Fprintln(w)
	for _, s := range r.Series {
		fmt.Fprintf(w, "%-16s", s.Name)
		for _, t := range s.Seconds {
			fmt.Fprintf(w, " %8.3f", t)
		}
		fmt.Fprintln(w)
	}
}

// --- Fig. 7: scalability of the three shared-memory methods ---------------

// Fig7Methods names the compared methods in plot order.
var Fig7Methods = []string{"openmp", "dataparallel", "collaborative"}

// Fig7Series is one (junction tree, method) speedup curve.
type Fig7Series struct {
	Tree    string
	Method  string
	Speedup []float64 // indexed parallel to Cores
}

// Fig7Result reproduces Fig. 7: speedups of the OpenMP baseline, the
// data-parallel baseline and the proposed collaborative scheduler on the
// paper's three junction trees.
type Fig7Result struct {
	Platform string
	Series   []Fig7Series
}

// Fig7Both regenerates both platform panels of Fig. 7.
func Fig7Both() (xeon, opteron *Fig7Result, err error) {
	if xeon, err = Fig7(machine.Xeon()); err != nil {
		return nil, nil, err
	}
	xeon.Platform = "Intel Xeon (panel a)"
	if opteron, err = Fig7(machine.Opteron()); err != nil {
		return nil, nil, err
	}
	opteron.Platform = "AMD Opteron (panel b)"
	return xeon, opteron, nil
}

// Fig7 runs all three methods over JT1–JT3.
func Fig7(cm machine.CostModel) (*Fig7Result, error) {
	out := &Fig7Result{}
	for _, tc := range []struct {
		name string
		cfg  jtree.RandomConfig
	}{
		{"JT1", jtree.JT1()},
		{"JT2", jtree.JT2()},
		{"JT3", jtree.JT3()},
	} {
		g, err := mustGraph(tc.cfg)
		if err != nil {
			return nil, err
		}
		serial := machine.SerialTime(g, cm)
		for _, method := range Fig7Methods {
			s := Fig7Series{Tree: tc.name, Method: method}
			for _, p := range Cores {
				var res *machine.Result
				switch method {
				case "openmp":
					res, err = machine.SimulateOpenMP(g, p, cm)
				case "dataparallel":
					res, err = machine.SimulateDataParallel(g, p, cm)
				case "collaborative":
					res, err = machine.SimulateCollaborative(g, p, autoThreshold(g), cm)
				}
				if err != nil {
					return nil, err
				}
				s.Speedup = append(s.Speedup, serial/res.Makespan)
			}
			out.Series = append(out.Series, s)
		}
	}
	return out, nil
}

// Write prints the Fig. 7 rows.
func (r *Fig7Result) Write(w io.Writer) {
	platform := r.Platform
	if platform == "" {
		platform = "default platform"
	}
	fmt.Fprintf(w, "Fig. 7 — speedup of evidence propagation methods — %s\n", platform)
	fmt.Fprint(w, "tree method        ")
	for _, p := range Cores {
		fmt.Fprintf(w, "  P=%d ", p)
	}
	fmt.Fprintln(w)
	for _, s := range r.Series {
		fmt.Fprintf(w, "%-4s %-14s", s.Tree, s.Method)
		for _, sp := range s.Speedup {
			fmt.Fprintf(w, " %5.2f", sp)
		}
		fmt.Fprintln(w)
	}
}

// --- Fig. 8: load balance and scheduler overhead ---------------------------

// Fig8Point is one (thread count) measurement.
type Fig8Point struct {
	P            int
	BusySeconds  []float64 // per-thread computation time
	OverheadPct  []float64 // per-thread scheduling time / makespan
	MakespanSecs float64
	// LoadBalance and OverheadFrac are the figure's two summary gauges,
	// computed by internal/obs with the same definitions used for real
	// runs: max/mean per-thread busy time, and scheduling time over total
	// worker time.
	LoadBalance  float64
	OverheadFrac float64
}

// Fig8Result reproduces Fig. 8 on Junction tree 1.
type Fig8Result struct {
	Points []Fig8Point
}

// Fig8 measures per-thread computation time and scheduler overhead for the
// collaborative scheduler on JT1.
func Fig8(cm machine.CostModel) (*Fig8Result, error) {
	g, err := mustGraph(jtree.JT1())
	if err != nil {
		return nil, err
	}
	out := &Fig8Result{}
	for _, p := range Cores {
		res, err := machine.SimulateCollaborative(g, p, autoThreshold(g), cm)
		if err != nil {
			return nil, err
		}
		pt := Fig8Point{P: p, MakespanSecs: res.Makespan}
		for c := 0; c < p; c++ {
			pt.BusySeconds = append(pt.BusySeconds, res.Busy[c])
			pt.OverheadPct = append(pt.OverheadPct, 100*res.Overhead[c]/res.Makespan)
		}
		rep := obs.FromSim(pt.BusySeconds, res.Overhead[:p], res.Makespan)
		pt.LoadBalance = rep.LoadBalance
		pt.OverheadFrac = rep.OverheadFraction
		out.Points = append(out.Points, pt)
	}
	return out, nil
}

// Write prints the Fig. 8 rows.
func (r *Fig8Result) Write(w io.Writer) {
	fmt.Fprintln(w, "Fig. 8 — load balance and scheduling overhead (Junction tree 1)")
	for _, pt := range r.Points {
		fmt.Fprintf(w, "P=%d makespan=%.4fs load-balance=%.3f sched-frac=%.5f\n",
			pt.P, pt.MakespanSecs, pt.LoadBalance, pt.OverheadFrac)
		fmt.Fprint(w, "  busy(s):   ")
		for _, b := range pt.BusySeconds {
			fmt.Fprintf(w, " %7.4f", b)
		}
		fmt.Fprintln(w)
		fmt.Fprint(w, "  sched(%):  ")
		for _, o := range pt.OverheadPct {
			fmt.Fprintf(w, " %7.4f", o)
		}
		fmt.Fprintln(w)
	}
}

// --- Fig. 9: parameter sensitivity ----------------------------------------

// Fig9Series is one parameter setting's speedup curve.
type Fig9Series struct {
	Panel   string // "N", "wC", "r", "k"
	Label   string
	Speedup []float64
}

// Fig9Result reproduces Fig. 9: speedups while varying the number of
// cliques N, the clique width w_C, the variable states r and the clique
// degree k around the Junction tree 1 configuration.
type Fig9Result struct {
	Series []Fig9Series
}

// Fig9 sweeps the four junction-tree parameters.
func Fig9(cm machine.CostModel) (*Fig9Result, error) {
	base := jtree.JT1()
	out := &Fig9Result{}
	add := func(panel, label string, cfg jtree.RandomConfig) error {
		g, err := mustGraph(cfg)
		if err != nil {
			return err
		}
		serial := machine.SerialTime(g, cm)
		s := Fig9Series{Panel: panel, Label: label}
		for _, p := range Cores {
			res, err := machine.SimulateCollaborative(g, p, autoThreshold(g), cm)
			if err != nil {
				return err
			}
			s.Speedup = append(s.Speedup, serial/res.Makespan)
		}
		out.Series = append(out.Series, s)
		return nil
	}
	for _, n := range []int{128, 256, 512, 1024} {
		cfg := base
		cfg.N = n
		if err := add("N", fmt.Sprintf("N=%d", n), cfg); err != nil {
			return nil, err
		}
	}
	for _, wc := range []int{10, 15, 20} {
		cfg := base
		cfg.Width = wc
		if err := add("wC", fmt.Sprintf("wC=%d", wc), cfg); err != nil {
			return nil, err
		}
	}
	for _, r := range []int{2, 3} {
		cfg := base
		cfg.States = r
		cfg.Width = 15 // r=3 at width 20 is beyond even the skeleton limit
		if err := add("r", fmt.Sprintf("r=%d (wC=15)", r), cfg); err != nil {
			return nil, err
		}
	}
	for _, k := range []int{2, 4, 8} {
		cfg := base
		cfg.Degree = k
		if err := add("k", fmt.Sprintf("k=%d", k), cfg); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Write prints the Fig. 9 rows grouped by panel.
func (r *Fig9Result) Write(w io.Writer) {
	fmt.Fprintln(w, "Fig. 9 — speedup vs junction tree parameters (collaborative, 8 cores max)")
	last := ""
	for _, s := range r.Series {
		if s.Panel != last {
			fmt.Fprintf(w, " panel (%s):\n", s.Panel)
			last = s.Panel
		}
		fmt.Fprintf(w, "  %-12s", s.Label)
		for _, sp := range s.Speedup {
			fmt.Fprintf(w, " %5.2f", sp)
		}
		fmt.Fprintln(w)
	}
}
