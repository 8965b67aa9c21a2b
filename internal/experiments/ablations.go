package experiments

import (
	"fmt"
	"io"

	"evprop/internal/jtree"
	"evprop/internal/machine"
)

// This file contains experiments beyond the paper's figures: ablations of
// the design choices the paper makes without measuring (the least-loaded
// allocation rule, the δ threshold, the Algorithm 1 balance rule) and the
// many-core projection the paper's Section 8 poses as future work.

// --- Allocation-policy ablation --------------------------------------------

// AblationAllocationResult compares the least-loaded allocation rule of
// Algorithm 2 (line 7) against blind round-robin allocation.
type AblationAllocationResult struct {
	Cores      []int
	LeastLoad  []float64 // speedups
	RoundRobin []float64
}

// AblationAllocation runs both allocation policies on Junction tree 1.
func AblationAllocation(cm machine.CostModel) (*AblationAllocationResult, error) {
	g, err := mustGraph(jtree.JT1())
	if err != nil {
		return nil, err
	}
	serial := machine.SerialTime(g, cm)
	out := &AblationAllocationResult{Cores: Cores}
	for _, p := range Cores {
		ll, err := machine.SimulateCollaborativeOpts(g, p, cm,
			machine.CollabOptions{Threshold: autoThreshold(g)})
		if err != nil {
			return nil, err
		}
		rr, err := machine.SimulateCollaborativeOpts(g, p, cm,
			machine.CollabOptions{Threshold: autoThreshold(g), RoundRobinAlloc: true})
		if err != nil {
			return nil, err
		}
		out.LeastLoad = append(out.LeastLoad, serial/ll.Makespan)
		out.RoundRobin = append(out.RoundRobin, serial/rr.Makespan)
	}
	return out, nil
}

// Write prints the allocation ablation.
func (r *AblationAllocationResult) Write(w io.Writer) {
	fmt.Fprintln(w, "Ablation — allocation policy (JT1, collaborative scheduler)")
	fmt.Fprint(w, "policy       ")
	for _, p := range r.Cores {
		fmt.Fprintf(w, "  P=%d ", p)
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, "least-loaded ")
	for _, s := range r.LeastLoad {
		fmt.Fprintf(w, " %5.2f", s)
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, "round-robin  ")
	for _, s := range r.RoundRobin {
		fmt.Fprintf(w, " %5.2f", s)
	}
	fmt.Fprintln(w)
}

// --- δ-threshold ablation ---------------------------------------------------

// AblationThresholdResult sweeps the partition threshold δ.
type AblationThresholdResult struct {
	Labels   []string
	Speedup8 []float64 // 8-core speedup per δ setting
	Pieces   []int
}

// AblationThreshold sweeps δ on Junction tree 1 from "partitioning off"
// down to aggressive splitting, reporting the 8-core speedup.
func AblationThreshold(cm machine.CostModel) (*AblationThresholdResult, error) {
	g, err := mustGraph(jtree.JT1())
	if err != nil {
		return nil, err
	}
	serial := machine.SerialTime(g, cm)
	mean := g.TotalWeight() / float64(g.N())
	out := &AblationThresholdResult{}
	for _, tc := range []struct {
		label string
		delta float64
	}{
		{"off", 0},
		{"4·mean", 4 * mean},
		{"mean", mean},
		{"mean/4", mean / 4},
		{"mean/16", mean / 16},
		{"mean/64", mean / 64},
	} {
		res, err := machine.SimulateCollaborative(g, 8, tc.delta, cm)
		if err != nil {
			return nil, err
		}
		out.Labels = append(out.Labels, tc.label)
		out.Speedup8 = append(out.Speedup8, serial/res.Makespan)
		out.Pieces = append(out.Pieces, res.Pieces)
	}
	return out, nil
}

// Write prints the threshold ablation.
func (r *AblationThresholdResult) Write(w io.Writer) {
	fmt.Fprintln(w, "Ablation — partition threshold δ (JT1, 8 cores)")
	fmt.Fprintln(w, "δ          speedup@8   pieces")
	for i, l := range r.Labels {
		fmt.Fprintf(w, "%-10s %8.2f %8d\n", l, r.Speedup8[i], r.Pieces[i])
	}
}

// --- Root-selection ablation -------------------------------------------------

// AblationRootRow compares root-selection rules on one tree.
type AblationRootRow struct {
	Seed          int64
	OriginalCP    float64 // critical-path weight, original root
	Algorithm1CP  float64 // after Algorithm 1 (abs-diff balance rule)
	ExactRuleCP   float64 // after the exact min–max balance rule
	BruteForceCP  float64 // optimum over all roots (O(N²) oracle)
	Algorithm1Opt bool    // Algorithm 1 found the optimum
}

// AblationRootResult collects root-selection comparisons over random trees.
type AblationRootResult struct {
	Rows []AblationRootRow
}

// AblationRoot compares the paper's Algorithm 1 balance rule (argmin
// |L(Cx,Ci) − L(Ci,Cy)|) against the exact min–max rule and the brute-force
// optimum on a set of random junction trees.
func AblationRoot() (*AblationRootResult, error) {
	out := &AblationRootResult{}
	for seed := int64(0); seed < 12; seed++ {
		tr, err := jtree.Random(jtree.RandomConfig{
			N: 96, Width: 6, States: 2, Degree: 3, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		row := AblationRootRow{Seed: seed}
		row.OriginalCP, _ = tr.CriticalPath()
		a1, err := tr.Reroot(tr.SelectRoot())
		if err != nil {
			return nil, err
		}
		row.Algorithm1CP, _ = a1.CriticalPath()
		ex, err := tr.Reroot(tr.SelectRootExact())
		if err != nil {
			return nil, err
		}
		row.ExactRuleCP, _ = ex.CriticalPath()
		_, row.BruteForceCP = tr.BestRootBrute()
		row.Algorithm1Opt = row.Algorithm1CP <= row.BruteForceCP+1e-9
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Write prints the root-selection ablation.
func (r *AblationRootResult) Write(w io.Writer) {
	fmt.Fprintln(w, "Ablation — root selection rule (critical-path weight, random trees)")
	fmt.Fprintln(w, "seed   original    Alg.1     exact    brute   Alg.1 optimal?")
	opt := 0
	for _, row := range r.Rows {
		mark := "no"
		if row.Algorithm1Opt {
			mark = "yes"
			opt++
		}
		fmt.Fprintf(w, "%4d %9.0f %9.0f %9.0f %9.0f   %s\n",
			row.Seed, row.OriginalCP, row.Algorithm1CP, row.ExactRuleCP, row.BruteForceCP, mark)
	}
	fmt.Fprintf(w, "Algorithm 1 optimal on %d/%d trees (exact rule always optimal)\n", opt, len(r.Rows))
}

// --- Many-core projection (Section 8) ----------------------------------------

// ManyCoreResult projects the collaborative scheduler to core counts beyond
// the paper's 8, under several lock-contention severities — the overhead
// the paper's conclusion predicts "will increase dramatically" in the
// many-core era.
type ManyCoreResult struct {
	Cores      []int
	Contention []float64   // LockContention values
	Speedups   [][]float64 // [contention][core] speedups
}

// ManyCore sweeps P up to 64 for three lock-contention settings on JT1.
func ManyCore(cm machine.CostModel) (*ManyCoreResult, error) {
	g, err := mustGraph(jtree.JT1())
	if err != nil {
		return nil, err
	}
	serial := machine.SerialTime(g, cm)
	out := &ManyCoreResult{
		Cores:      []int{1, 2, 4, 8, 16, 32, 64},
		Contention: []float64{0.04, 0.2, 1.0},
	}
	for _, lc := range out.Contention {
		cmi := cm
		cmi.LockContention = lc
		row := make([]float64, 0, len(out.Cores))
		for _, p := range out.Cores {
			res, err := machine.SimulateCollaborative(g, p, autoThreshold(g), cmi)
			if err != nil {
				return nil, err
			}
			row = append(row, serial/res.Makespan)
		}
		out.Speedups = append(out.Speedups, row)
	}
	return out, nil
}

// Write prints the many-core projection.
func (r *ManyCoreResult) Write(w io.Writer) {
	fmt.Fprintln(w, "Many-core projection (JT1, collaborative; paper §8 future work)")
	fmt.Fprint(w, "lock contention")
	for _, p := range r.Cores {
		fmt.Fprintf(w, "   P=%-3d", p)
	}
	fmt.Fprintln(w)
	for i, lc := range r.Contention {
		fmt.Fprintf(w, "%15.2f", lc)
		for _, s := range r.Speedups[i] {
			fmt.Fprintf(w, " %7.2f", s)
		}
		fmt.Fprintln(w)
	}
}

// --- Scheduler roster comparison ---------------------------------------------

// SchedulerRosterResult compares every implemented scheduler on one tree.
type SchedulerRosterResult struct {
	Names    []string
	Speedup8 []float64
}

// SchedulerRoster runs every scheduling strategy on Junction tree 1 at
// 8 cores, the one-glance summary of the design space.
func SchedulerRoster(cm machine.CostModel) (*SchedulerRosterResult, error) {
	g, err := mustGraph(jtree.JT1())
	if err != nil {
		return nil, err
	}
	serial := machine.SerialTime(g, cm)
	thr := autoThreshold(g)
	sims := []struct {
		name string
		run  func() (*machine.Result, error)
	}{
		{"collaborative", func() (*machine.Result, error) { return machine.SimulateCollaborative(g, 8, thr, cm) }},
		{"centralized", func() (*machine.Result, error) { return machine.SimulateCentralized(g, 8, thr, cm) }},
		{"levelsync", func() (*machine.Result, error) { return machine.SimulateLevelSync(g, 8, cm) }},
		{"dataparallel", func() (*machine.Result, error) { return machine.SimulateDataParallel(g, 8, cm) }},
		{"openmp", func() (*machine.Result, error) { return machine.SimulateOpenMP(g, 8, cm) }},
		{"distributed", func() (*machine.Result, error) { return machine.SimulateDistributed(g, 8, cm) }},
	}
	out := &SchedulerRosterResult{}
	for _, s := range sims {
		res, err := s.run()
		if err != nil {
			return nil, err
		}
		out.Names = append(out.Names, s.name)
		out.Speedup8 = append(out.Speedup8, serial/res.Makespan)
	}
	return out, nil
}

// Write prints the roster.
func (r *SchedulerRosterResult) Write(w io.Writer) {
	fmt.Fprintln(w, "Scheduler roster (JT1, 8 cores)")
	for i, n := range r.Names {
		fmt.Fprintf(w, "  %-14s %5.2f×\n", n, r.Speedup8[i])
	}
}

// DecompositionResult quantifies the paper's §3 argument against
// junction-tree decomposition on shared memory: the duplicated
// potential-table entries (memory all cores share) grow with the block
// count while the balance stays roughly constant.
type DecompositionResult struct {
	Blocks     []int
	Duplicated []int // duplicated entries
	CrossEdges []int
	Imbalance  []float64
}

// Decomposition decomposes JT1 into increasing block counts.
func Decomposition() (*DecompositionResult, error) {
	tr, err := jtree.Random(jtree.JT1())
	if err != nil {
		return nil, err
	}
	out := &DecompositionResult{}
	for _, k := range []int{2, 4, 8, 16, 32} {
		d, err := tr.Decompose(k)
		if err != nil {
			return nil, err
		}
		out.Blocks = append(out.Blocks, len(d.Blocks))
		out.Duplicated = append(out.Duplicated, d.DuplicatedEntries)
		out.CrossEdges = append(out.CrossEdges, d.CrossEdges)
		out.Imbalance = append(out.Imbalance, d.Imbalance())
	}
	return out, nil
}

// Write prints the decomposition rows.
func (r *DecompositionResult) Write(w io.Writer) {
	fmt.Fprintln(w, "Junction-tree decomposition (paper §3, ref [10]) — duplication cost on JT1")
	fmt.Fprintln(w, "blocks  duplicated-entries  cross-edges  imbalance")
	for i := range r.Blocks {
		fmt.Fprintf(w, "%6d  %18d  %11d  %9.2f\n",
			r.Blocks[i], r.Duplicated[i], r.CrossEdges[i], r.Imbalance[i])
	}
}
