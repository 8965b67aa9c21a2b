package experiments

import (
	"fmt"
	"io"
	"time"

	"evprop/internal/baseline"
	"evprop/internal/jtree"
	"evprop/internal/potential"
	"evprop/internal/sched"
	"evprop/internal/taskgraph"
)

// RealConfig parameterizes the real-execution (goroutine) speedup
// measurement. On a multicore host this reproduces Fig. 7 with wall-clock
// times; on a single-core host it measures scheduling overhead only, which
// is why the simulated machine is the primary harness (DESIGN.md §2).
type RealConfig struct {
	// Cliques, Width, States, Degree describe the junction tree (scaled to
	// fit the host; the default is 64 cliques of width 12, ~4096-entry
	// tables).
	Cliques, Width, States, Degree int
	Seed                           int64
	// Workers lists the worker counts to measure.
	Workers []int
	// Repeats takes the best of this many runs per configuration.
	Repeats int
}

// DefaultRealConfig returns the host-scale default.
func DefaultRealConfig() RealConfig {
	return RealConfig{
		Cliques: 64, Width: 12, States: 2, Degree: 4, Seed: 5,
		Workers: []int{1, 2, 4, 8},
		Repeats: 3,
	}
}

// RealRow is one measured configuration.
type RealRow struct {
	Method  string
	Workers int
	Best    time.Duration
	Speedup float64 // vs the serial measurement
}

// RealResult reports the real-execution measurement.
type RealResult struct {
	Serial time.Duration
	Rows   []RealRow
}

// Real measures wall-clock propagation time of the serial executor, the
// collaborative scheduler and the level-synchronous baseline on real
// goroutines.
func Real(cfg RealConfig) (*RealResult, error) {
	tr, err := jtree.Random(jtree.RandomConfig{
		N: cfg.Cliques, Width: cfg.Width, States: cfg.States, Degree: cfg.Degree, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	if err := tr.MaterializeRandom(cfg.Seed + 1); err != nil {
		return nil, err
	}
	rerooted, err := tr.Reroot(tr.SelectRoot())
	if err != nil {
		return nil, err
	}
	g := taskgraph.Build(rerooted)
	repeats := cfg.Repeats
	if repeats < 1 {
		repeats = 1
	}

	measure := func(run func(st *taskgraph.State) error) (time.Duration, error) {
		best := time.Duration(1 << 62)
		for i := 0; i < repeats; i++ {
			st, err := g.NewState()
			if err != nil {
				return 0, err
			}
			start := time.Now()
			if err := run(st); err != nil {
				return 0, err
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best, nil
	}

	out := &RealResult{}
	serial, err := measure(func(st *taskgraph.State) error { return st.RunSerial() })
	if err != nil {
		return nil, err
	}
	out.Serial = serial

	delta := int(autoThreshold(g))
	for _, p := range cfg.Workers {
		pool, err := sched.NewPool(p)
		if err != nil {
			return nil, err
		}
		d, err := measure(func(st *taskgraph.State) error {
			_, err := pool.Run(st, sched.Options{Threshold: delta})
			return err
		})
		pool.Close()
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, RealRow{
			Method: "collaborative", Workers: p, Best: d,
			Speedup: float64(serial) / float64(d),
		})
	}
	for _, p := range cfg.Workers {
		d, err := measure(func(st *taskgraph.State) error {
			return baseline.LevelSync(st, p)
		})
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, RealRow{
			Method: "levelsync", Workers: p, Best: d,
			Speedup: float64(serial) / float64(d),
		})
	}
	return out, nil
}

// Write prints the real-execution rows.
func (r *RealResult) Write(w io.Writer) {
	fmt.Fprintln(w, "Real goroutine execution (wall clock; needs a multicore host for speedup)")
	fmt.Fprintf(w, "serial: %v\n", r.Serial)
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-14s P=%d  %10v  speedup %.2f\n", row.Method, row.Workers, row.Best, row.Speedup)
	}
}

// EvidenceCountResult checks the paper's Section 3 claim that the method's
// performance "does not depend on the number of evidence cliques": wall
// times of real propagations under increasing evidence counts.
type EvidenceCountResult struct {
	Counts []int
	Times  []time.Duration
}

// EvidenceCount measures real propagation time on a fixed junction tree
// while the number of instantiated variables grows.
func EvidenceCount(cfg RealConfig) (*EvidenceCountResult, error) {
	tr, err := jtree.Random(jtree.RandomConfig{
		N: cfg.Cliques, Width: cfg.Width, States: cfg.States, Degree: cfg.Degree, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	if err := tr.MaterializeRandom(cfg.Seed + 1); err != nil {
		return nil, err
	}
	g := taskgraph.Build(tr)
	vars, cardOf := tr.Variables()
	repeats := cfg.Repeats
	if repeats < 1 {
		repeats = 1
	}
	pool, err := sched.NewPool(4)
	if err != nil {
		return nil, err
	}
	defer pool.Close()
	out := &EvidenceCountResult{}
	for _, count := range []int{0, 1, 4, 16, 64} {
		if count > len(vars) {
			break
		}
		ev := potential.Evidence{}
		for i := 0; i < count; i++ {
			v := vars[(i*37)%len(vars)]
			ev[v] = i % cardOf[v]
		}
		best := time.Duration(1 << 62)
		for r := 0; r < repeats; r++ {
			st, err := g.NewState()
			if err != nil {
				return nil, err
			}
			if err := st.AbsorbEvidence(ev); err != nil {
				return nil, err
			}
			start := time.Now()
			if _, err := pool.Run(st, sched.Options{Threshold: int(autoThreshold(g))}); err != nil {
				return nil, err
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		out.Counts = append(out.Counts, count)
		out.Times = append(out.Times, best)
	}
	return out, nil
}

// Write prints the evidence-count rows.
func (r *EvidenceCountResult) Write(w io.Writer) {
	fmt.Fprintln(w, "Evidence-count independence (paper §3 claim; real execution)")
	for i, c := range r.Counts {
		fmt.Fprintf(w, "  %3d evidence variables: %v\n", c, r.Times[i])
	}
}
