package main

import (
	"fmt"
	"io"
	"os"

	"evprop/internal/jtree"
	"evprop/internal/obs"
	"evprop/internal/sched"
	"evprop/internal/taskgraph"
)

// traceWorkload runs one traced collaborative propagation sized so that
// partitioning actually fires, and returns its metrics. Shared by -trace and
// its test.
func traceWorkload(workers int) (*sched.Metrics, error) {
	tr, err := jtree.Random(jtree.RandomConfig{N: 48, Width: 8, States: 2, Degree: 3, Seed: 11})
	if err != nil {
		return nil, err
	}
	if err := tr.MaterializeRandom(7); err != nil {
		return nil, err
	}
	g := taskgraph.Build(tr)
	st, err := g.NewState()
	if err != nil {
		return nil, err
	}
	// A small δ forces the Partition module to split the wide potential
	// operations, so the exported trace shows pieces and combiners too.
	pool, err := sched.NewPool(workers)
	if err != nil {
		return nil, err
	}
	defer pool.Close()
	return pool.Run(st, sched.Options{Threshold: 32, Trace: true})
}

// writeTrace runs the trace workload and exports its schedule as a Chrome
// trace_event JSON file (load into chrome://tracing or https://ui.perfetto.dev),
// printing the run's observability report to summary.
func writeTrace(path string, workers int, summary io.Writer) error {
	m, err := traceWorkload(workers)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.Trace.ToChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	obs.FromSched(m).Write(summary)
	fmt.Fprintf(summary, "trace: %d events → %s\n", len(m.Trace.Events), path)
	return nil
}
