// Command evbench regenerates the tables and figures of the paper's
// evaluation section (see DESIGN.md for the experiment index and
// EXPERIMENTS.md for paper-vs-measured values).
//
// Usage:
//
//	evbench [-fig all|5|6|7|8|9|reroot|granularity|load|…]
//	evbench -trace out.json [-workers 4]
//
// -trace runs one real traced propagation and writes the schedule as a
// Chrome trace_event JSON file (open in chrome://tracing or Perfetto).
//
// The experiments run on the simulated multicore machine of
// internal/machine, which substitutes for the paper's 8-core testbeds; the
// rerooting-overhead experiment additionally measures real wall-clock time
// of Algorithm 1.
package main

import (
	"flag"
	"fmt"
	"os"

	"evprop/internal/buildinfo"
	"evprop/internal/experiments"
	"evprop/internal/machine"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: all, 5, 6, 7, 8, 9, reroot, ablations, manycore, roster, real, heuristics, evidence, granularity, load")
	tracePath := flag.String("trace", "", "run one traced propagation and write a Chrome trace_event JSON file")
	traceWorkers := flag.Int("workers", 4, "workers for the -trace run")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("evbench"))
		return
	}

	if *tracePath != "" {
		if err := writeTrace(*tracePath, *traceWorkers, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "evbench: trace:", err)
			os.Exit(1)
		}
		return
	}

	// The paper's figures are regenerated under the model of the paper's
	// platform; the granularity table is about the host (machine.Default), the
	// load figure about both.
	cm := machine.Xeon()
	run := func(name string, f func() error) {
		if *fig != "all" && *fig != name {
			return
		}
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "evbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	run("5", func() error {
		xeon, opteron, err := experiments.Fig5Both()
		if err != nil {
			return err
		}
		xeon.Write(os.Stdout)
		fmt.Println()
		opteron.Write(os.Stdout)
		return nil
	})
	run("reroot", func() error {
		r, err := experiments.RerootOverhead(cm)
		if err != nil {
			return err
		}
		r.Write(os.Stdout)
		return nil
	})
	run("6", func() error {
		r, err := experiments.Fig6(cm)
		if err != nil {
			return err
		}
		r.Write(os.Stdout)
		return nil
	})
	run("7", func() error {
		xeon, opteron, err := experiments.Fig7Both()
		if err != nil {
			return err
		}
		xeon.Write(os.Stdout)
		fmt.Println()
		opteron.Write(os.Stdout)
		return nil
	})
	run("8", func() error {
		r, err := experiments.Fig8(cm)
		if err != nil {
			return err
		}
		r.Write(os.Stdout)
		return nil
	})
	run("9", func() error {
		r, err := experiments.Fig9(cm)
		if err != nil {
			return err
		}
		r.Write(os.Stdout)
		return nil
	})
	run("ablations", func() error {
		a, err := experiments.AblationAllocation(cm)
		if err != nil {
			return err
		}
		a.Write(os.Stdout)
		fmt.Println()
		th, err := experiments.AblationThreshold(cm)
		if err != nil {
			return err
		}
		th.Write(os.Stdout)
		fmt.Println()
		rt, err := experiments.AblationRoot()
		if err != nil {
			return err
		}
		rt.Write(os.Stdout)
		fmt.Println()
		dc, err := experiments.Decomposition()
		if err != nil {
			return err
		}
		dc.Write(os.Stdout)
		return nil
	})
	run("manycore", func() error {
		r, err := experiments.ManyCore(cm)
		if err != nil {
			return err
		}
		r.Write(os.Stdout)
		return nil
	})
	run("roster", func() error {
		r, err := experiments.SchedulerRoster(cm)
		if err != nil {
			return err
		}
		r.Write(os.Stdout)
		return nil
	})
	run("heuristics", func() error {
		r, err := experiments.Heuristics()
		if err != nil {
			return err
		}
		r.Write(os.Stdout)
		return nil
	})
	run("real", func() error {
		r, err := experiments.Real(experiments.DefaultRealConfig())
		if err != nil {
			return err
		}
		r.Write(os.Stdout)
		return nil
	})
	run("granularity", func() error {
		r, err := experiments.Granularity(machine.Default())
		if err != nil {
			return err
		}
		r.Write(os.Stdout)
		return nil
	})
	run("load", func() error {
		for i, pl := range []struct {
			name string
			cm   machine.CostModel
		}{{"Xeon", machine.Xeon()}, {"this host", machine.Default()}} {
			r, err := experiments.Load(pl.name, pl.cm)
			if err != nil {
				return err
			}
			if i > 0 {
				fmt.Println()
			}
			r.Write(os.Stdout)
		}
		return nil
	})
	run("evidence", func() error {
		r, err := experiments.EvidenceCount(experiments.DefaultRealConfig())
		if err != nil {
			return err
		}
		r.Write(os.Stdout)
		return nil
	})
}
