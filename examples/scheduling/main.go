// Scheduler comparison: run the same inference workload under both
// schedulers the library offers and report wall-clock times, report the
// collaborative scheduler's run on a generated junction tree, and show what
// Algorithm 1 rerooting does to that tree's critical path — the paper's two
// contributions.
//
// On a single-core host the wall-clock numbers will not show parallel
// speedup (use `evbench` for the simulated-multicore figures, which also
// compare against the paper's Fig. 6/7 baseline schedulers); the point of
// this example is exercising the public API's scheduler options on a
// non-trivial workload.
//
//	go run ./examples/scheduling
package main

import (
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"evprop"
	"evprop/internal/jtree"
	"evprop/internal/obs"
	"evprop/internal/sched"
	"evprop/internal/taskgraph"
)

func main() {
	// A synthetic 60-variable network, large enough that propagation cost
	// dominates compilation.
	net := evprop.RandomNetwork(60, 3, 3, 42)
	vars := net.Variables()
	ev := evprop.Evidence{vars[1]: 0, vars[len(vars)-1]: 1}

	fmt.Printf("workload: %d ternary variables, GOMAXPROCS=%d\n\n",
		len(vars), runtime.GOMAXPROCS(0))

	schedulers := []string{
		evprop.SchedulerSerial,
		evprop.SchedulerCollaborative,
	}
	fmt.Println("scheduler      best-of-5 wall time    P(evidence)")
	var reference float64
	for _, s := range schedulers {
		eng, err := net.Compile(evprop.Options{Scheduler: s, Workers: runtime.GOMAXPROCS(0)})
		if err != nil {
			log.Fatal(err)
		}
		best := time.Duration(1 << 62)
		var pe float64
		for i := 0; i < 5; i++ {
			start := time.Now()
			pe, err = eng.ProbabilityOfEvidence(ev)
			if err != nil {
				log.Fatal(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		// The serial scheduler changes where a run executes, never its
		// bits: both compute P(e) with the same partitioned arithmetic.
		if reference == 0 {
			reference = pe
		} else if pe != reference {
			log.Fatalf("scheduler %s disagrees: %g vs %g", s, pe, reference)
		}
		fmt.Printf("%-14s %18v    %.6g\n", s, best, pe)
	}

	// Instrumentation: run the collaborative scheduler on a generated
	// junction tree and print its report — the paper's Fig. 8 row of a real
	// run: per-thread busy time as load balance, and the scheduler's share.
	fmt.Println("\ncollaborative run (4 workers):")
	tr, err := jtree.Random(jtree.RandomConfig{N: 48, Width: 10, States: 2, Degree: 4, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	if err := tr.MaterializeRandom(1); err != nil {
		log.Fatal(err)
	}
	g := taskgraph.Build(tr)
	st, err := g.NewState()
	if err != nil {
		log.Fatal(err)
	}
	pool, err := sched.NewPool(4)
	if err != nil {
		log.Fatal(err)
	}
	defer pool.Close()
	metrics, err := pool.Run(st, sched.Options{Threshold: 512})
	if err != nil {
		log.Fatal(err)
	}
	obs.FromSched(metrics).Write(os.Stdout)

	// Rerooting: Algorithm 1 picks the root that minimizes the critical
	// path, the heaviest root-to-leaf chain of clique weights that bounds a
	// parallel propagation however many workers run it. Every compiled
	// engine applies it; here it is shown on the generated tree above.
	rerooted, before, after, err := tr.RerootMinimal()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nrerooting (Algorithm 1):")
	fmt.Printf("  root clique %d -> %d, critical path %.0f -> %.0f entries (%.2fx shorter)\n",
		tr.Root, rerooted.Root, before, after, before/after)
}
