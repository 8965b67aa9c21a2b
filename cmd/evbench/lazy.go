package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"evprop"
)

// runLazy measures real wall-clock lazy-vs-eager query latency on the
// serving workload (the same 40-node network as the serving benchmarks),
// for a sparse-evidence and a dense-evidence configuration, and reports
// median latencies, the speedup, and the lazy engine's pruning counters.
func runLazy(w io.Writer, workers, iters int) error {
	net := evprop.RandomNetwork(40, 2, 3, 7)
	vars := net.Variables()
	workloads := []struct {
		name string
		ev   evprop.Evidence
	}{
		{"sparse (2 observed)", evprop.Evidence{vars[3]: 1, vars[17]: 0}},
		{"dense (20 observed)", func() evprop.Evidence {
			ev := evprop.Evidence{vars[3]: 1, vars[17]: 0}
			for i := 0; i < len(vars); i += 2 {
				ev[vars[i]] = i % 2
			}
			return ev
		}()},
	}

	fmt.Fprintf(w, "Lazy vs eager propagation — real wall clock, %d workers, median of %d queries\n", workers, iters)
	fmt.Fprintf(w, "workload: RandomNetwork(40,2,3,7), 3 target posteriors per query\n\n")
	for _, wl := range workloads {
		var query []string
		for _, v := range []string{vars[1], vars[20], vars[39]} {
			if _, fixed := wl.ev[v]; !fixed {
				query = append(query, v)
			}
		}
		var med [2]time.Duration
		var stats evprop.PropagationStats
		for mode, lazy := range map[int]bool{0: false, 1: true} {
			eng, err := net.Compile(evprop.Options{Workers: workers, Lazy: lazy})
			if err != nil {
				return err
			}
			lat := make([]time.Duration, 0, iters)
			for i := 0; i < iters; i++ {
				start := time.Now()
				res, err := eng.Propagate(wl.ev)
				if err != nil {
					return err
				}
				if _, err := res.Posteriors(query...); err != nil {
					return err
				}
				lat = append(lat, time.Since(start))
				if lazy && i == 0 {
					stats, _ = res.PropagationStats()
				}
				res.Close()
			}
			sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
			med[mode] = lat[len(lat)/2]
		}
		fmt.Fprintf(w, "%-22s eager %9v   lazy %9v   speedup %.2fx\n",
			wl.name, med[0], med[1], float64(med[0])/float64(med[1]))
		fmt.Fprintf(w, "%-22s messages sent/blocked/skipped %d/%d/%d, tasks %d of %d, flops %d of %d (%.0f%% pruned), materialized %d entries\n\n",
			"", stats.MessagesSent, stats.MessagesBlocked, stats.MessagesSkipped,
			stats.TasksRun, stats.TasksRun+stats.TasksSkipped,
			stats.Flops, stats.FlopsFull,
			100*(1-float64(stats.Flops)/float64(stats.FlopsFull)),
			stats.MaterializedEntries)
	}
	return nil
}
