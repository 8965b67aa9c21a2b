// Package baseline implements the OpenMP-style comparison method of the
// paper's Section 7 as a real executor, driving the same task graph and
// state as the collaborative scheduler so results are directly comparable:
// LevelSync, a fork-join parallel-for over each dependency level with a
// barrier between levels. The paper's other baselines (data-parallel,
// Cell-BE-style centralized, PNL-style distributed) are simulated by
// internal/machine, which produces every number of Figs. 6-7.
package baseline

import (
	"fmt"
	"sync"

	"evprop/internal/taskgraph"
)

// LevelSync executes the graph level by level: the tasks of each level are
// statically chunked over p goroutines and a barrier separates levels,
// mirroring an OpenMP parallel-for around each wavefront of ready cliques.
// Tasks within one level are mutually unordered and therefore hazard-free.
func LevelSync(st taskgraph.Executor, p int) error {
	if p < 1 {
		return fmt.Errorf("baseline: levelsync needs p >= 1, got %d", p)
	}
	for _, level := range st.Graph().Levels() {
		if err := parallelChunks(p, len(level), func(i int) error {
			return st.Execute(level[i])
		}); err != nil {
			return err
		}
	}
	return nil
}

// parallelChunks runs f(0..n-1) across p goroutines with static chunking
// and joins them (the OpenMP static schedule).
func parallelChunks(p, n int, f func(i int) error) error {
	if n == 0 {
		return nil
	}
	if p > n {
		p = n
	}
	errs := make([]error, p)
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		lo := w * n / p
		hi := (w + 1) * n / p
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				if err := f(i); err != nil {
					errs[w] = err
					return
				}
			}
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
