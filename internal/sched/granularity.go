package sched

import (
	"evprop/internal/jtree"
	"evprop/internal/taskgraph"
)

// DispatchEntries is d, the cost of one scheduling operation (Allocate or
// Fetch: lock, list update, wake-up) expressed in potential-table entries:
// internal/machine's calibrated Dispatch / SecondsPerEntry (0.8 µs / 2 ns),
// pinned to those constants by a test there. It is the one granularity
// constant of the execution layer: Inline compares a graph's mean task
// against it, and AutoThreshold keeps δ-pieces above it.
const DispatchEntries = 400

// Inline reports whether the graph should run on the calling goroutine
// (RunInline) instead of being dispatched to workers. With P workers a
// scheduled run costs about (W + N·d)/P against W serial — W the graph's
// total weight, N its task count — so dispatching pays only when the mean
// task W/N exceeds d/(P−1). One worker, and an empty graph, always run
// inline.
func Inline(g *taskgraph.Graph, workers int) bool {
	n := g.N()
	if n == 0 || workers <= 1 {
		return true
	}
	return g.TotalWeight()*float64(workers-1) <= DispatchEntries*float64(n)
}

// AutoThreshold is the partition threshold δ used when none is configured:
// twice the mean clique table, so only the heavyweight operations split, but
// never below DispatchEntries, so a piece is never cheaper than the dispatch
// that delivers it — rounded up to a whole cache line of entries, the
// minimum piece granularity snapStep keeps.
func AutoThreshold(t *jtree.Tree) int {
	total := 0
	for i := range t.Cliques {
		total += t.Cliques[i].TableSize()
	}
	δ := max(2*total/t.N(), DispatchEntries)
	return (δ + cacheLineEntries - 1) / cacheLineEntries * cacheLineEntries
}
