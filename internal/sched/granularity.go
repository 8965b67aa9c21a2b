package sched

import (
	"math"

	"evprop/internal/taskgraph"
)

// DispatchEntries is d, the cost of one scheduling operation (Allocate or
// Fetch: lock, list update, wake-up) expressed in potential-table entries:
// internal/machine's calibrated Dispatch / SecondsPerEntry (0.8 µs / 0.8 ns),
// pinned to those constants by a test there. It is the one granularity
// constant of the execution layer: Inline compares a graph's mean task
// against it, and Split keeps every piece above it.
const DispatchEntries = 1000

// ThresholdAuto is the Options.Threshold value that hands the Partition
// module's decision to Split: which tasks are cut, and into how many pieces,
// is decided per (graph, P) instead of by one table size δ for every graph.
const ThresholdAuto = -1

// Inline reports whether the graph should run on the calling goroutine
// (RunInline) instead of being dispatched to workers: InlineWeight at the
// graph's full weight, which is what a run without evidence costs.
func Inline(g *taskgraph.Graph, workers int) bool {
	return InlineWeight(g.TotalWeight(), g.N(), workers)
}

// InlineWeight is the granularity rule for one run: weight table entries in
// all, over tasks tasks. With P workers a scheduled run costs about
// (W + N·d)/P against W serial, so dispatching pays only when the mean task
// W/N exceeds d/(P−1). One worker, and an empty graph, always run inline. The
// weight is the run's own (taskgraph.State.Weight): evidence slices the
// tables, and the same graph that is worth dispatching at the full domain may
// be a few entries per task under dense evidence.
func InlineWeight(weight float64, tasks, workers int) bool {
	if tasks == 0 || workers <= 1 {
		return true
	}
	return weight*float64(workers-1) <= DispatchEntries*float64(tasks)
}

// Split is the Partition module's decision for a graph run by P workers: per
// task, the number of pieces it is cut into, or nil when the graph is run
// whole. It is a pure function of the two, evaluated once and kept on the
// graph (taskgraph.Graph.PieceCounts), so the full graph, the max-product
// run and every pruned lazy plan each get their own verdict.
//
// Partitioning exists to create parallelism the graph lacks (the paper's §6).
// P workers cannot finish before max(W/P, CP) — W the total weight, CP the
// critical path — and cutting tasks shortens only CP, so a graph with
// W/CP ≥ P is work-bound under a perfect schedule and gains nothing from it.
// The pool is a greedy list scheduler, though, guaranteed only
// W/P + (1−1/P)·CP (Graham's bound); its P-th worker is certainly earning its
// place while that stays within W/(P−1), what a perfect schedule makes of one
// worker fewer, which needs W/CP ≥ (P−1)². Both hold when no dependency chain
// is heavier than W/max(P, (P−1)²), and then nothing is cut: pieces would
// cost their dispatches, their buffers and the cache lines two workers then
// share, and buy nothing. Otherwise the tasks to cut are exactly those with a
// heavier chain through them.
//
// Such a task of weight w goes into n ≤ P pieces. The worker that cuts it
// queues the pieces one dispatch d after another before it starts its own,
// and for a Marginalize — input-partitioned, every piece after the first
// reducing into a private separator-sized buffer — the combining subtask then
// reads each buffer and adds it to the shared one, two passes over |S| entries
// per piece. The chain through the task is therefore about w/n + n·c, with
// c = d, plus 2·|S| for a Marginalize, least at n = √(w/c). Capping n there
// keeps every piece above √(w·c) ≥ 2d entries, and leaves a Marginalize whole
// unless it is several times its separator (two pieces need w ≥ 4d + 8·|S|).
func Split(g *taskgraph.Graph, workers int) []int32 {
	return g.PieceCounts(workers, splitRule)
}

func splitRule(g *taskgraph.Graph, workers int) []int32 {
	if workers <= 1 || g.N() == 0 {
		return nil
	}
	up, down := g.ChainWeights() // nil for a cyclic graph, which no pool run survives
	chain := g.TotalWeight() / float64(max(workers, (workers-1)*(workers-1)))
	var pieces []int32
	for id := range up {
		t := &g.Tasks[id]
		if up[id]+down[id]-t.Weight <= chain {
			continue
		}
		c := float64(DispatchEntries)
		if t.Kind == taskgraph.Marginalize {
			c += 2 * float64(g.SepSize(id))
		}
		if n := min(workers, int(math.Sqrt(t.Weight/c))); n > 1 {
			if pieces == nil {
				pieces = make([]int32, g.N())
			}
			pieces[id] = int32(n)
		}
	}
	return pieces
}
