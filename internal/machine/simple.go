package machine

import (
	"fmt"

	"evprop/internal/taskgraph"
)

// SimulateLevelSync models task-level level-synchronous execution: the
// tasks of each dependency level are statically chunked over P cores and a
// barrier separates levels. It is the task-parallel ablation between the
// dynamic collaborative scheduler and the purely data-parallel baselines.
func SimulateLevelSync(g *taskgraph.Graph, p int, cm CostModel) (*Result, error) {
	if p < 1 {
		return nil, fmt.Errorf("machine: need p >= 1, got %d", p)
	}
	res := &Result{}
	res.grow(p)
	for _, level := range g.Levels() {
		n := len(level)
		chunks := p
		if chunks > n {
			chunks = n
		}
		levelMax := 0.0
		for c := 0; c < chunks; c++ {
			lo := c * n / chunks
			hi := (c + 1) * n / chunks
			t := 0.0
			for _, id := range level[lo:hi] {
				t += cm.loadedService(g.Tasks[id].Weight, chunks)
			}
			res.Busy[c] += t
			if t > levelMax {
				levelMax = t
			}
		}
		res.Makespan += levelMax + cm.Barrier
		for c := 0; c < p; c++ {
			res.Overhead[c] += cm.Barrier
		}
	}
	return res, nil
}

// SimulateDataParallel models the paper's pthread data-parallel baseline:
// tasks run serially in topological order, each primitive split P ways with
// per-primitive fork/join cost and memory-bandwidth contention.
func SimulateDataParallel(g *taskgraph.Graph, p int, cm CostModel) (*Result, error) {
	return simulateSplitEveryPrimitive(g, p, cm.ForkJoin, cm.SplitContention, cm)
}

// SimulateOpenMP models the paper's OpenMP baseline: the sequential code's
// primitive loops wrapped in omp parallel-for, paying the runtime's team
// fork and implicit barrier per loop plus slightly worse split efficiency
// (static chunking).
func SimulateOpenMP(g *taskgraph.Graph, p int, cm CostModel) (*Result, error) {
	return simulateSplitEveryPrimitive(g, p, cm.OmpForkJoin, cm.OmpSplitContention, cm)
}

func simulateSplitEveryPrimitive(g *taskgraph.Graph, p int, forkJoin, beta float64, cm CostModel) (*Result, error) {
	if p < 1 {
		return nil, fmt.Errorf("machine: need p >= 1, got %d", p)
	}
	res := &Result{}
	res.grow(p)
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	for _, id := range order {
		w := cm.service(g.Tasks[id].Weight)
		elapsed := w/splitFactor(p, beta) + forkJoin*float64(p)
		res.Makespan += elapsed
		for c := 0; c < p; c++ {
			res.Busy[c] += w / float64(p)
			res.Overhead[c] += elapsed - w/float64(p)
		}
		if p > 1 {
			res.Pieces += p
		}
	}
	return res, nil
}

// SimulateDistributed models a PNL-style distributed-memory junction-tree
// implementation (the paper's Fig. 6 baseline). Cliques are statically
// distributed round-robin over P processes and execution is
// level-synchronous. Three overheads reproduce PNL's observed collapse
// beyond 4 processors:
//
//   - cross-block separator messages (point-to-point, paid by the
//     receiving block at the level of the Multiply that reads the message:
//     every message has one, and a collect message no Divide);
//   - replication broadcasts: the library keeps the junction tree
//     replicated on every process, so each clique update is shipped to the
//     other P−1 processes over a shared interconnect (serialized bus time
//     that grows with P while per-process work shrinks);
//   - a per-level synchronization linear in P.
func SimulateDistributed(g *taskgraph.Graph, p int, cm CostModel) (*Result, error) {
	if p < 1 {
		return nil, fmt.Errorf("machine: need p >= 1, got %d", p)
	}
	res := &Result{}
	res.grow(p)
	block := func(clique int) int { return clique % p }
	for _, level := range g.Levels() {
		comp := make([]float64, p)
		comm := make([]float64, p)
		broadcast := 0.0
		for _, id := range level {
			t := &g.Tasks[id]
			b := block(t.Target)
			comp[b] += cm.service(t.Weight)
			if p > 1 && t.Kind == taskgraph.Multiply {
				if block(t.Source) != block(t.Target) {
					bytes := float64(g.Tree.Cliques[t.Edge].SepSize()) * 8
					comm[b] += cm.MessageLatency + bytes*cm.MessagePerByte
				}
				// Replicated state: ship the updated clique table to the
				// other P−1 processes over the shared bus.
				bytes := float64(g.Tree.Cliques[t.Target].TableSize()) * 8
				broadcast += float64(p-1) * bytes * cm.BroadcastPerByte
			}
		}
		levelMax := 0.0
		for b := 0; b < p; b++ {
			res.Busy[b] += comp[b]
			res.Overhead[b] += comm[b] + broadcast/float64(p)
			if comp[b]+comm[b] > levelMax {
				levelMax = comp[b] + comm[b]
			}
		}
		sync := cm.SyncPerProcess * float64(p)
		if p == 1 {
			sync = 0
		}
		res.Makespan += levelMax + broadcast + sync
		for b := 0; b < p; b++ {
			res.Overhead[b] += sync
		}
	}
	return res, nil
}
