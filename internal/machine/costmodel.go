// Package machine is the hardware substitute of this reproduction: a
// deterministic discrete-event simulator of a homogeneous multicore
// processor executing an evidence-propagation task dependency graph under
// each of the paper's scheduling methods.
//
// The paper's evaluation ran on 8-core Xeon/Opteron systems; this
// repository's host cannot observe parallel wall-clock speedup, but every
// figure in the paper is a function of (task DAG structure, task weights,
// scheduling policy, overhead constants) — exactly the state this simulator
// evolves. Task service time is weight × SecondsPerEntry; scheduling,
// synchronization and communication overheads are explicit model
// parameters, calibrated in EXPERIMENTS.md against the paper's reported
// numbers (speedup 7.4 at 8 cores, <0.9 % scheduling overhead, PNL
// collapse beyond 4 processors).
package machine

// CostModel holds the simulator's timing constants, all in seconds.
type CostModel struct {
	// SecondsPerEntry converts a task weight (potential-table entries
	// touched) into service time. Default models a ~2 GHz core doing a few
	// flops per entry.
	SecondsPerEntry float64
	// Dispatch is the cost of one Allocate/Fetch scheduling operation on
	// the global or local lists (lock acquire + list update).
	Dispatch float64
	// LockContention scales Dispatch by (1 + LockContention·(P−1)): with
	// more threads the shared lists are contended, the overhead the paper
	// observes growing at 8 threads.
	LockContention float64
	// Barrier is the cost of one level-synchronization barrier.
	Barrier float64
	// ForkJoin is the per-thread cost of spawning and joining a thread for
	// one primitive (the data-parallel baseline pays P·ForkJoin per task).
	ForkJoin float64
	// OmpForkJoin is the same for the OpenMP runtime's implicit team
	// fork/barrier around a parallel loop.
	OmpForkJoin float64
	// SplitContention is β in the primitive-splitting efficiency
	// n/(1+β·(n−1)): n cores streaming one table share memory bandwidth,
	// so an n-way split of a single primitive speeds up sublinearly.
	SplitContention float64
	// OmpSplitContention is β for the OpenMP runtime (slightly worse:
	// static loop chunks + implicit barriers).
	OmpSplitContention float64
	// MessageLatency is the fixed cost of one emulated inter-process
	// message (DistributedEmu / PNL model).
	MessageLatency float64
	// MessagePerByte is the per-byte transfer cost of a message.
	MessagePerByte float64
	// SyncPerProcess is the per-level synchronization cost per process of
	// the distributed-memory model (grows linearly with P).
	SyncPerProcess float64
	// BroadcastPerByte is the shared-interconnect cost of replicating one
	// byte of an updated clique table to the other processes in the
	// distributed (PNL-style) model, which replicates the junction tree on
	// every process. This term is what makes Fig. 6 collapse beyond 4
	// processors: it grows with (P−1) while per-process work shrinks.
	BroadcastPerByte float64
	// MemoryLoad inflates every primitive's service time by
	// (1 + MemoryLoad·(P−1)): with more active cores the shared memory
	// system is loaded even when they stream distinct tables. It is the
	// gap between the paper's 7.4× and a perfect 8×.
	MemoryLoad float64
}

// Default returns the cost model of the host the engine runs on: the paper's
// platform with the per-entry cost this repository's kernels measure —
// RunSerial ÷ TotalWeight on the load benchmark's mid60 and wide60 trees is
// 0.78-0.84 ns per entry since a message is three plan-compiled passes
// (DESIGN §18). It is the model the execution layer's granularity constant is
// pinned to (sched.DispatchEntries = Dispatch / SecondsPerEntry) and the one
// the granularity crossover table simulates; the paper's figures are
// regenerated under Xeon and Opteron.
func Default() CostModel {
	cm := Xeon()
	cm.SecondsPerEntry = 8e-10
	return cm
}

// Xeon returns the calibrated model of the paper's first platform (2×
// quad-core Intel Xeon E5335, 2.0 GHz), the one the experiment harness
// regenerates the paper's figures under. See EXPERIMENTS.md for the
// calibration procedure.
func Xeon() CostModel {
	return CostModel{
		SecondsPerEntry:    2e-9,
		Dispatch:           8e-7,
		LockContention:     0.04,
		Barrier:            2e-6,
		ForkJoin:           2.5e-6,
		OmpForkJoin:        4e-6,
		SplitContention:    0.143, // 8-way split ≈ 4× (paper: 7.1/1.8 ≈ 3.9)
		OmpSplitContention: 0.185, // 8-way split ≈ 3.5× (paper: 7.4/2.1 ≈ 3.5)
		MessageLatency:     5.3e-5,
		MessagePerByte:     1.7e-9, // ~600 MB/s effective point-to-point
		SyncPerProcess:     4e-5,
		BroadcastPerByte:   3.3e-11, // shared bus, all processes contend
		MemoryLoad:         0.008,
	}
}

// service converts a weight to seconds.
func (cm CostModel) service(weight float64) float64 { return weight * cm.SecondsPerEntry }

// loadedService is service time under P active cores sharing the memory
// system.
func (cm CostModel) loadedService(weight float64, p int) float64 {
	return cm.service(weight) * (1 + cm.MemoryLoad*float64(p-1))
}

// dispatchCost is the per-operation scheduling cost under P threads.
func (cm CostModel) dispatchCost(p int) float64 {
	return cm.Dispatch * (1 + cm.LockContention*float64(p-1))
}

// splitFactor returns the effective speedup of splitting one primitive
// n ways under memory-bandwidth contention β.
func splitFactor(n int, beta float64) float64 {
	if n <= 1 {
		return 1
	}
	return float64(n) / (1 + beta*float64(n-1))
}

// Opteron returns the model for the paper's second platform (2× quad-core
// AMD Opteron 2347, 1.9 GHz): ~5 % slower per entry, with slightly cheaper
// synchronization (the paper reports 7.1× there vs 7.4× on the Xeon, and a
// marginally better data-parallel baseline — 1.8× gap instead of 2.1×).
func Opteron() CostModel {
	cm := Xeon()
	cm.SecondsPerEntry = 2.1e-9
	cm.Dispatch = 7e-7
	cm.MemoryLoad = 0.013
	cm.SplitContention = 0.126 // 8-way ≈ 4.25× (7.1/1.8 ≈ 3.9 with load)
	cm.OmpSplitContention = 0.165
	return cm
}
