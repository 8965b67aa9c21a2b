package taskgraph

import "evprop/internal/potential"

// Executor is the surface the schedulers drive: a task graph plus the
// ability to execute its tasks whole, in range pieces with partial-result
// buffers, or serially. *State is the eager implementation (full-table
// Hugin propagation); internal/lazy provides a pruning implementation whose
// graphs contain only the messages a query's evidence actually perturbs.
//
// The contract the schedulers rely on:
//
//   - Graph() is immutable for the lifetime of the run.
//   - Execute(id) runs one task to completion.
//   - PartitionSize(id) is the length of the index range ExecutePiece
//     accepts for the task; the scheduler's Partition module splits that
//     range. Implementations return 1 for tasks that must never be split.
//   - ExecutePiece(id, lo, hi, buf) runs the [lo,hi) slice of the task. For a
//     reduction task (marginalize) the piece's partial result replaces the
//     contents of buf — the piece clears buf itself — and a nil buf stands
//     for the task's own destination, which the first piece of a partitioned
//     task writes directly. In-place tasks ignore buf.
//   - NewPartialBuffer(id) returns a reduction buffer (contents undefined)
//     for one piece of the task after the first, or nil when the task reduces
//     nothing and pieces run in place.
//   - Combine(id, bufs) folds the partial buffers of a partitioned task's
//     second to last pieces, in piece order, into the destination its first
//     piece wrote; it is called exactly once per partitioned task, after
//     every piece completed. The fixed order is what makes a partitioned sum
//     bit-identical from run to run.
//   - RunSerial() executes the whole graph on the calling goroutine in
//     topological order.
//
// Tasks connected by graph edges are ordered by the scheduler
// (happens-before via its dependency counters), so an implementation may
// let dependent tasks share mutable tables without further locking, exactly
// as *State does.
type Executor interface {
	Graph() *Graph
	Execute(id int) error
	ExecutePiece(id, lo, hi int, buf *potential.Potential) error
	PartitionSize(id int) int
	NewPartialBuffer(id int) *potential.Potential
	Combine(id int, bufs []*potential.Potential) error
	RunSerial() error
}
