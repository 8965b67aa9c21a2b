package core

import (
	"evprop/internal/potential"
	"evprop/internal/taskgraph"
)

// propState is the calibration surface a Result reads posteriors from. Both
// the eager *taskgraph.State and the lazy engine's state satisfy it. The
// contract that makes lazy pruning transparent here:
//
//   - CliquePot and SepPot return tables that equal the fully calibrated
//     ones up to one positive per-table scalar (lazy elides blocked
//     messages, which are pure scalars). Every consumer in this package is
//     scalar-invariant — posteriors and calibration checks normalize,
//     Steiner folds normalize at the end, max-product argmax is monotone —
//     except absolute masses, which EvidenceMass and MassScale repair.
//   - Calibrate materializes whatever distribute work the state deferred;
//     afterwards CliquePot(ci) is valid for every clique. Eager states are
//     always fully distributed and return nil immediately.
//   - The lazy state materializes the root→clique path on demand inside
//     Marginal/CliquePot/SepPot, so single-variable queries never pay for
//     the whole distribute pass.
//   - ReleaseScratch gives up whatever only the scheduler run needed (the
//     eager state's message and extension buffers go back to its graph's
//     pool, the lazy state drops its collect extension tables). Engine.execute
//     calls it once, after a run that returned no error, before the state is
//     handed to readers; everything above keeps working afterwards.
type propState interface {
	Graph() *taskgraph.Graph
	Mode() taskgraph.Mode
	Marginal(v int, dst []float64) ([]float64, error)
	CliquePot(ci int) (*potential.Potential, error)
	SepPot(ci int) (*potential.Potential, error)
	EvidenceMass() float64
	MassScale() float64
	Calibrate() error
	ReleaseScratch()
}

// runState is a propState the scheduler can drive: what Engine.execute runs
// and, on success, strips of its scratch.
type runState interface {
	propState
	taskgraph.Executor
}
