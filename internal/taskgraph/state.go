package taskgraph

import (
	"errors"
	"fmt"
	"sync"

	"evprop/internal/jtree"
	"evprop/internal/potential"
)

// Mode selects the semiring a State propagates over.
type Mode int

const (
	// SumProduct computes posterior marginals (ordinary evidence
	// propagation).
	SumProduct Mode = iota
	// MaxProduct computes max-marginals, turning propagation into a
	// most-probable-explanation solver: the Marginalize primitive
	// maximizes instead of summing; the other primitives are unchanged.
	MaxProduct
)

func (m Mode) String() string {
	if m == MaxProduct {
		return "max-product"
	}
	return "sum-product"
}

// ErrScratchReleased is returned by the execution methods of a State whose
// run scratch went back to its graph's pool (ReleaseScratch) and has not been
// re-attached by Reset: such a state holds a finished propagation to read,
// not one to run.
var ErrScratchReleased = errors.New("taskgraph: run scratch released; Reset the state before executing it")

// State is one propagation over a task graph, in two parts with two
// lifetimes.
//
// The result tables — Clique and Sep — are what a propagation computes: they
// start as clones of the tree's potentials, absorb the evidence, are
// calibrated by the run, and live for as long as anything reads the result.
//
// The run scratch — the per-edge message buffers and the partial-buffer free
// lists — is written and read only by the tasks of one
// scheduler run; no accessor below ever looks at it. It comes from a pool on
// the Graph (NewStateMode and Reset attach one) and goes back the moment a
// run has succeeded (ReleaseScratch), so holding a result holds its tables
// and nothing else, and concurrent propagations over one graph share as many
// scratches as there are runs in flight, not as there are results alive.
//
// Two tasks may touch the same buffer only if the dependency graph orders
// them, so a State may be driven by any number of worker goroutines that
// respect the graph.
type State struct {
	g    *Graph
	mode Mode
	// Clique[i] is the working potential of clique i.
	Clique []*potential.Potential
	// Sep[c] is the stored separator potential ψS of the edge (c, parent).
	Sep []*potential.Potential
	// run is the attached run scratch, nil from ReleaseScratch to the next
	// Reset.
	run *scratch
}

// scratch is the run-lifetime half of a State. Nothing in it carries over
// from one run to the next — a Marginalize, whole or piece, clears the buffer
// it reduces into before accumulating — so a scratch serves any state of its
// graph, in either semiring, without being cleared.
type scratch struct {
	// sepNew[c] receives the freshly marginalized ψ*S, then holds the
	// ratio ψ*S/ψS after the Divide step, which Multiply reads.
	sepNew []*potential.Potential
	// bufFree recycles the private accumulation buffers of partitioned
	// Marginalize tasks, per edge (both passes over an edge share one
	// separator domain). Buffers are handed out by NewPartialBuffer and
	// returned by Combine, so steady-state propagation allocates no buffer.
	bufMu   sync.Mutex
	bufFree [][]*potential.Potential
}

// newScratch allocates the buffers for one run over the materialized tree.
func newScratch(t *jtree.Tree) *scratch {
	sc := &scratch{
		sepNew:  make([]*potential.Potential, t.N()),
		bufFree: make([][]*potential.Potential, t.N()),
	}
	for i := range t.Cliques {
		c := &t.Cliques[i]
		if c.Parent < 0 {
			continue
		}
		sc.sepNew[i] = c.SepPot.CloneZero()
	}
	return sc
}

// getScratch takes a run scratch from the graph's pool, allocating one when
// the pool is empty. The tree must be materialized.
func (g *Graph) getScratch() *scratch {
	if v := g.scratchPool.Get(); v != nil {
		return v.(*scratch)
	}
	return newScratch(g.Tree)
}

// NewState allocates working storage for one sum-product propagation over
// the graph's tree, which must be materialized (clique and separator
// potentials non-nil). The tree itself is left untouched.
func (g *Graph) NewState() (*State, error) { return g.NewStateMode(SumProduct) }

// NewStateMode is NewState with an explicit semiring. The result tables are
// allocated; the run scratch comes from the graph's pool.
func (g *Graph) NewStateMode(mode Mode) (*State, error) {
	t := g.Tree
	// Compiled here so that the kernels can read g.plans without a check.
	if _, err := g.Plans(); err != nil {
		return nil, err
	}
	st := &State{
		g:      g,
		mode:   mode,
		Clique: make([]*potential.Potential, t.N()),
		Sep:    make([]*potential.Potential, t.N()),
	}
	for i := range t.Cliques {
		c := &t.Cliques[i]
		if c.Pot == nil {
			return nil, fmt.Errorf("taskgraph: clique %d not materialized", i)
		}
		st.Clique[i] = c.Pot.Clone()
		if c.Parent < 0 {
			continue
		}
		if c.SepPot == nil {
			return nil, fmt.Errorf("taskgraph: clique %d separator not materialized", i)
		}
		st.Sep[i] = c.SepPot.Clone()
	}
	st.run = g.getScratch()
	return st, nil
}

// Reset re-primes a previously executed state for a fresh propagation with
// the given semiring: it copies the tree's clique and separator potentials
// back into the existing tables without allocating, and attaches a run
// scratch from the graph's pool when the last run's was released. Reset plus
// reuse is the pooling layer that makes steady-state propagation
// near-allocation-free.
func (st *State) Reset(mode Mode) {
	st.mode = mode
	t := st.g.Tree
	for i := range t.Cliques {
		c := &t.Cliques[i]
		copy(st.Clique[i].Data, c.Pot.Data)
		if c.Parent < 0 {
			continue
		}
		copy(st.Sep[i].Data, c.SepPot.Data)
	}
	if st.run == nil {
		st.run = st.g.getScratch()
	}
}

// ReleaseScratch hands the state's run scratch back to its graph's pool,
// leaving the result tables for readers. Call it once the scheduler run over
// this state has returned without error, and only then: workers of a failed
// or cancelled pool run may still be writing the scratch, so such a state
// keeps it and both go to the garbage collector together. Until the next
// Reset the execution methods return ErrScratchReleased; every accessor
// works as before. Releasing twice is a no-op.
func (st *State) ReleaseScratch() {
	if st.run == nil {
		return
	}
	st.g.scratchPool.Put(st.run)
	st.run = nil
}

// RetainedEntries counts the table entries reachable from the state: the
// clique and separator tables, plus the run scratch (free lists included)
// while one is attached. After ReleaseScratch it is the tree's clique plus
// separator entries — what holding a result costs.
func (st *State) RetainedEntries() int {
	n := 0
	count := func(ps []*potential.Potential) {
		for _, p := range ps {
			if p != nil {
				n += p.Len()
			}
		}
	}
	count(st.Clique)
	count(st.Sep)
	if sc := st.run; sc != nil {
		count(sc.sepNew)
		sc.bufMu.Lock()
		for _, free := range sc.bufFree {
			count(free)
		}
		sc.bufMu.Unlock()
	}
	return n
}

// AbsorbEvidence reduces every working clique potential on the evidence.
// Call once before executing the graph.
func (st *State) AbsorbEvidence(ev potential.Evidence) error {
	for i, p := range st.Clique {
		if err := p.Reduce(ev); err != nil {
			return fmt.Errorf("taskgraph: clique %d: %w", i, err)
		}
	}
	return nil
}

// AbsorbLikelihood multiplies soft (virtual) evidence into the state: each
// variable's weight vector is applied to exactly one clique containing it
// (applying it more than once would square the weights).
func (st *State) AbsorbLikelihood(like potential.Likelihood) error {
	for v := range like {
		ci := st.g.Tree.CliqueOf(v)
		if ci < 0 {
			return fmt.Errorf("taskgraph: likelihood on unknown variable %d", v)
		}
		if err := st.Clique[ci].ApplyLikelihood(like, v); err != nil {
			return fmt.Errorf("taskgraph: clique %d: %w", ci, err)
		}
	}
	return nil
}

// Graph returns the graph this state executes.
func (st *State) Graph() *Graph { return st.g }

// Mode returns the semiring this state propagates over.
func (st *State) Mode() Mode { return st.mode }

// Execute runs the whole task (no partitioning).
func (st *State) Execute(id int) error {
	return st.ExecutePiece(id, 0, st.PartitionSize(id), nil)
}

// PartitionSize returns the length of the index range over which the task
// may be split into independent pieces. It is read off the result tables — a
// message buffer has the domain of the separator — so it needs no scratch.
func (st *State) PartitionSize(id int) int {
	t := &st.g.Tasks[id]
	switch t.Kind {
	case Marginalize:
		return st.Clique[t.Source].Len() // input-partitioned
	case Divide:
		return st.Sep[t.Edge].Len()
	case Multiply:
		return st.Clique[t.Target].Len()
	}
	return 0
}

// NewPartialBuffer returns a private accumulation buffer for a piece of a
// Marginalize task, and nil for every other kind (their pieces write disjoint
// output ranges and need no buffer). Its contents are whatever the last run
// left there: the piece that receives it clears it (ExecutePiece), so the
// clearing is done by the worker that is about to write the buffer anyway and
// not by the one that splits the task. Buffers recycled by an earlier Combine
// on the same edge are reused before allocating; the method is safe for
// concurrent use by workers partitioning different tasks.
func (st *State) NewPartialBuffer(id int) *potential.Potential {
	t := &st.g.Tasks[id]
	if t.Kind != Marginalize {
		return nil
	}
	if sc := st.run; sc != nil {
		sc.bufMu.Lock()
		if free := sc.bufFree[t.Edge]; len(free) > 0 {
			b := free[len(free)-1]
			free[len(free)-1] = nil
			sc.bufFree[t.Edge] = free[:len(free)-1]
			sc.bufMu.Unlock()
			return b
		}
		sc.bufMu.Unlock()
	}
	return st.Sep[t.Edge].CloneZero()
}

// ExecutePiece runs the [lo,hi) slice of the task. A Marginalize piece
// replaces the contents of buf with its partial result: it clears buf, then
// reduces its slice of the source clique into it. A nil buf stands for the
// task's own destination, the edge's sepNew buffer — which is how a whole
// task, and the first piece of a partitioned one, write it directly. Other
// kinds ignore buf. An Extend task (none is built, see the package comment) is
// refused.
func (st *State) ExecutePiece(id, lo, hi int, buf *potential.Potential) error {
	sc := st.run
	if sc == nil {
		return ErrScratchReleased
	}
	t := &st.g.Tasks[id]
	switch t.Kind {
	case Marginalize:
		if buf == nil {
			buf = sc.sepNew[t.Edge]
		}
		clear(buf.Data)
		pl := st.g.plans[t.Edge].Of(t.Source, t.Edge)
		if st.mode == MaxProduct {
			return pl.MaxMarginalInto(st.Clique[t.Source], buf, lo, hi)
		}
		return pl.MarginalInto(st.Clique[t.Source], buf, lo, hi)
	case Divide:
		return divideRange(sc.sepNew[t.Edge].Data, st.Sep[t.Edge].Data, lo, hi)
	case Multiply:
		pl := st.g.plans[t.Edge].Of(t.Target, t.Edge)
		return pl.MulRange(st.Clique[t.Target], sc.sepNew[t.Edge], lo, hi)
	case Extend:
		return fmt.Errorf("taskgraph: task %d: extension is part of Multiply and has no task of its own", id)
	}
	return fmt.Errorf("taskgraph: unknown kind %v", t.Kind)
}

// Combine finishes a partitioned Marginalize: the first piece reduced straight
// into the shared sepNew buffer, and Combine adds the private buffers of the
// remaining pieces to it in the order given — piece order, so the sum is
// associated the same way on every run — then returns them to the edge's free
// list for a later partitioning of either pass over the same edge. For other
// kinds it is a no-op (their pieces already wrote the output).
func (st *State) Combine(id int, bufs []*potential.Potential) error {
	t := &st.g.Tasks[id]
	if t.Kind != Marginalize {
		return nil
	}
	sc := st.run
	if sc == nil {
		return ErrScratchReleased
	}
	dst := sc.sepNew[t.Edge]
	for _, b := range bufs {
		if st.mode == MaxProduct {
			if err := dst.MaxWith(b); err != nil {
				return err
			}
		} else if err := dst.Add(b); err != nil {
			return err
		}
	}
	sc.bufMu.Lock()
	sc.bufFree[t.Edge] = append(sc.bufFree[t.Edge], bufs...)
	sc.bufMu.Unlock()
	return nil
}

// divideRange performs the fused Divide step over separator entries
// [lo,hi): ratio = ψ*S / ψS with 0/0 = 0, storing the ratio in num (sepNew)
// and the new ψ*S into den (the stored separator), as Eq. 1 of the paper
// requires.
func divideRange(num, den []float64, lo, hi int) error {
	if lo < 0 || hi < lo || hi > len(num) {
		return fmt.Errorf("taskgraph: divide range [%d,%d) invalid for %d entries", lo, hi, len(num))
	}
	for i := lo; i < hi; i++ {
		fresh := num[i]
		if den[i] == 0 {
			num[i] = 0
		} else {
			num[i] = fresh / den[i]
		}
		den[i] = fresh
	}
	return nil
}

// RunSerial executes every task in topological order on this state. It is
// the reference executor; all parallel schedulers must produce bitwise the
// same clique potentials (up to floating-point associativity in partitioned
// marginalizations).
func (st *State) RunSerial() error {
	order, err := st.g.TopoOrder()
	if err != nil {
		return err
	}
	for _, id := range order {
		if err := st.Execute(id); err != nil {
			return fmt.Errorf("taskgraph: task %s: %w", st.g.Tasks[id].String(), err)
		}
	}
	return nil
}

// The calibration surface below lets engine code read a completed
// propagation without knowing whether it was produced eagerly (this type)
// or lazily (internal/lazy, which materializes tables on demand). On the
// eager state every table already holds its final value, so these are
// trivial accessors.

// CliquePot returns clique ci's potential table after propagation.
func (st *State) CliquePot(ci int) (*potential.Potential, error) {
	if ci < 0 || ci >= len(st.Clique) {
		return nil, fmt.Errorf("taskgraph: clique %d out of range", ci)
	}
	return st.Clique[ci], nil
}

// SepPot returns the stored separator potential of the edge above clique
// ci (ci must not be the root).
func (st *State) SepPot(ci int) (*potential.Potential, error) {
	if ci < 0 || ci >= len(st.Sep) || st.Sep[ci] == nil {
		return nil, fmt.Errorf("taskgraph: no separator above clique %d", ci)
	}
	return st.Sep[ci], nil
}

// EvidenceMass returns the total mass of the root clique after collect —
// the unnormalized probability of the absorbed evidence.
func (st *State) EvidenceMass() float64 {
	return st.Clique[st.g.Tree.Root].Sum()
}

// MassScale is the factor absolute table values must be multiplied by to
// recover true (unnormalized) probabilities. Eager propagation never skips
// a message, so its tables are exact and the scale is 1. Lazy propagation
// elides scalar-only messages and reports the product of the elided
// scalars here.
func (st *State) MassScale() float64 { return 1 }

// Calibrate is a no-op on the eager state: a full two-pass propagation
// leaves every clique and separator calibrated already.
func (st *State) Calibrate() error { return nil }

// Marginal extracts the normalized posterior of variable v from the state
// after propagation, by marginalizing a clique that contains v.
func (st *State) Marginal(v int) (*potential.Potential, error) {
	ci := st.g.Tree.CliqueOf(v)
	if ci < 0 {
		return nil, fmt.Errorf("taskgraph: no clique contains variable %d", v)
	}
	m, err := st.Clique[ci].Marginal([]int{v})
	if err != nil {
		return nil, err
	}
	if err := m.Normalize(); err != nil {
		return nil, fmt.Errorf("taskgraph: variable %d has zero posterior mass (impossible evidence?): %w", v, err)
	}
	return m, nil
}
