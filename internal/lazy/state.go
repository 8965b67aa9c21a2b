package lazy

import (
	"fmt"
	"sync"
	"sync/atomic"

	"evprop/internal/potential"
	"evprop/internal/taskgraph"
)

// Stats is a snapshot of one lazy propagation's pruning counters. Message
// counts cover both passes (2 × edges possible messages); task and flop
// counts are measured against the eager engine's 6 tasks per edge.
type Stats struct {
	// MessagesSent counts full 3-task messages: planned collect messages
	// plus distribute messages materialized on demand so far.
	MessagesSent int64
	// MessagesBlocked counts messages collapsed to a scalar by a fully
	// observed separator (collect: Marginalize+Divide only; distribute:
	// nothing at all runs).
	MessagesBlocked int64
	// MessagesSkipped counts messages never sent: collect from undisturbed
	// subtrees, distribute not (or not yet) demanded or provably vacuous.
	MessagesSkipped int64
	// TasksRun and TasksSkipped measure the pruned task graph against the
	// eager engine's 6 tasks per edge.
	TasksRun, TasksSkipped int64
	// Flops counts table entries processed by executed tasks; FlopsFull is
	// what one eager two-pass propagation processes on this tree.
	Flops, FlopsFull int64
	// MaterializedEntries counts table entries this query copied or
	// allocated (clique/separator clones, message buffers). Untouched
	// regions of the tree — barren branches in particular — cost zero.
	MaterializedEntries int64
}

// State is one lazy propagation: shared read-only precalibrated tables,
// copy-on-write overlays for the tables this query's evidence actually
// perturbs, and the pruned collect graph. It implements taskgraph.Executor
// (driven by any scheduler) and the engine's calibration surface
// (Marginal/CliquePot/Calibrate/...), under which the distribute pass is
// materialized on demand, path by path.
type State struct {
	prop *Prop
	plan *plan
	mode taskgraph.Mode
	cal  *calibration
	// planHit records whether the pruned plan came from the plan cache
	// (true) or was built for this query (false).
	planHit bool

	// cl/sep overlay the calibration tables: nil means "unchanged, read
	// the shared precalibrated table". sepNew holds the per-edge message
	// buffers of surviving collect messages.
	cl     []*potential.Potential
	sep    []*potential.Potential
	sepNew []*potential.Potential

	// lambda[c] is the scalar recorded by a blocked edge's Divide — the
	// factor the skipped Multiply would have applied to every
	// surviving parent entry. 1.0 elsewhere. Folded into EvidenceMass and
	// MassScale in fixed edge order, so the product is deterministic.
	lambda []float64

	// mu serializes the demand-driven distribute pass (Divide is
	// destructive, so each edge must run at most once) and the
	// copy-on-write clones it performs. distDone[c] marks edge (c, parent)
	// resolved; it is only ever set top-down, so done implies all
	// ancestors are done.
	mu       sync.Mutex
	distDone []bool

	bufMu   sync.Mutex
	bufFree [][]*potential.Potential
	// released marks a state whose collect run is over (ReleaseScratch).
	released bool

	tasksRun     atomic.Int64
	flops        atomic.Int64
	materialized atomic.Int64
	distSent     atomic.Int64
	distBlocked  atomic.Int64
}

// NewState builds the pruned propagation state for one evidence
// configuration: plan lookup, copy-on-write reduction of the dirty
// cliques, and buffer allocation for the surviving collect messages. The
// caller then drives the returned state with any scheduler.
func (p *Prop) NewState(mode taskgraph.Mode, ev potential.Evidence, like potential.Likelihood) (*State, error) {
	if err := p.ensureCal(mode); err != nil {
		return nil, err
	}
	pl, hit := p.planFor(ev, like)
	n := p.tree.N()
	st := &State{
		prop:     p,
		plan:     pl,
		mode:     mode,
		planHit:  hit,
		cal:      p.cal[mode],
		cl:       make([]*potential.Potential, n),
		sep:      make([]*potential.Potential, n),
		sepNew:   make([]*potential.Potential, n),
		lambda:   make([]float64, n),
		distDone: make([]bool, n),
	}
	for i := range st.lambda {
		st.lambda[i] = 1
	}
	// Reduce only the dirty cliques: everywhere else Reduce is a no-op by
	// construction (no observed variable in the clique), which is the
	// first pruning win over the eager AbsorbEvidence full sweep.
	for i := range p.tree.Cliques {
		if !pl.dirty[i] {
			continue
		}
		c := st.cliqueRW(i)
		if len(ev) > 0 {
			if err := c.Reduce(ev); err != nil {
				return nil, fmt.Errorf("lazy: clique %d: %w", i, err)
			}
		}
	}
	for v := range like {
		ci := p.tree.CliqueOf(v)
		if ci < 0 {
			return nil, fmt.Errorf("lazy: likelihood on unknown variable %d", v)
		}
		if err := st.cliqueRW(ci).ApplyLikelihood(like, v); err != nil {
			return nil, fmt.Errorf("lazy: clique %d: %w", ci, err)
		}
	}
	// Clone every table the surviving collect tasks will write, up front
	// and serially: workers then share the overlay slices read-only and
	// need no clone-on-write locking on the hot path.
	for c := range pl.edges {
		ep := &pl.edges[c]
		if ep.collect == edgeSkip {
			continue
		}
		st.sep[c] = p.cal[mode].sep[c].Clone()
		st.sepNew[c] = p.cal[mode].sep[c].CloneZero()
		st.materialized.Add(2 * int64(st.sep[c].Len()))
		if ep.collect != edgeSend {
			continue
		}
		st.cliqueRW(p.tree.Cliques[c].Parent)
	}
	return st, nil
}

// cliqueRW returns clique i's private table, cloning the precalibrated one
// on first touch. Callers during a scheduler run rely on NewState having
// pre-cloned every concurrently written table; post-run callers hold mu.
func (st *State) cliqueRW(i int) *potential.Potential {
	if st.cl[i] == nil {
		st.cl[i] = st.cal.clique[i].Clone()
		st.materialized.Add(int64(st.cl[i].Len()))
	}
	return st.cl[i]
}

// cliqueRO returns clique i's current table without materializing it.
func (st *State) cliqueRO(i int) *potential.Potential {
	if st.cl[i] != nil {
		return st.cl[i]
	}
	return st.cal.clique[i]
}

// sepRO returns the stored separator of edge (i, parent) without
// materializing it.
func (st *State) sepRO(i int) *potential.Potential {
	if st.sep[i] != nil {
		return st.sep[i]
	}
	return st.cal.sep[i]
}

// --- taskgraph.Executor ---

// Graph returns the pruned collect graph of this query's plan.
func (st *State) Graph() *taskgraph.Graph { return st.plan.g }

// Mode returns the semiring this state propagates over.
func (st *State) Mode() taskgraph.Mode { return st.mode }

// PartitionSize follows the eager state, except that a Marginalize over a
// dirty clique spans only its evidence hull, and a blocked edge's Divide
// reports size 1: it computes the scalar λ in one indivisible step and
// must never be split.
func (st *State) PartitionSize(id int) int {
	t := &st.plan.g.Tasks[id]
	switch t.Kind {
	case taskgraph.Marginalize:
		return st.plan.hulls[t.Source].span
	case taskgraph.Divide:
		if st.plan.edges[t.Edge].collect == edgeBlock {
			return 1
		}
		return st.sepNew[t.Edge].Len()
	case taskgraph.Multiply:
		return st.cl[t.Target].Len()
	}
	return 1
}

// Execute runs the whole task unpartitioned.
func (st *State) Execute(id int) error {
	if err := st.ExecutePiece(id, 0, st.PartitionSize(id), nil); err != nil {
		return err
	}
	st.tasksRun.Add(1)
	return nil
}

// ExecutePiece runs the [lo,hi) slice of a task. Marginalize ranges are
// offsets into the source clique's evidence hull; the entries outside it
// are zero after reduction, so skipping them adds nothing to a sum and
// never wins a max — bit-identical to the eager full-range kernel. As on the
// eager state, a Marginalize piece clears buf before reducing into it, and a
// nil buf stands for the edge's own sepNew.
func (st *State) ExecutePiece(id, lo, hi int, buf *potential.Potential) error {
	if st.released {
		return taskgraph.ErrScratchReleased
	}
	t := &st.plan.g.Tasks[id]
	switch t.Kind {
	case taskgraph.Marginalize:
		if buf == nil {
			buf = st.sepNew[t.Edge]
		}
		clear(buf.Data)
		st.flops.Add(int64(hi - lo))
		return st.marginalize(t.Edge, t.Source, buf, lo, hi)
	case taskgraph.Divide:
		if st.plan.edges[t.Edge].collect == edgeBlock {
			return st.divideBlocked(t.Edge)
		}
		return st.divideRange(t.Edge, lo, hi)
	case taskgraph.Multiply:
		st.flops.Add(int64(hi - lo))
		pl := st.prop.walks[t.Edge].Of(t.Target, t.Edge)
		return pl.MulRange(st.cl[t.Target], st.sepNew[t.Edge], lo, hi)
	}
	return fmt.Errorf("lazy: unknown kind %v", t.Kind)
}

// marginalize reduces entries [lo, hi) of the source clique's evidence hull
// into buf through the compiled walk of the (source ⊇ separator) pair of the
// given edge.
func (st *State) marginalize(edge, source int, buf *potential.Potential, lo, hi int) error {
	h := st.plan.hulls[source]
	pl := st.prop.walks[edge].Of(source, edge)
	if st.mode == taskgraph.MaxProduct {
		return pl.MaxMarginalInto(st.cliqueRO(source), buf, h.lo+lo, h.lo+hi)
	}
	return pl.MarginalInto(st.cliqueRO(source), buf, h.lo+lo, h.lo+hi)
}

// NewPartialBuffer returns a private accumulation buffer for one piece of
// a partitioned Marginalize (recycled per edge and left for the piece to
// clear, like the eager state), nil for other kinds.
func (st *State) NewPartialBuffer(id int) *potential.Potential {
	t := &st.plan.g.Tasks[id]
	if t.Kind != taskgraph.Marginalize {
		return nil
	}
	st.bufMu.Lock()
	if st.bufFree != nil {
		if free := st.bufFree[t.Edge]; len(free) > 0 {
			b := free[len(free)-1]
			free[len(free)-1] = nil
			st.bufFree[t.Edge] = free[:len(free)-1]
			st.bufMu.Unlock()
			return b
		}
	}
	st.bufMu.Unlock()
	st.materialized.Add(int64(st.sepNew[t.Edge].Len()))
	return st.sepNew[t.Edge].CloneZero()
}

// Combine finishes a partitioned Marginalize by folding the buffers of the
// pieces after the first, in the order given, into the shared separator
// buffer the first piece wrote; a no-op for other kinds, whose pieces wrote
// disjoint ranges in place.
func (st *State) Combine(id int, bufs []*potential.Potential) error {
	if st.released {
		return taskgraph.ErrScratchReleased
	}
	t := &st.plan.g.Tasks[id]
	if t.Kind == taskgraph.Marginalize {
		dst := st.sepNew[t.Edge]
		for _, b := range bufs {
			if st.mode == taskgraph.MaxProduct {
				if err := dst.MaxWith(b); err != nil {
					return err
				}
			} else if err := dst.Add(b); err != nil {
				return err
			}
		}
		st.bufMu.Lock()
		if st.bufFree == nil {
			st.bufFree = make([][]*potential.Potential, len(st.sepNew))
		}
		st.bufFree[t.Edge] = append(st.bufFree[t.Edge], bufs...)
		st.bufMu.Unlock()
	}
	st.tasksRun.Add(1)
	return nil
}

// ReleaseScratch drops what only the collect run used, the partial-buffer free
// lists. The demand-driven distribute pass reuses sepNew, which therefore
// stays. Call it once the scheduler run has returned without error, and only
// then — workers of a failed pool run may still be writing these buffers.
// Executing the state afterwards is refused with taskgraph.ErrScratchReleased
// (a lazy state is built per query and never reset).
func (st *State) ReleaseScratch() {
	st.bufFree, st.released = nil, true
}

// RunSerial executes the pruned graph in topological order on the calling
// goroutine.
func (st *State) RunSerial() error {
	order, err := st.plan.g.TopoOrder()
	if err != nil {
		return err
	}
	for _, id := range order {
		if err := st.Execute(id); err != nil {
			return fmt.Errorf("lazy: task %s: %w", st.plan.g.Tasks[id].String(), err)
		}
	}
	return nil
}

// divideRange is the eager Divide kernel over the state's overlay tables:
// ratio = ψ*S/ψS with 0/0 = 0 into sepNew, ψS ← ψ*S.
func (st *State) divideRange(edge, lo, hi int) error {
	num := st.sepNew[edge].Data
	den := st.sep[edge].Data
	if lo < 0 || hi < lo || hi > len(num) {
		return fmt.Errorf("lazy: divide range [%d,%d) invalid for %d entries", lo, hi, len(num))
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
	st.flops.Add(int64(hi - lo))
	return nil
}

// divideBlocked runs a blocked edge's Divide over the whole separator and
// records λ — the single ratio entry the evidence leaves alive — instead
// of multiplying it into the parent. The skipped Multiply would have
// multiplied every surviving parent entry by exactly λ (the parent is
// reduced on the same evidence, so entries inconsistent with the separator
// observation are already zero).
func (st *State) divideBlocked(edge int) error {
	if err := st.divideRange(edge, 0, len(st.sepNew[edge].Data)); err != nil {
		return err
	}
	st.lambda[edge] = st.sepNew[edge].Data[st.plan.edges[edge].obsIdx]
	return nil
}

// --- the calibration surface (core's propagation-state interface) ---

// EvidenceMass returns P(e): the root clique's post-collect mass repaired
// by the product of the blocked edges' elided scalars, folded in fixed
// edge order so the floating-point result is deterministic.
func (st *State) EvidenceMass() float64 {
	m := st.cliqueRO(st.prop.tree.Root).Sum()
	for c := range st.lambda {
		if st.plan.edges[c].collect == edgeBlock {
			m *= st.lambda[c]
		}
	}
	return m
}

// MassScale returns the product of the elided blocked-edge scalars: the
// factor absolute values read from the root-side tables must be multiplied
// by to recover true unnormalized probabilities (max-product MPE values in
// particular). Normalized quantities are invariant to it.
func (st *State) MassScale() float64 {
	m := 1.0
	for c := range st.lambda {
		if st.plan.edges[c].collect == edgeBlock {
			m *= st.lambda[c]
		}
	}
	return m
}

// Marginal materializes the distribute path root→clique(v) on demand and
// returns the normalized posterior of v.
func (st *State) Marginal(v int) (*potential.Potential, error) {
	ci := st.prop.tree.CliqueOf(v)
	if ci < 0 {
		return nil, fmt.Errorf("lazy: no clique contains variable %d", v)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.ensurePathLocked(ci); err != nil {
		return nil, err
	}
	m, err := st.cliqueRO(ci).Marginal([]int{v})
	if err != nil {
		return nil, err
	}
	if err := m.Normalize(); err != nil {
		return nil, fmt.Errorf("lazy: variable %d has zero posterior mass (impossible evidence?): %w", v, err)
	}
	return m, nil
}

// CliquePot materializes the distribute path to clique ci and returns its
// calibrated table (exact up to the per-table scalar of skipped blocked
// messages; see MassScale).
func (st *State) CliquePot(ci int) (*potential.Potential, error) {
	if ci < 0 || ci >= st.prop.tree.N() {
		return nil, fmt.Errorf("lazy: clique %d out of range", ci)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.ensurePathLocked(ci); err != nil {
		return nil, err
	}
	return st.cliqueRO(ci), nil
}

// SepPot returns the stored separator above clique ci after the edge has
// been resolved (materializing the path on demand).
func (st *State) SepPot(ci int) (*potential.Potential, error) {
	if ci < 0 || ci >= st.prop.tree.N() || st.prop.tree.Cliques[ci].Parent < 0 {
		return nil, fmt.Errorf("lazy: no separator above clique %d", ci)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.ensurePathLocked(ci); err != nil {
		return nil, err
	}
	return st.sepRO(ci), nil
}

// Calibrate materializes every runnable distribute message (top-down), so
// whole-tree consumers — calibration checks, MPE extraction, Steiner
// folds — see fully distributed tables.
func (st *State) Calibrate() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	order, err := st.prop.tree.TopoOrder()
	if err != nil {
		return err
	}
	for _, c := range order {
		if st.prop.tree.Cliques[c].Parent < 0 {
			continue
		}
		if err := st.distributeLocked(c); err != nil {
			return err
		}
	}
	return nil
}

// ensurePathLocked resolves the distribute edges from the root down to
// clique ci. distDone is only ever set top-down, so the upward walk may
// stop at the first resolved edge.
func (st *State) ensurePathLocked(ci int) error {
	t := st.prop.tree
	var path []int
	for c := ci; t.Cliques[c].Parent >= 0; c = t.Cliques[c].Parent {
		if st.distDone[c] {
			break
		}
		path = append(path, c)
	}
	for i := len(path) - 1; i >= 0; i-- {
		if err := st.distributeLocked(path[i]); err != nil {
			return err
		}
	}
	return nil
}

// distributeLocked sends (at most once) the distribute message over edge
// (c, parent). Vacuous messages — all evidence inside subtree(c), so the
// parent's separator marginal already equals the stored ψ*S — and blocked
// messages — scalar-only — are skipped; everything else runs the full
// M→D→U chain serially over the overlay tables.
func (st *State) distributeLocked(c int) error {
	if st.distDone[c] {
		return nil
	}
	st.distDone[c] = true
	ep := &st.plan.edges[c]
	switch ep.dist {
	case edgeSkip:
		return nil
	case edgeBlock:
		st.distBlocked.Add(1)
		return nil
	}
	par := st.prop.tree.Cliques[c].Parent
	if st.sepNew[c] == nil {
		st.sepNew[c] = st.cal.sep[c].CloneZero()
		st.materialized.Add(int64(st.sepNew[c].Len()))
	} else {
		clear(st.sepNew[c].Data)
	}
	if st.sep[c] == nil {
		st.sep[c] = st.cal.sep[c].Clone()
		st.materialized.Add(int64(st.sep[c].Len()))
	}
	span := st.plan.hulls[par].span
	if err := st.marginalize(c, par, st.sepNew[c], 0, span); err != nil {
		return err
	}
	st.flops.Add(int64(span))
	if err := st.divideRange(c, 0, len(st.sepNew[c].Data)); err != nil {
		return err
	}
	dst := st.cliqueRW(c)
	if err := st.prop.walks[c].Child.MulRange(dst, st.sepNew[c], 0, dst.Len()); err != nil {
		return err
	}
	st.flops.Add(int64(dst.Len()))
	st.distSent.Add(1)
	st.tasksRun.Add(3)
	return nil
}

// PlanHit reports whether this query's pruned plan came from the plan
// cache rather than being built from scratch.
func (st *State) PlanHit() bool { return st.planHit }

// Stats snapshots the pruning counters. Undemanded distribute messages
// count as skipped: they were never sent.
func (st *State) Stats() Stats {
	sent := st.plan.sent + st.distSent.Load()
	blocked := st.plan.blocked + st.distBlocked.Load()
	run := st.tasksRun.Load()
	return Stats{
		MessagesSent:        sent,
		MessagesBlocked:     blocked,
		MessagesSkipped:     2*int64(st.prop.edges) - sent - blocked,
		TasksRun:            run,
		TasksSkipped:        6*int64(st.prop.edges) - run,
		Flops:               st.flops.Load(),
		FlopsFull:           st.prop.fullFlops,
		MaterializedEntries: st.materialized.Load(),
	}
}
