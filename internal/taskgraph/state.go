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
// start as the tree's potentials restricted to the evidence, are calibrated by
// the run, and live for as long as anything reads the result.
//
// Absorbing evidence writes only what the evidence changes. A clique it
// slices is gathered into the state's table (below); one it leaves whole is
// only sized, and its first writer — the head of its collect-Multiply chain,
// or a leaf's distribute Multiply — reads the tree's table and writes the
// state's (potential.Plan.MulRangeFrom: the bits of copying and multiplying in
// place), as a leaf's collect Marginalize reads the tree's. So a clique's table
// holds its value once its first writer has run; a leaf a mask skips is written
// by Resume. A separator is only sized: every one starts at one, the collect
// Marginalize reduces into it and its Divide has nothing to compute. No task
// writes a tree table.
//
// The run scratch — the per-edge message buffers, the partial-buffer free
// lists and the kernel plans of this run's table shapes — is written and read
// only by the tasks of one scheduler run; no accessor below ever looks at it.
// It comes from a pool on the Graph (the constructors, Reset and
// AbsorbEvidence attach one) and goes back the moment a run has succeeded
// (ReleaseScratch), so holding a result holds its tables and nothing else, and
// concurrent propagations over one graph share as many scratches as there are
// runs in flight, not as there are results alive.
//
// Hard evidence slices the state. A variable observed in one state is a
// dimension with one state: it keeps its place in every table's Vars, its
// Card becomes 1, and the table holds only the entries of the observed state,
// in their original order (potential.Observed.Gather) — r^(w−k) entries for a
// clique of w variables, k of them observed, where zeroing the others in place
// would leave r^w for every task to stream over. The kernels never see the
// difference (potential.NewPlan drops single-state dimensions), and because a
// sliced table lists the entries a zeroed one would have left standing, in the
// same order, every sum and maximum meets the same terms in the same order
// minus additions of +0.0: posteriors, P(e) and the MPE are the same bits.
// Readers get the full domain back through Marginal and Lift.
//
// Two tasks may touch the same buffer only if the dependency graph orders
// them, so a State may be driven by any number of worker goroutines that
// respect the graph.
type State struct {
	g    *Graph
	mode Mode
	// Clique[i] is the working potential of clique i, over the sliced domain,
	// once its first writer has run.
	Clique []*potential.Potential
	// Sep[c] is the stored separator potential ψS of the edge (c, parent),
	// once the collect message over the edge has been marginalized.
	Sep []*potential.Potential
	// unwritten[i] says that absorb left Clique[i] unwritten for its first
	// writer to fill from the tree's table.
	unwritten []bool
	// run is the attached run scratch, nil from ReleaseScratch to the next
	// Reset or AbsorbEvidence.
	run *scratch

	// obs is the hard evidence the tables are sliced on, empty at the full
	// domain; sliced says that some table shrank under it.
	obs    potential.Observed
	sliced bool
	// weight is the sum over the graph's tasks of the table each ranges over,
	// at this slicing (Graph.TotalWeight at the full domain), liveWeight over the live ones.
	weight, liveWeight float64

	// live is the run's task mask (Target): nil when every task runs, else
	// mask, one entry per task, skipped of them false; reach then says per
	// clique whether a distribute message arrives. Recycled with the state.
	live, mask, reach []bool
	skipped           int
}

// scratch is the run-lifetime half of a State. Nothing in it carries over
// from one run to the next — a Marginalize, whole or piece, clears the buffer
// it reduces into before accumulating, and priming a state re-derives the
// views below — so a scratch serves any state of its graph, in either
// semiring and under any evidence, without being cleared. Every buffer is
// allocated at its separator's full size and resliced to the run's.
type scratch struct {
	// sepNew[c] receives the distribute message's freshly marginalized ψ*S,
	// then holds the ratio ψ*S/ψS after the Divide step, which Multiply reads.
	sepNew []*potential.Potential
	// plans[c] are the kernel walks of edge c for this run's table shapes: the
	// graph's own where the clique holds no observed variable, otherwise
	// compiled into own — two per edge, child side then parent side, whose
	// storage is reused from run to run.
	plans []EdgePlans
	own   []potential.Plan
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
		plans:   make([]EdgePlans, t.N()),
		own:     make([]potential.Plan, 2*t.N()),
		bufFree: make([][]*potential.Potential, t.N()),
	}
	for i := range t.Cliques {
		c := &t.Cliques[i]
		if c.Parent < 0 {
			continue
		}
		sc.sepNew[i] = &potential.Potential{Vars: c.SepVars, Data: make([]float64, c.SepSize())}
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
// the graph's tree, which must be materialized (clique potentials non-nil).
// The tree itself is left untouched.
func (g *Graph) NewState() (*State, error) { return g.NewStateMode(SumProduct) }

// NewStateMode is NewState with an explicit semiring. The result tables are
// allocated, at the full domain; the run scratch comes from the graph's pool.
func (g *Graph) NewStateMode(mode Mode) (*State, error) {
	st, err := g.newState(mode)
	if err != nil {
		return nil, err
	}
	return st, st.prime()
}

// NewStateEvidence is NewStateMode followed by AbsorbEvidence, with the
// tables allocated at their sliced size: what a state that will be kept as a
// result — and so never recycled — should cost. As after AbsorbEvidence, a
// clique's table holds its value once its first writer has run (see State).
func (g *Graph) NewStateEvidence(mode Mode, ev potential.Evidence) (*State, error) {
	st, err := g.newState(mode)
	if err != nil {
		return nil, err
	}
	if err := st.AbsorbEvidence(ev); err != nil {
		return nil, err
	}
	return st, nil
}

// newState builds a state whose tables have their domains and no entries
// yet; prime allocates and fills them.
func (g *Graph) newState(mode Mode) (*State, error) {
	t := g.Tree
	// Compiled here so that priming can read g.plans and g.varCard unchecked.
	if _, err := g.Plans(); err != nil {
		return nil, err
	}
	width := 0
	for i := range t.Cliques {
		c := &t.Cliques[i]
		if c.Pot == nil {
			return nil, fmt.Errorf("taskgraph: clique %d not materialized", i)
		}
		width += len(c.Vars) + len(c.SepVars)
	}
	st := &State{
		g:         g,
		mode:      mode,
		Clique:    make([]*potential.Potential, t.N()),
		Sep:       make([]*potential.Potential, t.N()),
		unwritten: make([]bool, t.N()),
	}
	// One array of tables and one of cardinalities for the whole state. Vars
	// are the tree's own slices: no table of a state ever changes its
	// variables, only — under evidence — their cardinalities.
	tabs := make([]potential.Potential, 2*t.N())
	cards := make([]int, width)
	for i := range t.Cliques {
		c := &t.Cliques[i]
		st.Clique[i] = &tabs[2*i]
		*st.Clique[i] = potential.Potential{Vars: c.Vars, Card: cards[:len(c.Vars):len(c.Vars)]}
		cards = cards[len(c.Vars):]
		if c.Parent < 0 {
			continue
		}
		st.Sep[i] = &tabs[2*i+1]
		*st.Sep[i] = potential.Potential{Vars: c.SepVars, Card: cards[:len(c.SepVars):len(c.SepVars)]}
		cards = cards[len(c.SepVars):]
	}
	return st, nil
}

// Reset re-primes a previously executed state for a fresh propagation with
// the given semiring, at the full domain: it sizes the existing tables at the
// tree's — without allocating, unless the state was born sliced
// (NewStateEvidence) and a table has to grow — writing none of them (a
// clique's table holds its value once its first writer has run, see State),
// and attaches a run scratch from the graph's pool when the last run's was
// released. Reset plus reuse is the pooling layer that makes steady-state
// propagation near-allocation-free.
func (st *State) Reset(mode Mode) {
	st.mode = mode
	st.obs = st.obs[:0]
	_ = st.prime() // nothing is sliced, so no plan is compiled and nothing can fail
}

// prime makes the tables the tree's potentials restricted to st.obs — a
// clique the evidence slices gathered, one it leaves whole left for its first
// writer, a separator sized — drops the last run's mask and attaches a scratch
// for the shapes those tables have.
func (st *State) prime() error {
	t := st.g.Tree
	st.sliced = false
	for i := range t.Cliques {
		c := &t.Cliques[i]
		p := st.Clique[i]
		whole := st.size(p, c.Vars, c.Card) == c.Pot.Len()
		st.unwritten[i] = whole && len(st.g.prior) > 0 // a lone clique has no task to write it
		switch {
		case !whole:
			st.obs.Gather(p.Data, c.Pot.Data, c.Vars, c.Card)
			st.sliced = true
		case !st.unwritten[i]:
			copy(p.Data, c.Pot.Data)
		}
		if c.Parent >= 0 {
			st.size(st.Sep[i], c.SepVars, c.SepCard)
		}
	}
	err := st.attach()
	st.Target(nil)
	return err
}

// attach gives the state a run scratch (its own still, or one from the graph's
// pool) for the shapes its tables have now — message buffers resliced, plans
// recompiled where evidence sliced a clique: they depend on which variables are
// observed, never on their states — and prices the whole graph at those shapes.
func (st *State) attach() error {
	g, t := st.g, st.g.Tree
	if st.run == nil {
		st.run = g.getScratch()
	}
	sc := st.run
	copy(sc.plans, g.plans)
	entries := 0
	for i := range t.Cliques {
		c := &t.Cliques[i]
		if c.Parent < 0 {
			continue
		}
		ch, pa, sep := st.Clique[i], st.Clique[c.Parent], st.Sep[i]
		entries += ch.Len() + pa.Len() + sep.Len()
		// A message has its separator's domain; the cardinalities are shared,
		// which keeps Combine's domain check meaningful.
		b := sc.sepNew[i]
		b.Card, b.Data = sep.Card, b.Data[:sep.Len()]
		var err error
		if ch.Len() != c.Pot.Len() {
			sc.plans[i].Child = &sc.own[2*i]
			err = sc.plans[i].Child.Recompile(ch.Vars, ch.Card, sep.Vars, sep.Card)
		}
		if pa.Len() != t.Cliques[c.Parent].Pot.Len() && err == nil {
			sc.plans[i].Parent = &sc.own[2*i+1]
			err = sc.plans[i].Parent.Recompile(pa.Vars, pa.Card, sep.Vars, sep.Card)
		}
		if err != nil {
			return fmt.Errorf("taskgraph: edge (%d, %d): %w", i, c.Parent, err)
		}
	}
	// Both passes range over the same three tables of every edge.
	st.weight = float64(2 * entries)
	return nil
}

// size gives dst the shape of the domain (vars, card) restricted to st.obs,
// growing it when it has never held that many entries, and returns its length.
func (st *State) size(dst *potential.Potential, vars, card []int) int {
	n := st.obs.SliceCard(dst.Card, vars, card)
	if cap(dst.Data) < n {
		dst.Data = make([]float64, n)
	}
	dst.Data = dst.Data[:n]
	return n
}

// table returns the table task id reads of clique ci: the tree's when absorb
// left the state's unwritten and id is one of the tasks Graph.prior marks,
// else the state's.
func (st *State) table(id, ci int) *potential.Potential {
	if st.unwritten[ci] && st.g.prior[id] {
		return st.g.Tree.Cliques[ci].Pot
	}
	return st.Clique[ci]
}

// own makes clique ci's table hold its prior before something other than a
// task writes it, copying the tree's into it if absorb left it unwritten.
func (st *State) own(ci int) *potential.Potential {
	if st.unwritten[ci] {
		copy(st.Clique[ci].Data, st.g.Tree.Cliques[ci].Pot.Data)
		st.unwritten[ci] = false
	}
	return st.Clique[ci]
}

// message returns the table a task's message lands in: a collect message in
// the edge's separator — ψS is one, so the message is its own ratio — and a
// distribute message in the scratch, for its Divide to read against ψS.
func (st *State) message(t *Task) *potential.Potential {
	if t.Dir == Collect {
		return st.Sep[t.Edge]
	}
	return st.run.sepNew[t.Edge]
}

// ReleaseScratch hands the state's run scratch back to its graph's pool,
// leaving the result tables for readers. Call it once the scheduler run over
// this state has returned without error, and only then: workers of a failed
// or cancelled pool run may still be writing the scratch, so such a state
// keeps it and both go to the garbage collector together. Until the next
// Reset or AbsorbEvidence the execution methods return ErrScratchReleased;
// every accessor works as before. Releasing twice is a no-op.
func (st *State) ReleaseScratch() {
	if st.run == nil {
		return
	}
	st.g.scratchPool.Put(st.run)
	st.run = nil
}

// RetainedEntries counts the table entries reachable from the state, at their
// allocated capacity: the clique and separator tables, plus the run scratch
// (free lists included) while one is attached. After ReleaseScratch it is what
// holding the result costs — the sliced clique plus separator entries for a
// state born sliced, the tree's for one that has ever been at the full domain.
func (st *State) RetainedEntries() int {
	n := 0
	count := func(ps []*potential.Potential) {
		for _, p := range ps {
			if p != nil {
				n += cap(p.Data)
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

// AbsorbEvidence restricts the state to the hard evidence: every table becomes
// the tree's potential sliced on the observed states (see State), whatever it
// held before, and the run gets kernel plans for the shapes that changed —
// plans depend on which variables are observed, never on their states. It
// therefore comes first, before AbsorbLikelihood, and needs no Reset before it
// on a state whose semiring stays the same; like Reset it attaches a run
// scratch when the last one was released. Variables the tree does not mention
// are ignored; an observed state outside its variable's cardinality is an
// error and leaves the state as it was.
func (st *State) AbsorbEvidence(ev potential.Evidence) error {
	obs, err := ev.Dense(st.g.varCard, st.obs)
	if err != nil {
		return fmt.Errorf("taskgraph: %w", err)
	}
	st.obs = obs
	return st.prime()
}

// Observed returns the hard evidence the state is sliced on, in dense form;
// it is empty at the full domain. The vector belongs to the state and is
// valid until the next Reset or AbsorbEvidence.
func (st *State) Observed() potential.Observed { return st.obs }

// Weight returns the run's total work in table entries: the sum over the
// tasks the mask leaves standing of the table each ranges over at this
// slicing. With no mask at the full domain it is Graph.TotalWeight.
func (st *State) Weight() float64 { return st.liveWeight }

// GraphWeight is Weight with the mask lifted, a function of the evidence
// alone: what the partition verdict is asked about, so that a targeted run
// cuts the tasks the full run of the same evidence cuts.
func (st *State) GraphWeight() float64 { return st.weight }

// Target masks the next run down to what reading the given variables needs:
// the collect pass and the distribute messages on the paths from the root to
// the clique each is read from (jtree.Tree.CliqueOf). What follows a skipped
// message is skipped with it, so no live task waits on a masked one, and
// distributing to a sibling never writes the parent, so every clique reached
// and the root's mass after collect hold the full run's bits. nil lifts the
// mask, as the next Reset or AbsorbEvidence does; an empty list leaves the
// collect pass alone; ids the tree lacks are ignored.
func (st *State) Target(vars []int) {
	st.live, st.skipped, st.liveWeight = nil, 0, st.weight
	if vars == nil {
		return
	}
	t, tasks := st.g.Tree, st.g.Tasks
	if st.mask == nil {
		st.mask, st.reach = make([]bool, len(tasks)), make([]bool, t.N())
	}
	clear(st.reach)
	for _, v := range vars {
		for c := t.CliqueOf(v); c >= 0 && !st.reach[c]; c = t.Cliques[c].Parent {
			st.reach[c] = true
		}
	}
	for id := range tasks {
		tk := &tasks[id]
		st.mask[id] = tk.Dir == Collect || st.reach[tk.Edge]
		if !st.mask[id] {
			st.skipped++
			st.liveWeight -= float64(st.PartitionSize(id))
		}
	}
	if st.skipped > 0 {
		st.live = st.mask
	}
}

// Live returns the run's task mask for the scheduler (sched.Options.Live).
func (st *State) Live() []bool { return st.live }

// Skipped returns how many of the graph's tasks the mask leaves out.
func (st *State) Skipped() int { return st.skipped }

// Reached reports whether clique ci holds its calibrated potential after the
// run: always unmasked, else the root and the cliques on the targets' paths.
func (st *State) Reached(ci int) bool {
	return st.live == nil || ci == st.g.Tree.Root || st.reach[ci]
}

// Resume turns a state whose targeted run has succeeded into the run of what
// it skipped: the mask becomes its complement and a scratch is attached for
// the tables as they stand, nothing re-sliced. The remainder's predecessors
// ran already — a pool's dependency counters would wait for them — so one
// goroutine executes it (RunSerial, sched.RunInline); Target(nil) then lifts
// the mask over a fully calibrated state. A state without a mask is left alone.
func (st *State) Resume() error {
	if st.live == nil {
		return nil
	}
	for id := range st.live {
		st.live[id] = !st.live[id]
	}
	st.skipped = len(st.live) - st.skipped
	st.liveWeight = st.weight - st.liveWeight
	return st.attach()
}

// Lift returns p — a table derived from the state's, so with cardinality 1
// for every observed variable — over the full domain: the entries of p at the
// observed states, zero elsewhere. It returns p itself when none of its
// variables is observed.
func (st *State) Lift(p *potential.Potential) *potential.Potential {
	lifted := false
	for _, v := range p.Vars {
		lifted = lifted || (st.obs.State(v) != potential.Free && st.g.varCard[v] != 1)
	}
	if !lifted {
		return p
	}
	card := append([]int(nil), p.Card...)
	for i, v := range p.Vars {
		if st.obs.State(v) != potential.Free {
			card[i] = st.g.varCard[v]
		}
	}
	full := &potential.Potential{Vars: p.Vars, Card: card, Data: make([]float64, potential.Size(card))}
	st.obs.Scatter(full.Data, p.Data, full.Vars, full.Card)
	return full
}

// AbsorbLikelihood multiplies soft (virtual) evidence into the state: each
// variable's weight vector is applied to exactly one clique containing it
// (applying it more than once would square the weights), whose prior is copied
// in first if absorb left it unwritten. Of the weights of a variable that is
// also observed, the observed state's is the one that counts.
func (st *State) AbsorbLikelihood(like potential.Likelihood) error {
	for v := range like {
		ci := st.g.Tree.CliqueOf(v)
		if ci < 0 {
			return fmt.Errorf("taskgraph: likelihood on unknown variable %d", v)
		}
		if s := st.obs.State(v); s != potential.Free {
			// The clique has one state of v left: the vector is one factor.
			w, err := like.ObservedWeight(v, st.g.varCard[v], s)
			if err != nil {
				return fmt.Errorf("taskgraph: clique %d: %w", ci, err)
			}
			st.own(ci).Scale(w)
			continue
		}
		if err := st.own(ci).ApplyLikelihood(like, v); err != nil {
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
// on the same edge are reused before allocating — they outlive the run with
// the scratch, so each is allocated at the separator's full size and handed
// out resliced to this run's; the method is safe for concurrent use by workers
// partitioning different tasks.
func (st *State) NewPartialBuffer(id int) *potential.Potential {
	t := &st.g.Tasks[id]
	if t.Kind != Marginalize {
		return nil
	}
	sep := st.Sep[t.Edge]
	var b *potential.Potential
	if sc := st.run; sc != nil {
		sc.bufMu.Lock()
		if free := sc.bufFree[t.Edge]; len(free) > 0 {
			b = free[len(free)-1]
			free[len(free)-1] = nil
			sc.bufFree[t.Edge] = free[:len(free)-1]
		}
		sc.bufMu.Unlock()
	}
	if b == nil {
		b = &potential.Potential{Vars: sep.Vars, Data: make([]float64, st.g.Tree.Cliques[t.Edge].SepSize())}
	}
	b.Card, b.Data = sep.Card, b.Data[:sep.Len()]
	return b
}

// ExecutePiece runs the [lo,hi) slice of the task. A Marginalize piece
// replaces the contents of buf with its partial result: it clears buf, then
// reduces its slice of the source clique into it. A nil buf stands for the
// task's own destination — the edge's separator for a collect message, its
// sepNew buffer for a distribute one — which is how a whole task, and the
// first piece of a partitioned one, write it directly. Other kinds ignore buf;
// a collect Divide computes nothing (see the package comment). An Extend task
// (none is built) is refused.
func (st *State) ExecutePiece(id, lo, hi int, buf *potential.Potential) error {
	sc := st.run
	if sc == nil {
		return ErrScratchReleased
	}
	t := &st.g.Tasks[id]
	switch t.Kind {
	case Marginalize:
		if buf == nil {
			buf = st.message(t)
		}
		clear(buf.Data)
		pl, src := sc.plans[t.Edge].Of(t.Source, t.Edge), st.table(id, t.Source)
		if st.mode == MaxProduct {
			return pl.MaxMarginalInto(src, buf, lo, hi)
		}
		return pl.MarginalInto(src, buf, lo, hi)
	case Divide:
		if t.Dir == Collect {
			return nil
		}
		return divideRange(sc.sepNew[t.Edge].Data, st.Sep[t.Edge].Data, lo, hi)
	case Multiply:
		pl := sc.plans[t.Edge].Of(t.Target, t.Edge)
		return pl.MulRangeFrom(st.Clique[t.Target], st.table(id, t.Target), st.message(t), lo, hi)
	case Extend:
		return fmt.Errorf("taskgraph: task %d: extension is part of Multiply and has no task of its own", id)
	}
	return fmt.Errorf("taskgraph: unknown kind %v", t.Kind)
}

// Combine finishes a partitioned Marginalize: the first piece reduced straight
// into the task's destination, and Combine adds the private buffers of the
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
	dst := st.message(t)
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

// RunSerial executes every live task in topological order on this state. It is
// the reference executor; all parallel schedulers must produce bitwise the
// same clique potentials (up to floating-point associativity in partitioned
// marginalizations).
func (st *State) RunSerial() error {
	order, err := st.g.TopoOrder()
	if err != nil {
		return err
	}
	for _, id := range order {
		if st.live != nil && !st.live[id] {
			continue
		}
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
// leaves every clique and separator calibrated already (Resume for a masked one).
func (st *State) Calibrate() error { return nil }

// Marginal extracts the normalized posterior of variable v from the state
// after propagation, by marginalizing a clique that contains v. The posterior
// of an observed variable is the indicator of its observed state.
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
	return st.Lift(m), nil
}
