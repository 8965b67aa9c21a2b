// Package lazy implements zero-aware, evidence-pruned propagation over a
// precalibrated junction tree — the Madsen/Kjærulff observation that most
// of the eager engine's marginalize/divide/extend/multiply work is either
// provably vacuous for a given evidence set or shrinkable to the non-zero
// hull that hard evidence leaves behind.
//
// The engine precalibrates the tree once per semiring (a serial no-evidence
// propagation whose clique and separator tables are then shared, read-only,
// by every query). A query then:
//
//   - marks the *dirty* cliques — those containing an observed variable —
//     and reduces copies of only those tables;
//   - builds (and caches, keyed by the observed-variable set) a pruned
//     collect task graph containing only the edges whose subtree holds a
//     dirty clique: a message from an undisturbed subtree is the identity
//     ratio ψ*S/ψS = 1 and is skipped outright;
//   - *blocks* edges whose separator is fully observed: downstream of such
//     a separator only a scalar survives, so the Multiply task is dropped
//     and the Divide task records the scalar λ instead. The
//     root's mass is repaired as P(e) = Σψroot · Πλ; every stored table is
//     then exact up to one positive per-table scalar, which posterior
//     normalization, calibration checks, Steiner folds and max-product
//     argmax extraction are all invariant to;
//   - restricts each dirty clique's Marginalize task to its evidence hull:
//     with the clique's leading (slowest-varying) variables observed, the
//     non-zero entries form one contiguous block, so the task's range — and
//     the weight that drives δ-partitioning and the machine cost model —
//     shrinks from the table size to the hull span;
//   - runs the distribute pass on demand only: a posterior query
//     materializes messages down the root→clique path, skipping edges whose
//     subtree holds all the evidence (vacuous by calibration) and blocked
//     edges (scalar-only). Barren branches are never touched, never copied.
//
// States satisfy taskgraph.Executor, so every scheduler in internal/sched
// and internal/baseline drives pruned graphs unchanged.
package lazy

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"evprop/internal/jtree"
	"evprop/internal/potential"
	"evprop/internal/taskgraph"
)

// maxPlans bounds the pruned-plan cache. Plans are keyed by the observed
// variable set (not values, except where values pick the evidence hull and
// blocked-separator index — those are part of the key), so serving
// workloads with a stable query mix hit a handful of entries. On overflow
// the whole map is dropped: plans are cheap to rebuild and an LRU here is
// not worth its locking.
const maxPlans = 128

// calibration is one precalibrated (no-evidence, fully propagated) set of
// clique and separator tables, shared read-only by every lazy state.
type calibration struct {
	clique []*potential.Potential
	sep    []*potential.Potential
}

// Prop owns the precalibrated tables and the pruned-plan cache for one
// engine. It is safe for concurrent use.
type Prop struct {
	tree *jtree.Tree
	full *taskgraph.Graph
	// walks are the full graph's compiled kernel walks, per edge: pruned
	// graphs run over the same tree, so every lazy state shares them.
	walks []taskgraph.EdgePlans

	// cal[mode] is built by a serial eager propagation: sum-product eagerly
	// at New (it backs every posterior query), max-product on first use.
	cal     [2]*calibration
	calOnce [2]sync.Once
	calErr  [2]error

	mu    sync.Mutex
	plans map[string]*plan

	// edges is the tree's edge count; fullFlops the per-query table entries
	// an eager two-pass propagation touches — the denominators of the
	// pruning counters in Stats.
	edges     int
	fullFlops int64
}

// New prepares lazy propagation over the tree, precalibrating the
// sum-product tables with one serial no-evidence propagation of the full
// graph. The tree and graph are the engine's own (never mutated here).
func New(tree *jtree.Tree, full *taskgraph.Graph) (*Prop, error) {
	walks, err := full.Plans()
	if err != nil {
		return nil, err
	}
	p := &Prop{tree: tree, full: full, walks: walks, plans: make(map[string]*plan)}
	for i := range tree.Cliques {
		c := &tree.Cliques[i]
		if c.Parent < 0 {
			continue
		}
		p.edges++
		child := int64(c.TableSize())
		parent := int64(tree.Cliques[c.Parent].TableSize())
		sep := int64(c.SepSize())
		p.fullFlops += child + sep + parent // collect M, D, U
		p.fullFlops += parent + sep + child // distribute M, D, U
	}
	if err := p.ensureCal(taskgraph.SumProduct); err != nil {
		return nil, err
	}
	return p, nil
}

// Tree returns the junction tree the engine propagates over.
func (p *Prop) Tree() *jtree.Tree { return p.tree }

// ensureCal builds the precalibrated tables for the semiring once. The
// serial run makes the baseline bit-reproducible: every lazy state derives
// from the same tables in the same order.
func (p *Prop) ensureCal(mode taskgraph.Mode) error {
	p.calOnce[mode].Do(func() {
		st, err := p.full.NewStateMode(mode)
		if err != nil {
			p.calErr[mode] = err
			return
		}
		if err := st.RunSerial(); err != nil {
			p.calErr[mode] = fmt.Errorf("lazy: precalibration: %w", err)
			return
		}
		p.cal[mode] = &calibration{clique: st.Clique, sep: st.Sep}
	})
	return p.calErr[mode]
}

// planFor returns the cached pruned plan for the evidence configuration,
// building it on first sight. hit reports whether the plan came from the
// cache (the distinction tracing surfaces as the plan span's attribute).
func (p *Prop) planFor(ev potential.Evidence, like potential.Likelihood) (_ *plan, hit bool) {
	key := planKey(ev, like)
	p.mu.Lock()
	if pl, ok := p.plans[key]; ok {
		p.mu.Unlock()
		return pl, true
	}
	p.mu.Unlock()
	pl := p.buildPlan(ev, like)
	p.mu.Lock()
	if len(p.plans) >= maxPlans {
		p.plans = make(map[string]*plan)
	}
	p.plans[key] = pl
	p.mu.Unlock()
	return pl, false
}

// planKey canonicalizes an evidence configuration. Hard evidence is keyed
// by (variable, state) — the state selects the hull and the blocked
// separator index — soft evidence by variable only: likelihood values
// scale tables but never change which messages survive.
func planKey(ev potential.Evidence, like potential.Likelihood) string {
	hard := make([]int, 0, len(ev))
	for v := range ev {
		hard = append(hard, v)
	}
	sort.Ints(hard)
	soft := make([]int, 0, len(like))
	for v := range like {
		soft = append(soft, v)
	}
	sort.Ints(soft)
	var b strings.Builder
	for _, v := range hard {
		b.WriteString(strconv.Itoa(v))
		b.WriteByte('=')
		b.WriteString(strconv.Itoa(ev[v]))
		b.WriteByte(',')
	}
	b.WriteByte('|')
	for _, v := range soft {
		b.WriteString(strconv.Itoa(v))
		b.WriteByte(',')
	}
	return b.String()
}
