package evprop

import (
	"context"
	"fmt"
	"sync"

	"evprop/internal/core"
	"evprop/internal/lazy"
	"evprop/internal/obs"
	"evprop/internal/potential"
)

// QueryResult is one completed evidence propagation, the session object of
// the query API: posteriors, the probability of evidence, joint marginals,
// mutual information and the most probable explanation are all derived
// from it without re-propagating. Obtain one from Engine.Propagate, read
// any number of quantities, then Close it to recycle the propagation state
// into the engine's pool:
//
//	res, err := eng.Propagate(evprop.Evidence{"XRay": 1})
//	if err != nil { ... }
//	defer res.Close()
//	pe := res.ProbabilityOfEvidence()
//	lung, err := res.Posterior("Lung")
//
// A QueryResult is safe for concurrent use until Close; every returned
// slice or map is a copy that stays valid afterwards. The one quantity
// that needs extra work is MPE, which lazily runs a single max-product
// propagation on first call and caches it; on a cache hit, so does the first
// joint or mutual information, with a rerun of the sum-product one.
type QueryResult struct {
	eng *Engine
	// iev is the hard evidence by variable id, which Evidence names back.
	iev potential.Evidence
	// rec is the engine's record of the sum-product propagation behind this
	// result — immutable, and shared with the flight recorder's ring.
	rec *obs.QueryRecord

	mu     sync.Mutex
	res    *core.Result
	maxRes *core.Result     // lazy max-product companion for MPE
	maxRec *obs.QueryRecord // and its record
	closed bool
}

// Cached reports whether this result was served from the engine's
// shared-evidence cache — a hit on an earlier identical propagation, or a
// collapse onto another caller's concurrent one — rather than by running
// its own propagation. Always false on engines compiled without CacheSize.
func (r *QueryResult) Cached() bool { return r.rec.Cached }

// Propagate runs one evidence propagation and returns the session result.
// Any number of goroutines may Propagate on the same engine concurrently;
// no external locking is needed.
//
// targets optionally name the variables the caller is going to read; none
// named means every variable. A propagation nobody else will read — any on an
// engine without a cache, the first sight of its evidence on one with — then
// sends root-to-leaf messages only toward those variables' cliques
// (FlightRecord.TasksSkipped). Targets never change a bit of what a read
// returns and never forbid one: a result asked for anything else first finishes
// the propagation, once, as a second recorded run. Unknown: ErrUnknownVariable.
func (e *Engine) Propagate(ev Evidence, targets ...string) (*QueryResult, error) {
	return e.PropagateContext(context.Background(), ev, targets...)
}

// PropagateContext is Propagate with cancellation: a cancelled context
// stops the scheduler run at the next task boundary and returns ctx.Err().
func (e *Engine) PropagateContext(ctx context.Context, ev Evidence, targets ...string) (*QueryResult, error) {
	return e.PropagateSoftContext(ctx, ev, nil, targets...)
}

// PropagateSoft runs one propagation with both hard and soft (likelihood)
// evidence and returns the session result; targets as in Propagate.
func (e *Engine) PropagateSoft(ev Evidence, soft SoftEvidence, targets ...string) (*QueryResult, error) {
	return e.PropagateSoftContext(context.Background(), ev, soft, targets...)
}

// PropagateSoftContext is PropagateSoft with cancellation.
func (e *Engine) PropagateSoftContext(ctx context.Context, ev Evidence, soft SoftEvidence, targets ...string) (*QueryResult, error) {
	if len(targets) == 0 {
		targets = nil // none named: every variable
	}
	return e.propagateSession(ctx, ev, soft, targets)
}

// propagateSession is the one session constructor: nil targets declare
// nothing, empty non-nil ones that no variable will be read (P(e) alone).
func (e *Engine) propagateSession(ctx context.Context, ev Evidence, soft SoftEvidence, targets []string) (*QueryResult, error) {
	if e == nil || e.inner == nil || e.net == nil {
		return nil, ErrUncompiled
	}
	iev, err := e.net.evidence(ev)
	if err != nil {
		return nil, err
	}
	var like potential.Likelihood
	if len(soft) > 0 {
		like, err = e.net.likelihood(soft)
		if err != nil {
			return nil, err
		}
	}
	// The engine keeps no target list, so a short one stays on the stack.
	var ids []int
	var idBuf [16]int
	if targets != nil {
		if ids, err = e.net.appendIDs(idBuf[:0], targets); err != nil {
			return nil, err
		}
	}
	e.syncModelVersion()
	res, rec, err := e.inner.PropagateCachedContext(ctx, iev, like, ids...)
	if err != nil {
		return nil, err
	}
	return &QueryResult{eng: e, iev: iev, rec: rec, res: res}, nil
}

// syncModelVersion purges the result cache when the source network has been
// structurally mutated since the engine last looked: results keyed under the
// old structure must not survive an AddVariable. The purge runs before the
// version counter advances, so every racer on the boundary purges (harmless)
// and the CAS only stops repeats once one of them has published the new
// version.
func (e *Engine) syncModelVersion() {
	v := e.net.inner.Version()
	old := e.modelVersion.Load()
	if v == old {
		return
	}
	e.inner.InvalidateCache()
	e.modelVersion.CompareAndSwap(old, v)
}

// Close recycles the propagation state into the engine's pool. Quantities
// already returned (slices, maps) remain valid; further derivations return
// ErrResultClosed, except ProbabilityOfEvidence, which is cached. Close is
// idempotent and optional — unclosed results are garbage collected, they
// just cost the pool a state.
func (r *QueryResult) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	r.res.Release()
	if r.maxRes != nil {
		r.maxRes.Release()
		r.maxRes = nil
	}
	return nil
}

// ProbabilityOfEvidence returns P(e), the likelihood of the observation
// under the model. It is derived at propagation time, so it works even
// after Close.
func (r *QueryResult) ProbabilityOfEvidence() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.res.ProbabilityOfEvidence()
}

// RunMetrics is the observability report of the propagation behind one
// QueryResult — the paper's Fig. 8 quantities measured on a real run: the
// per-worker Busy and Overhead columns of its bars, their LoadBalance and
// OverheadFraction summaries, and KindBusy, the computation time of each
// node-level primitive (labelled by KindNames).
type RunMetrics = obs.Report

// Metrics returns the run report of the propagation that produced this
// result, or nil for results served from the cache (nothing ran for them).
// It stays available after Close. The report is the engine's record itself,
// shared with the flight recorder: read it, never modify it.
func (r *QueryResult) Metrics() *RunMetrics { return r.rec.Report }

// Records returns the engine's record of every propagation behind this
// result: the sum-product pass, the run that completed it if a read went
// beyond the declared targets (Propagate) or read a joint from a cache hit,
// then the max-product pass once MPE has run one. They are the entries the
// flight recorder holds for this query (RecentQueries), and exist whether or
// not a recorder is attached. It stays available after Close.
func (r *QueryResult) Records() []FlightRecord {
	var out []FlightRecord
	for _, rec := range r.records() {
		if rec != nil {
			out = append(out, publicRecord(rec))
		}
	}
	return out
}

// records are the engine's records behind the result, nil where none is.
func (r *QueryResult) records() [3]*obs.QueryRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	return [...]*obs.QueryRecord{r.rec, r.res.Completion(), r.maxRec}
}

// RunSummary is what one of a result's records says about the run behind
// it: the fields of its FlightRecord that a server sums per request.
type RunSummary struct {
	// Cached, Executor, Entries, GraphEntries, LoadBalance and
	// SchedOverheadFrac are the FlightRecord fields of the same names.
	Cached                         bool
	Executor                       string
	Entries, GraphEntries          int64
	LoadBalance, SchedOverheadFrac float64
}

// Runs copies into dst the summary of each record Records returns, in the
// same order, and returns how many it copied: at most len(dst), and a result
// has at most three records. It builds no FlightRecord, so it costs no
// allocation.
func (r *QueryResult) Runs(dst []RunSummary) int {
	n := 0
	for _, rec := range r.records() {
		if rec == nil || n == len(dst) {
			continue
		}
		dst[n] = RunSummary{Cached: rec.Cached, Entries: rec.Entries, GraphEntries: rec.GraphEntries}
		if rep := rec.Report; rep != nil {
			dst[n].Executor = rep.Executor
			dst[n].LoadBalance = rep.LoadBalance
			dst[n].SchedOverheadFrac = rep.OverheadFraction
		}
		n++
	}
	return n
}

// Evidence returns a copy of the evidence this result conditions on.
func (r *QueryResult) Evidence() Evidence {
	out := make(Evidence, len(r.iev))
	for id, state := range r.iev {
		out[r.eng.net.inner.Name(id)] = state
	}
	return out
}

// Posterior returns the posterior distribution P(name | evidence).
func (r *QueryResult) Posterior(name string) ([]float64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.posteriorLocked(name)
}

func (r *QueryResult) posteriorLocked(name string) ([]float64, error) {
	return r.readPosteriorLocked(name, false)
}

// readPosteriorLocked checks that name's posterior is defined and reads it,
// shared with the result's other readers or copied.
func (r *QueryResult) readPosteriorLocked(name string, shared bool) ([]float64, error) {
	if r.closed {
		return nil, ErrResultClosed
	}
	id := r.eng.net.inner.ID(name)
	if id < 0 {
		return nil, fmt.Errorf("%w: %q", ErrUnknownVariable, name)
	}
	if r.res.ProbabilityOfEvidence() <= 0 {
		return nil, fmt.Errorf("%w: posterior of %q undefined", ErrZeroProbabilityEvidence, name)
	}
	var m []float64
	var err error
	if shared {
		m, err = r.res.SharedMarginal(id)
	} else {
		m, err = r.res.Marginal(id)
	}
	if err != nil {
		return nil, fmt.Errorf("evprop: %q: %w", name, err)
	}
	return m, nil
}

// Posteriors returns the posterior of each named variable; with no names it
// returns the posterior of every non-evidence variable.
func (r *QueryResult) Posteriors(names ...string) (map[string][]float64, error) {
	return r.posteriors(names, false)
}

// SharedPosteriors is Posteriors without the copies: on a result served from
// the engine's cache each slice is the cache entry's, which every reader of
// that evidence shares, so the caller must not modify it. The slices stay
// valid after Close.
func (r *QueryResult) SharedPosteriors(names ...string) (map[string][]float64, error) {
	return r.posteriors(names, true)
}

func (r *QueryResult) posteriors(names []string, shared bool) (map[string][]float64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(names) == 0 {
		all := r.eng.net.Variables()
		names = all[:0]
		for _, name := range all {
			if _, fixed := r.iev[r.eng.net.inner.ID(name)]; !fixed {
				names = append(names, name)
			}
		}
	}
	out := make(map[string][]float64, len(names))
	for _, name := range names {
		p, err := r.readPosteriorLocked(name, shared)
		if err != nil {
			return nil, err
		}
		out[name] = p
	}
	return out, nil
}

// Joint computes the posterior over an arbitrary set of variables, even
// when they do not share a clique (the minimal subtree of calibrated
// cliques spanning them is folded). Cost grows exponentially with the
// number of requested variables.
func (r *QueryResult) Joint(vars ...string) (*Joint, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, err := r.jointAnyLocked(vars)
	if err != nil {
		return nil, err
	}
	out := &Joint{
		Card: append([]int(nil), m.Card...),
		P:    append([]float64(nil), m.Data...),
	}
	for _, id := range m.Vars {
		out.Vars = append(out.Vars, r.eng.net.inner.Name(id))
	}
	return out, nil
}

func (r *QueryResult) jointAnyLocked(vars []string) (*potential.Potential, error) {
	if r.closed {
		return nil, ErrResultClosed
	}
	ids, err := r.eng.net.names(vars)
	if err != nil {
		return nil, err
	}
	if r.res.ProbabilityOfEvidence() <= 0 {
		return nil, fmt.Errorf("%w: joint over %v undefined", ErrZeroProbabilityEvidence, vars)
	}
	// A cached result keeps answers only: the first joint swaps it for a run
	// of this result's own, which Close releases and Records lists second.
	tab, err := r.res.Tables(r.rec)
	if err != nil {
		return nil, err
	}
	r.res = tab
	return r.res.JointMarginalAny(ids)
}

// MutualInformation returns I(x; y | evidence) in bits, derived from this
// propagation without re-propagating.
func (r *QueryResult) MutualInformation(x, y string) (float64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	xid := r.eng.net.inner.ID(x)
	yid := r.eng.net.inner.ID(y)
	if xid < 0 {
		return 0, fmt.Errorf("%w: %q", ErrUnknownVariable, x)
	}
	if yid < 0 {
		return 0, fmt.Errorf("%w: %q", ErrUnknownVariable, y)
	}
	if xid == yid {
		return 0, fmt.Errorf("evprop: mutual information of %q with itself", x)
	}
	joint, err := r.jointAnyLocked([]string{x, y})
	if err != nil {
		return 0, err
	}
	return joint.MutualInformation()
}

// MPE returns the jointly most probable assignment of all variables given
// the evidence and its conditional probability P(assignment | evidence).
// The first call runs one max-product propagation (the only derivation
// that needs a different semiring) and caches it; repeated calls are free.
func (r *QueryResult) MPE() (map[string]int, float64, error) {
	return r.MPEContext(context.Background())
}

// MPEContext is MPE with the max-product propagation run under ctx: it
// stops at the context's cancellation or deadline, is recorded under the
// context's query ID, and opens its spans under the context's trace.
func (r *QueryResult) MPEContext(ctx context.Context) (map[string]int, float64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, 0, ErrResultClosed
	}
	pe := r.res.ProbabilityOfEvidence()
	if pe <= 0 {
		return nil, 0, fmt.Errorf("%w: no explanation exists", ErrZeroProbabilityEvidence)
	}
	if r.maxRes == nil {
		mr, rec, err := r.eng.inner.PropagateMaxCachedContext(ctx, r.iev)
		if err != nil {
			return nil, 0, err
		}
		r.maxRes, r.maxRec = mr, rec
	}
	assignment, joint, err := r.maxRes.MostProbableExplanation()
	if err != nil {
		return nil, 0, err
	}
	named := make(map[string]int, len(assignment))
	for id, state := range assignment {
		named[r.eng.net.inner.Name(id)] = state
	}
	return named, joint / pe, nil
}

// PropagationStats reports how much work the lazy engine pruned for one
// query, measured against what an eager two-pass propagation over the same
// tree would do.
type PropagationStats = lazy.Stats

// PropagationStats returns the lazy engine's pruning counters for this
// result. The counters are live: posterior reads materialize deferred
// root-to-leaf messages and advance them. They are all zero, and ok false,
// on eager engines and after Close.
func (r *QueryResult) PropagationStats() (PropagationStats, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return PropagationStats{}, false
	}
	return r.res.LazyStats()
}
