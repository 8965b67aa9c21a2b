// Package core ties the reproduction together: it is the evidence
// propagation engine that takes a junction tree, optionally reroots it with
// Algorithm 1 to minimize the critical path, builds the task dependency
// graph, absorbs evidence, runs one of the schedulers, and exposes
// posterior queries.
//
// An Engine is safe for fully concurrent use: any number of goroutines may
// call Propagate (and friends) on one compiled engine with no external
// locking. Everything structure-dependent — the junction tree, the task
// graph — is built once and read concurrently; the workers are the process's
// (sched.ProcessPool), borrowed; everything propagation-dependent lives in a
// per-run taskgraph.State, whose two halves are recycled separately so
// steady-state propagation does near-zero allocation: the result tables through the
// engine's state pools when a Result is released, the run scratch (message
// buffers and the run's kernel plans) through its task graph's pool the
// moment the run has succeeded — and only then, since stragglers of a failed
// or cancelled pool run may still write it.
//
// Hard evidence slices the state (taskgraph.State): an observed variable is a
// dimension with one state, so a query's tables, its arithmetic and what its
// Result keeps alive all follow its evidence — Π(unobserved cardinalities)
// entries per table, 8 bytes each, and no scratch — and the Result's accessors
// hand the full domain back.
package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"evprop/internal/cache"
	"evprop/internal/jtree"
	"evprop/internal/lazy"
	"evprop/internal/obs"
	otrace "evprop/internal/obs/trace"
	"evprop/internal/potential"
	"evprop/internal/sched"
	"evprop/internal/taskgraph"
)

// Scheduler selects the execution strategy for one propagation.
type Scheduler int

const (
	// Collaborative is the paper's contribution (Section 6).
	Collaborative Scheduler = iota
	// Serial executes every graph on the calling goroutine (sched.RunInline),
	// whatever its granularity: it changes where a run executes, never its
	// bits, as it cuts what the pool would cut at the engine's Workers.
	Serial
)

var schedulerNames = map[Scheduler]string{
	Collaborative: "collaborative",
	Serial:        "serial",
}

func (s Scheduler) String() string {
	if n, ok := schedulerNames[s]; ok {
		return n
	}
	return fmt.Sprintf("scheduler(%d)", int(s))
}

// ParseScheduler resolves a scheduler name used by the CLI tools.
func ParseScheduler(name string) (Scheduler, error) {
	for s, n := range schedulerNames {
		if n == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("core: unknown scheduler %q", name)
}

// Options configures an Engine.
type Options struct {
	// Workers is P, the size of the process's worker pool the engine borrows
	// (sched.ProcessPool): every engine compiled at one P shares the same P
	// goroutines. 0 selects GOMAXPROCS. A run whose mean task is cheaper than
	// one dispatch at its share of them — P divided by the runs in flight on
	// that pool, itself included (sched.Pool.EnterRun) — runs on the calling
	// goroutine instead (sched.InlineWeight); with one worker that is every
	// run, and under enough load too.
	Workers int
	// Scheduler selects the execution strategy (default Collaborative).
	Scheduler Scheduler
	// Reroot applies Algorithm 1 before building the task graph,
	// minimizing the propagation critical path (default off).
	Reroot bool
	// PartitionThreshold is δ (sched.Options.Threshold): 0 disables
	// partitioning; sched.ThresholdAuto leaves the decision to sched.Split,
	// per task graph at this engine's P. Reroot and it are seams: the public
	// Compile sets Reroot and ThresholdAuto, and no public option, flag or
	// environment variable reaches either.
	PartitionThreshold int
	// CacheSize, when positive, enables the shared-evidence result cache:
	// an LRU of this many completed propagation results keyed by the
	// canonical evidence signature, fronted by a singleflight group that
	// collapses concurrent identical queries into one propagation. A result
	// is admitted the second time its signature is seen; the first sight
	// runs as it would without a cache. See Propagate.
	CacheSize int
	// Recorder, when set, receives the record of every propagation (the
	// flight recorder): each run's query ID, latency and Fig. 8 report land
	// in the recorder's ring.
	Recorder *obs.FlightRecorder
	// PprofLabels tags scheduler workers with pprof goroutine labels
	// (query_id, task_kind) during each run. Off by default — the labels
	// are observable only through the pprof endpoints, and applying them
	// per item costs a few percent of propagation throughput, so callers
	// enable this only when those endpoints are exposed.
	PprofLabels bool
	// Lazy switches the engine to zero-aware lazy propagation (package
	// lazy): the tree is precalibrated once, each query runs a pruned
	// collect graph restricted to the cliques its evidence disturbs, and
	// the distribute pass is materialized on demand per posterior query.
	// Results are identical up to floating-point tolerance; flop, task and
	// message counters (Result.LazyStats, QueryRecord.LazyStats) expose the
	// pruning.
	Lazy bool
	// ForceDispatch sends every run of a collaborative engine to the
	// workers, whatever sched.Inline says of its graph. It is a test seam:
	// the differential oracle's networks are small enough to enumerate and
	// so all fall under the rule, and this keeps the worker pool covered on
	// them. No public option, flag or environment variable reaches it.
	ForceDispatch bool
}

// ErrReleased is returned by Result methods after Release recycled the
// result's propagation state, and by a cached result's table-level reads: its
// state went back to the pool once its answers were read (Result.Tables).
var ErrReleased = fmt.Errorf("core: result released")

// Engine owns a prepared junction tree and its task dependency graph, and
// runs any number of independent propagations over it, concurrently if the
// caller wishes.
type Engine struct {
	opts  Options
	tree  *jtree.Tree
	graph *taskgraph.Graph
	// offsets[v] is where variable v's posterior starts in a cache entry's
	// answers, offsets[v+1] where it ends (an id the tree lacks spans none).
	offsets []int
	// RerootedFrom records the original root when Reroot moved it (-1
	// otherwise).
	RerootedFrom int
	// RerootTime is how long root selection and rerooting took, the
	// overhead the paper reports as negligible (24 µs for 512 cliques).
	RerootTime time.Duration

	// statePools recycles propagation states per semiring. States carry no
	// evidence residue: AbsorbEvidence rebuilds the tables from the tree.
	statePools [2]sync.Pool

	// lazyProp owns the precalibrated tables and pruned-plan cache when
	// Options.Lazy is set, nil otherwise.
	lazyProp *lazy.Prop

	// pool is the process's pool of Options.Workers workers: the goroutines
	// dispatched runs go to and the count of runs in flight every run is
	// priced by. The engine borrows it and never closes it.
	pool *sched.Pool

	// propagations counts scheduler invocations, the observable that lets
	// tests prove a query cost exactly one propagation.
	propagations atomic.Int64

	// obsAgg accumulates the run reports (Fig. 8 metrics); execute folds
	// each record's report in.
	obsAgg obs.Aggregate

	// cache, door and flight are the shared-evidence result cache, the
	// doorkeeper that admits a signature to it on its second sight and the
	// request-collapsing singleflight group (nil when CacheSize is 0).
	// collapsed counts queries served by another caller's propagation,
	// firstSight those that ran privately because their signature was new.
	cache      *cache.LRU
	door       *cache.Doorkeeper
	flight     *cache.Group
	collapsed  atomic.Int64
	firstSight atomic.Int64
}

// NewEngine validates and prepares the junction tree. The engine keeps t, or
// with Reroot a structural copy of t sharing its tables (jtree.Tree.Reroot),
// and reads its tables without writing them: the caller must not write them
// either while the engine is in use.
func NewEngine(t *jtree.Tree, opts Options) (*Engine, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if _, ok := schedulerNames[opts.Scheduler]; !ok {
		return nil, fmt.Errorf("core: unknown scheduler %v", opts.Scheduler)
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{opts: opts, RerootedFrom: -1, pool: sched.ProcessPool(opts.Workers)}
	work := t
	if opts.Reroot {
		start := time.Now()
		r := work.SelectRoot()
		if r != work.Root {
			nt, err := work.Reroot(r)
			if err != nil {
				return nil, err
			}
			e.RerootedFrom = work.Root
			work = nt
		}
		e.RerootTime = time.Since(start)
	}
	e.tree = work
	vars, card := work.Variables()
	e.offsets = make([]int, 1, len(vars)+1)
	for v := 0; len(vars) > 0 && v <= vars[len(vars)-1]; v++ {
		e.offsets = append(e.offsets, e.offsets[v]+card[v])
	}
	e.graph = taskgraph.Build(work)
	if err := e.graph.Validate(); err != nil {
		return nil, err
	}
	if opts.Lazy {
		lp, err := lazy.New(e.tree, e.graph)
		if err != nil {
			return nil, err
		}
		e.lazyProp = lp
	}
	if opts.CacheSize > 0 {
		e.cache = cache.NewLRU(opts.CacheSize)
		e.door = cache.NewDoorkeeper(e.cache.Cap())
		e.flight = &cache.Group{}
	}
	return e, nil
}

// Tree returns the engine's (possibly rerooted) junction tree.
func (e *Engine) Tree() *jtree.Tree { return e.tree }

// Graph returns the engine's task dependency graph.
func (e *Engine) Graph() *taskgraph.Graph { return e.graph }

// Options returns the engine's configuration.
func (e *Engine) Options() Options { return e.opts }

// Propagations returns how many scheduler runs the engine has executed.
func (e *Engine) Propagations() int64 { return e.propagations.Load() }

// ObsSnapshot returns the engine's aggregated observability counters: the
// lifetime busy/overhead/per-kind totals, how many runs took each executor,
// and the most recent run's Fig. 8 load-balance and overhead-fraction
// gauges.
func (e *Engine) ObsSnapshot() obs.AggregateSnapshot { return e.obsAgg.Snapshot() }

// Recorder returns the engine's flight recorder, nil when none is attached.
func (e *Engine) Recorder() *obs.FlightRecorder { return e.opts.Recorder }

// absorb returns a state of the engine's graph restricted to the evidence: one
// recycled from the semiring's pool and re-primed in place, or a new one
// allocated at its sliced size. A recycled state carries no residue:
// AbsorbEvidence rebuilds every table from the tree.
func (e *Engine) absorb(mode taskgraph.Mode, ev potential.Evidence) (*taskgraph.State, error) {
	v := e.statePools[mode].Get()
	if v == nil {
		return e.graph.NewStateEvidence(mode, ev)
	}
	st := v.(*taskgraph.State)
	if err := st.AbsorbEvidence(ev); err != nil {
		e.putState(st) // never ran; the next AbsorbEvidence re-primes it
		return nil, err
	}
	return st, nil
}

// putState recycles a state whose run completed (or never started). States
// of failed or cancelled scheduler runs must NOT be recycled: pool workers
// may still be draining their queued items.
func (e *Engine) putState(st *taskgraph.State) {
	e.statePools[st.Mode()].Put(st)
}

// Result is one completed propagation.
type Result struct {
	eng   *Engine
	state propState
	pe    float64 // evidence mass, cached so it survives Release
	entry *entry  // a cached result's answers, in place of a state

	// targeted is the record of a run that skipped tasks, until complete runs
	// the rest and records it in completion. Private results only: no locking.
	targeted, completion *obs.QueryRecord
}

// propagateFull absorbs the evidence, runs the two-pass propagation and
// returns the result with the run's record beside it. sig is the evidence
// signature when the caller (the cache path) already computed it, "" when
// not.
//
// targets are the variables the caller will read, nil for all and empty for
// none: the run distributes only toward their cliques (State.Target). A run
// the cache will keep is read by hits that may ask anything, so its caller
// passes nil.
func (e *Engine) propagateFull(ctx context.Context, ev potential.Evidence, like potential.Likelihood, mode taskgraph.Mode, sig string, targets []int) (*Result, *obs.QueryRecord, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
	}
	var sp *otrace.Span
	if ctx != nil {
		sp = otrace.FromContext(ctx)
	}
	var st runState
	asp := sp.Child("absorb", otrace.Int("evidence.vars", int64(len(ev))))
	if e.lazyProp != nil {
		lst, err := e.lazyProp.NewState(mode, ev, like)
		if err != nil {
			asp.Fail(err.Error())
			asp.End()
			return nil, nil, err
		}
		if lst.PlanHit() {
			asp.SetAttr(otrace.String("plan", "hit"))
		} else {
			asp.SetAttr(otrace.String("plan", "build"))
		}
		st = lst
	} else {
		est, err := e.absorb(mode, ev)
		if err != nil {
			asp.Fail(err.Error())
			asp.End()
			return nil, nil, err
		}
		if err := est.AbsorbLikelihood(like); err != nil {
			e.putState(est) // never ran; the next AbsorbEvidence re-primes it
			asp.Fail(err.Error())
			asp.End()
			return nil, nil, err
		}
		est.Target(targets)
		st = est
	}
	entries, graphEntries, _ := runEntries(st)
	asp.SetAttr(otrace.Int("entries", entries), otrace.Int("entries.graph", graphEntries))
	asp.End()
	rec := e.newRecord(ctx, mode.String(), mode, ev, like, sig)
	psp := sp.StartChild("propagate",
		otrace.String("scheduler", e.opts.Scheduler.String()),
		otrace.Int("workers", int64(e.opts.Workers)))
	if err := e.execute(ctx, psp, rec, st, false); err != nil {
		// The state, scratch included, may still be referenced by pool
		// workers draining the failed run's queue — drop it to the GC instead
		// of recycling any of it.
		return nil, nil, err
	}
	res := &Result{eng: e, state: st, pe: st.EvidenceMass()}
	if rec.TasksSkipped > 0 {
		res.targeted = rec
	}
	return res, rec, nil
}

// complete leaves every clique calibrated. A lazy state materializes its
// deferred messages; a targeted one runs what its propagation skipped, once,
// on the calling goroutine (State.Resume) with the pool's cuts replayed, to
// the full run's bits — a propagation like an MPE's companion run, recorded
// under the first run's ID and evidence. A failed one costs the result its state.
func (r *Result) complete() error {
	if r.targeted == nil {
		return r.state.Calibrate()
	}
	est, first := r.state.(*taskgraph.State), r.targeted
	r.targeted = nil
	r.completion = &obs.QueryRecord{ID: first.ID, Mode: first.Mode, EvidenceVars: first.EvidenceVars,
		EvidenceSig: first.EvidenceSig}
	err := est.Resume()
	if err == nil {
		err = r.eng.execute(context.Background(), nil, r.completion, est, true)
	}
	if err != nil {
		r.state = nil
		return err
	}
	est.Target(nil)
	return nil
}

// reach makes sure the given cliques hold their calibrated potentials,
// completing a targeted result that skipped any of them.
func (r *Result) reach(cliques ...int) error {
	for _, ci := range cliques {
		// Only an eager state is ever targeted.
		if r.targeted != nil && ci >= 0 && !r.state.(*taskgraph.State).Reached(ci) {
			return r.complete()
		}
	}
	return nil
}

// Completion returns the record of the run complete made, nil if none.
func (r *Result) Completion() *obs.QueryRecord { return r.completion }

// newRecord starts a propagation's record with what is known before the
// run: the query ID (resolved here, so the same ID reaches the workers'
// pprof labels and the flight recorder; a fresh one is minted only when a
// recorder will log it), the run's name, and its evidence — as the
// signature the cache path already computed (sig), or a fresh one when a
// recorder will keep it.
func (e *Engine) newRecord(ctx context.Context, name string, mode taskgraph.Mode, ev potential.Evidence, like potential.Likelihood, sig string) *obs.QueryRecord {
	id := obs.QueryIDFrom(ctx)
	if e.opts.Recorder != nil {
		if id == "" {
			id = obs.NewQueryID()
		}
		if sig == "" {
			sig = cache.Signature(byte(mode), ev, like)
		}
	}
	return &obs.QueryRecord{ID: id, Mode: name, EvidenceVars: len(ev), EvidenceSig: sig}
}

// execute runs the graph under the configured scheduler and completes the
// run's record — the one place a propagation's facts are written. The
// scheduler metrics are folded into one obs.Report, which feeds the engine
// aggregate here and, through the record, every later view. Then the record
// is published to the flight recorder.
//
// It is also the one place the scratch lifetime rule is applied: a run that
// returned no error hands its scratch back (ReleaseScratch), a failed or
// cancelled one keeps it, because its pool workers may still be writing it.
// remainder marks a resumed targeted state, which only runs inline (State.Resume).
func (e *Engine) execute(ctx context.Context, psp *otrace.Span, rec *obs.QueryRecord, st runState, remainder bool) error {
	rec.Entries, rec.GraphEntries, rec.TasksSkipped = runEntries(st)
	start := time.Now()
	m, peff, err := e.runScheduler(ctx, rec.ID, st, remainder)
	rec.EffectiveWorkers = peff
	rec.Time = time.Now()
	rec.Elapsed = rec.Time.Sub(start)
	if err != nil {
		// Pool workers may still be executing already-fetched items of a
		// failed or cancelled run, mutating the per-worker metrics: record
		// the scalars only and leave the rest to the GC. (An inline run has
		// no stragglers, but a failed run reads the same in every view
		// whichever path it took.)
		rec.Err = err.Error()
	} else {
		st.ReleaseScratch()
		rec.Report = obs.FromSched(m)
		e.obsAgg.Observe(rec)
		if lst, ok := st.(*lazy.State); ok {
			rec.Lazy, rec.LazyStats = true, lst.Stats()
		}
	}
	if psp != nil {
		endRunSpan(psp, start, rec)
	}
	if fr := e.opts.Recorder; fr != nil {
		fr.Record(rec)
	}
	return err
}

// runEntries returns the work of a run over st in table entries — the sum over
// the tasks it runs of the table each ranges over, as sliced on the evidence —
// what the whole graph costs at the full domain, and how many of the graph's
// tasks the run leaves out. Only the eager state slices or masks; a lazy
// plan's tables and tasks are its graph's.
func runEntries(st runState) (entries, graph int64, skipped int) {
	graph = int64(st.Graph().TotalWeight())
	if est, ok := st.(*taskgraph.State); ok {
		return int64(est.Weight()), graph, est.Skipped()
	}
	return graph, graph, 0
}

// endRunSpan closes a run's span with what its record says: the failure, the
// table entries it ranged over, the tasks a mask kept out of it (if any: a lazy
// run fills a span's ten attributes), the workers it was priced at, the executor that
// ran it and the task count plus coarse per-task-kind child spans synthesized
// from the report's per-kind busy totals (no extra hot-path clocking), and the
// lazy pruning counters.
func endRunSpan(psp *otrace.Span, start time.Time, rec *obs.QueryRecord) {
	if rec.Err != "" {
		psp.Fail(rec.Err)
	}
	psp.SetAttr(otrace.Int("entries", rec.Entries), otrace.Int("entries.graph", rec.GraphEntries),
		otrace.Int("workers.effective", int64(rec.EffectiveWorkers)))
	if rec.TasksSkipped > 0 {
		psp.SetAttr(otrace.Int("tasks.skipped", int64(rec.TasksSkipped)))
	}
	if rep := rec.Report; rep != nil {
		psp.SetAttr(otrace.String("executor", rep.Executor), otrace.Int("tasks", int64(rep.Tasks)))
		for k, d := range rep.KindBusy {
			if d > 0 {
				psp.ChildInterval("kind."+taskgraph.Kind(k).String(), start, d)
			}
		}
	}
	if rec.Lazy {
		psp.SetAttr(
			otrace.Int("lazy.msg_sent", rec.LazyStats.MessagesSent),
			otrace.Int("lazy.msg_blocked", rec.LazyStats.MessagesBlocked),
			otrace.Int("lazy.msg_skipped", rec.LazyStats.MessagesSkipped),
			otrace.Int("lazy.flops", rec.LazyStats.Flops),
			otrace.Int("lazy.flops_full", rec.LazyStats.FlopsFull),
		)
	}
	psp.End()
}

// runScheduler executes the state's graph and returns the run's metrics and
// the workers it was priced at. This is the one place the execution path is
// chosen, so sum-product, max-product and every pruned lazy plan get the same
// rule, asked twice, of table entries as sliced on the run's evidence — so a
// heavily observed query of a graph that dispatches at the full domain stays
// on its goroutine.
//
// Asked at the engine's P about the whole graph, sched.InlineWeight says what
// the run computes: a run worth dispatching alone is partitioned as the pool
// partitions it, wherever it executes and whatever its mask leaves out (a
// targeted run, its remainder and the full run cut the same tasks); one that
// is not runs whole. Asked at peff — P over the runs in flight on the
// process's pool, this one and every other engine's included
// (sched.Pool.EnterRun) — about the live tasks, it says where: such a run goes
// to the workers while its share of them still pays for the dispatch, and
// otherwise — like every remainder and every run of a Serial engine — stays on
// the calling goroutine, which replays the pool's partition one piece after
// another. Load, targets and the scheduler move a run between executors and
// never move a bit of its answer.
// queryID, when non-empty and Options.PprofLabels is on, tags the executing
// goroutines with pprof labels for the duration of the run.
func (e *Engine) runScheduler(ctx context.Context, queryID string, st taskgraph.Executor, remainder bool) (*sched.Metrics, int, error) {
	e.propagations.Add(1)
	peff := e.pool.EnterRun()
	defer e.pool.LeaveRun()
	if !e.opts.PprofLabels {
		queryID = "" // sched uses the ID only for labels; drop it at zero cost
	}
	opts := sched.Options{
		Workers:   e.opts.Workers,
		Threshold: e.opts.PartitionThreshold,
		Ctx:       ctx,
		QueryID:   queryID,
	}
	g := st.Graph()
	n, whole := g.N(), g.TotalWeight()
	live, weight := n, whole
	if est, ok := st.(*taskgraph.State); ok {
		opts.Live = est.Live()
		live, weight, whole = n-est.Skipped(), est.Weight(), est.GraphWeight()
	}
	// worth: the pool would take the evidence's full run if it were alone;
	// a serial engine never dispatches, so it cuts as a loaded run does.
	worth := e.opts.ForceDispatch || !sched.InlineWeight(whole, n, e.opts.Workers)
	if worth && !remainder && e.opts.Scheduler != Serial && (e.opts.ForceDispatch || !sched.InlineWeight(weight, live, peff)) {
		m, err := e.pool.Run(st, opts)
		return m, peff, err
	}
	if !worth {
		opts.Threshold = 0 // never the pool's: no partition to replay
	}
	m, err := sched.RunInline(st, opts)
	return m, peff, err
}

// Release recycles the result's propagation state into the engine's pool.
// After Release, only ProbabilityOfEvidence (cached) remains usable; the
// other accessors return ErrReleased. Posterior slices previously returned
// are copies and stay valid. Release is optional — unreleased states are
// garbage collected — and must not race with the result's other methods.
func (r *Result) Release() {
	if r == nil || r.state == nil {
		return
	}
	st := r.state
	r.state = nil
	// Only eager states recycle through the pool; lazy states own
	// query-specific overlay tables and go to the GC.
	if est, ok := st.(*taskgraph.State); ok && r.eng != nil {
		r.eng.putState(est)
	}
}

// Marginal returns the normalized posterior P(v | evidence) from the
// propagation result, over v's states, in a slice the caller owns.
func (r *Result) Marginal(v int) ([]float64, error) {
	if r.entry != nil {
		m, err := r.SharedMarginal(v)
		return slices.Clone(m), err
	}
	if r.state == nil {
		return nil, ErrReleased
	}
	if err := r.reach(r.state.Graph().Tree.CliqueOf(v)); err != nil {
		return nil, err
	}
	return r.state.Marginal(v, nil)
}

// SharedMarginal is Marginal without the copy: on a cached result the slice
// is the entry's, which every reader shares and nobody may modify.
func (r *Result) SharedMarginal(v int) ([]float64, error) {
	en := r.entry
	if en == nil {
		return r.Marginal(v)
	}
	if en.err != nil {
		return nil, en.err
	}
	o := r.eng.offsets
	if v < 0 || v+1 >= len(o) || o[v] == o[v+1] {
		return nil, fmt.Errorf("core: no clique contains variable %d", v)
	}
	return en.answers[o[v]:o[v+1]:o[v+1]], nil
}

// JointMarginal returns the normalized posterior over a set of variables,
// which must all be contained in one clique.
func (r *Result) JointMarginal(vars []int) (*potential.Potential, error) {
	if r.state == nil {
		return nil, ErrReleased
	}
	tree := r.state.Graph().Tree
	for i := range tree.Cliques {
		all := true
		for _, v := range vars {
			if !tree.Cliques[i].Pot.HasVar(v) {
				all = false
				break
			}
		}
		if !all {
			continue
		}
		if err := r.reach(i); err != nil {
			return nil, err
		}
		cp, err := r.state.CliquePot(i)
		if err != nil {
			return nil, err
		}
		m, err := cp.Marginal(vars)
		if err != nil {
			return nil, err
		}
		if err := m.Normalize(); err != nil {
			return nil, fmt.Errorf("core: zero posterior mass: %w", err)
		}
		return r.lift(m), nil
	}
	return nil, fmt.Errorf("core: no clique contains all of %v", vars)
}

// lift maps a table computed from the result's tables back to the full domain.
// An eager state is sliced on its hard evidence — an observed variable has one
// state there — and Lift puts the mass at the observed states of a table with
// every state; a lazy state's tables are full-domain already.
func (r *Result) lift(p *potential.Potential) *potential.Potential {
	if st, ok := r.state.(*taskgraph.State); ok {
		return st.Lift(p)
	}
	return p
}

// ProbabilityOfEvidence returns P(e): after absorption and propagation the
// total mass of any clique equals the (unnormalized) evidence likelihood.
// The value is cached at propagation time, so it remains available after
// Release.
func (r *Result) ProbabilityOfEvidence() float64 { return r.pe }

// State exposes the underlying eager propagation state for
// instrumentation, every table calibrated (a targeted result completes
// first). It is nil after Release, for a cached result (Tables) and for lazy
// results, whose pruning counters are exposed through LazyStats instead.
func (r *Result) State() *taskgraph.State {
	st, _ := r.state.(*taskgraph.State)
	if st == nil || r.complete() != nil {
		return nil
	}
	return st
}

// LazyStats returns the pruning counters of a lazy propagation (messages
// and tasks sent/blocked/skipped, flops vs the eager engine, materialized
// table entries). ok is false for eager results and after Release. The
// counters are live: posterior queries materialize distribute messages on
// demand and advance them.
func (r *Result) LazyStats() (lazy.Stats, bool) {
	if st, ok := r.state.(*lazy.State); ok {
		return st.Stats(), true
	}
	return lazy.Stats{}, false
}

// CheckCalibration verifies the Hugin invariant on the propagation result:
// every pair of adjacent cliques must agree (within tol, after
// normalization) on their separator marginal. It returns nil when the tree
// is calibrated — the structural proof that propagation completed
// correctly, independent of any query.
func (r *Result) CheckCalibration(tol float64) error {
	if r.state == nil {
		return ErrReleased
	}
	// Lazy and targeted results defer distribute work; a whole-tree check
	// needs all of it done. Normalization below cancels the per-table scalars
	// of any blocked (elided) lazy messages.
	if err := r.complete(); err != nil {
		return err
	}
	tree := r.state.Graph().Tree
	for c := range tree.Cliques {
		p := tree.Cliques[c].Parent
		if p < 0 {
			continue
		}
		cc, err := r.state.CliquePot(c)
		if err != nil {
			return err
		}
		cp, err := r.state.CliquePot(p)
		if err != nil {
			return err
		}
		mc, err := cc.Marginal(tree.Cliques[c].SepVars)
		if err != nil {
			return err
		}
		mp, err := cp.Marginal(tree.Cliques[c].SepVars)
		if err != nil {
			return err
		}
		if err := mc.Normalize(); err != nil {
			return fmt.Errorf("core: clique %d has zero mass: %w", c, err)
		}
		if err := mp.Normalize(); err != nil {
			return fmt.Errorf("core: clique %d has zero mass: %w", p, err)
		}
		if d, _ := mc.MaxDiff(mp); d > tol {
			return fmt.Errorf("core: edge (%d,%d) not calibrated: separator marginals differ by %g", c, p, d)
		}
	}
	return nil
}

// MostProbableExplanation extracts the jointly most probable assignment of
// every variable from a max-product propagation result, together with its
// unnormalized probability P(x*, e). Divide by ProbabilityOfEvidence of a
// sum-product run over the same evidence to obtain P(x* | e).
//
// Extraction walks the calibrated tree top-down: the root clique's argmax
// fixes its variables; every other clique maximizes subject to the states
// already fixed by its ancestors, which max-calibration guarantees is
// globally consistent.
func (r *Result) MostProbableExplanation() (map[int]int, float64, error) {
	if en := r.entry; en != nil {
		return en.mpe(r.eng.offsets)
	}
	if r.state == nil {
		return nil, 0, ErrReleased
	}
	if r.state.Mode() != taskgraph.MaxProduct {
		return nil, 0, fmt.Errorf("core: MostProbableExplanation requires a PropagateMax result (state is %v)", r.state.Mode())
	}
	// The top-down walk reads every clique; materialize deferred
	// distribute messages first. Argmax extraction is invariant to the
	// positive per-table scalars of elided blocked messages; the absolute
	// probability is repaired by MassScale (1 for eager states).
	if err := r.complete(); err != nil {
		return nil, 0, err
	}
	tree := r.state.Graph().Tree
	order, err := tree.TopoOrder()
	if err != nil {
		return nil, 0, err
	}
	assignment := map[int]int{}
	prob := 0.0
	for k, ci := range order {
		pot, err := r.state.CliquePot(ci)
		if err != nil {
			return nil, 0, err
		}
		idx, v, err := pot.ArgMaxConsistent(assignment)
		if err != nil {
			return nil, 0, err
		}
		if k == 0 {
			prob = v * r.state.MassScale()
			if prob == 0 {
				return nil, 0, fmt.Errorf("core: evidence has zero probability; no explanation exists")
			}
		}
		states := pot.AssignmentOf(idx)
		for pos, variable := range pot.Vars {
			assignment[variable] = states[pos]
		}
	}
	// In a sliced state the one state left of an observed variable is the
	// observed one, whatever its index in the table.
	if st, ok := r.state.(*taskgraph.State); ok {
		for v, s := range st.Observed() {
			if s != potential.Free {
				assignment[v] = int(s)
			}
		}
	}
	return assignment, prob, nil
}
