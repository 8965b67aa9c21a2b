// Package evprop is a parallel exact-inference library for discrete
// Bayesian networks, reproducing Xia, Feng & Prasanna, "Parallel Evidence
// Propagation on Multicore Processors" (PACT 2009).
//
// A Bayesian network is compiled into a junction tree
// (Lauritzen–Spiegelhalter), the tree is rerooted to minimize the parallel
// critical path (the paper's Algorithm 1), evidence propagation is
// decomposed into a DAG of node-level primitives, and a collaborative
// work-sharing scheduler executes the DAG on P goroutines with dynamic
// partitioning of large potential-table operations.
//
// Quick start:
//
//	net := evprop.NewNetwork()
//	net.AddVariable("Rain", 2, nil, []float64{0.8, 0.2})
//	net.AddVariable("Wet", 2, []string{"Rain"}, []float64{
//		0.9, 0.1, // Rain = 0
//		0.2, 0.8, // Rain = 1
//	})
//	eng, _ := net.Compile(evprop.Options{})
//	post, _ := eng.Query(evprop.Evidence{"Wet": 1}, "Rain")
//	fmt.Println(post["Rain"]) // posterior distribution of Rain
package evprop

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"evprop/internal/bayesnet"
	"evprop/internal/bif"
	"evprop/internal/core"
	"evprop/internal/obs"
	"evprop/internal/potential"
	"evprop/internal/sched"
)

// Evidence maps observed variable names to their observed state indices.
type Evidence map[string]int

// Network is a discrete Bayesian network under construction.
type Network struct {
	inner *bayesnet.Network
}

// NewNetwork returns an empty network.
func NewNetwork() *Network { return &Network{inner: bayesnet.New()} }

// AddVariable appends a random variable with the given number of states.
// parents names previously added variables; cpt is the flattened
// conditional probability table with the parents' states (in the order
// given) as the slow indices and this variable's own state as the fastest
// index. Each conditional row must sum to 1.
func (n *Network) AddVariable(name string, states int, parents []string, cpt []float64) error {
	ids := make([]int, len(parents))
	for i, p := range parents {
		id := n.inner.ID(p)
		if id < 0 {
			return fmt.Errorf("%w: parent %q of %q", ErrUnknownVariable, p, name)
		}
		ids[i] = id
	}
	_, err := n.inner.AddNode(name, states, ids, cpt)
	return err
}

// MustAddVariable is AddVariable panicking on error, for example programs
// with literal networks.
func (n *Network) MustAddVariable(name string, states int, parents []string, cpt []float64) {
	if err := n.AddVariable(name, states, parents, cpt); err != nil {
		panic(err)
	}
}

// Variables returns the variable names in insertion order.
func (n *Network) Variables() []string {
	out := make([]string, n.inner.N())
	for i := range out {
		out[i] = n.inner.Name(i)
	}
	return out
}

// States returns the number of states of the named variable, or 0 if it
// does not exist.
func (n *Network) States(name string) int {
	id := n.inner.ID(name)
	if id < 0 {
		return 0
	}
	return n.inner.Nodes[id].Card
}

// Validate checks that the network is a well-formed DAG with normalized
// CPTs.
func (n *Network) Validate() error { return n.inner.Validate() }

// ExactMarginal computes P(name | ev) by brute-force joint enumeration. It
// is exponential in the network size and exists as a reference oracle for
// small networks.
func (n *Network) ExactMarginal(name string, ev Evidence) ([]float64, error) {
	id := n.inner.ID(name)
	if id < 0 {
		return nil, fmt.Errorf("%w: %q", ErrUnknownVariable, name)
	}
	iev, err := n.evidence(ev)
	if err != nil {
		return nil, err
	}
	m, err := n.inner.ExactMarginal(id, iev)
	if err != nil {
		return nil, err
	}
	return append([]float64(nil), m.Data...), nil
}

func (n *Network) evidence(ev Evidence) (potential.Evidence, error) {
	iev := potential.Evidence{}
	for name, state := range ev {
		id := n.inner.ID(name)
		if id < 0 {
			return nil, fmt.Errorf("%w: evidence on %q", ErrUnknownVariable, name)
		}
		if card := n.inner.Nodes[id].Card; state < 0 || state >= card {
			return nil, fmt.Errorf("%w: %q has %d states, got state %d", ErrBadState, name, card, state)
		}
		iev[id] = state
	}
	return iev, nil
}

func (n *Network) likelihood(soft SoftEvidence) (potential.Likelihood, error) {
	like := potential.Likelihood{}
	for name, weights := range soft {
		id := n.inner.ID(name)
		if id < 0 {
			return nil, fmt.Errorf("%w: soft evidence on %q", ErrUnknownVariable, name)
		}
		if len(weights) != n.inner.Nodes[id].Card {
			return nil, fmt.Errorf("%w: soft evidence on %q has %d weights for %d states",
				ErrBadState, name, len(weights), n.inner.Nodes[id].Card)
		}
		like[id] = append([]float64(nil), weights...)
	}
	return like, nil
}

// Scheduler names accepted by Options.Scheduler.
const (
	SchedulerCollaborative = "collaborative"
	SchedulerSerial        = "serial"
)

// Options configures compilation of a network into an inference engine.
type Options struct {
	// Workers is P, the number of propagation goroutines (0 = GOMAXPROCS).
	// They are the process's, not the engine's: every engine compiled at one
	// P shares the same P workers, started by the first query dispatched to
	// them and kept for the life of the process, and shares the count of
	// queries in flight that each is priced by (ProcessScheduler). A task
	// graph whose mean task is cheaper than one scheduling operation at its
	// share of them — small networks, heavily pruned lazy plans, every graph
	// when P is 1, and any graph under enough concurrent load — runs on the
	// calling goroutine instead; FlightRecord's Executor field says which
	// path a propagation took.
	Workers int
	// Scheduler is one of the Scheduler* constants (default
	// "collaborative"). "serial" runs every graph on the calling goroutine.
	Scheduler string
	// Reroot applies the paper's Algorithm 1 to minimize the parallel
	// critical path (default true; set DisableReroot to turn off).
	DisableReroot bool
	// PartitionThreshold is δ: potential-table operations over more
	// entries than this are split across workers, in pieces of δ entries
	// (the paper's fixed rule). 0 is automatic: each task graph is split
	// only where it has less parallelism than there are workers — total
	// work over critical path below P — and then only the operations on
	// its long dependency chains, into at most P pieces none smaller than
	// the 400 entries one scheduling operation costs; a graph that already
	// occupies the workers runs unsplit. Negative disables partitioning.
	PartitionThreshold int
	// DisableFlightRecorder turns off the always-on flight recorder (see
	// Engine.RecentQueries); useful only for micro-benchmarking its cost.
	DisableFlightRecorder bool
	// SlowQueryThreshold pins the flight recorder's slow threshold: any
	// propagation slower than this is marked Slow in its FlightRecord (and
	// evserve's tail sampling keeps its trace). 0 selects the adaptive
	// threshold, 2× the observed p99 latency once enough propagations have
	// been recorded.
	SlowQueryThreshold time.Duration
	// CacheSize enables the shared-evidence result cache: completed
	// propagations are retained in a sharded LRU of about this many entries
	// (CacheStats.Capacity is the exact bound), keyed by the canonical
	// signature of (semiring, hard evidence, soft evidence), and concurrent
	// queries with identical evidence collapse into a single propagation.
	// A result is admitted the second time its signature is seen: the first
	// sight runs as without a cache and retains nothing, so N identical
	// queries of a new signature cost min(N, 2) propagations and the third
	// is the first hit (CacheStats.FirstSight counts the private runs).
	// An entry retains the result's clique and separator tables and nothing
	// else (CacheStats.Bytes). 0 (the default) disables caching. The
	// cache invalidates itself when the source network gains variables
	// after compilation; see Engine.InvalidateCache for manual control.
	CacheSize int
	// PprofLabels tags the scheduler workers with pprof goroutine labels
	// (query_id, task_kind) while they execute each query, so CPU profiles
	// segment by query and by primitive (go tool pprof -tagfocus
	// query_id=...). Off by default: the labels cost a few percent of
	// propagation throughput and are observable only through the pprof
	// endpoints, so enable this alongside them (evserve does when run with
	// -pprof).
	PprofLabels bool
	// Lazy switches the engine to zero-aware lazy propagation: the
	// junction tree is calibrated once at compile time, each query then
	// propagates only through the part of the tree its evidence actually
	// disturbs (messages from undisturbed subtrees are skipped, messages
	// across fully observed separators collapse to scalars, and table
	// operations shrink to the non-zero block hard evidence leaves
	// behind), and root-to-leaf distribution runs on demand per posterior
	// read. Posteriors, P(e) and MPE agree with the eager engine to
	// floating-point tolerance; QueryResult.PropagationStats exposes how
	// much work was pruned. Off by default.
	Lazy bool
}

// Engine answers posterior queries over a compiled network. An Engine is
// safe for fully concurrent use: any number of goroutines may call
// Propagate (and every Query* convenience wrapper) simultaneously with no
// external locking. Propagation state is pooled and recycled across calls,
// and the process's persistent workers execute the task graphs, so
// steady-state queries allocate little and spawn no goroutines.
type Engine struct {
	net   *Network
	inner *core.Engine
	// modelVersion is the source network's mutation counter captured at
	// compile time (and advanced on cache invalidation). A query that
	// observes a newer network version purges the result cache first, so
	// results computed against the old structure are never served after
	// the model moves on.
	modelVersion atomic.Int64
}

// Close does nothing: an engine owns no goroutines — the workers are the
// process's (Options.Workers) — and what it does own is garbage once it is
// unreachable. It remains for callers written when engines had workers to
// release; an engine answers queries after Close exactly as before.
func (e *Engine) Close() {}

// EngineStats is a snapshot of an engine's lifetime counters and
// configuration.
type EngineStats struct {
	// Propagations counts completed scheduler invocations: full two-pass
	// propagations, sum- and max-product.
	Propagations int64
	// Workers is the configured number of propagation goroutines.
	Workers int
	// Scheduler is the configured scheduler name.
	Scheduler string
}

// Stats returns the engine's lifetime counters and configuration.
func (e *Engine) Stats() EngineStats {
	if e == nil || e.inner == nil {
		return EngineStats{}
	}
	opts := e.inner.Options()
	return EngineStats{
		Propagations: e.inner.Propagations(),
		Workers:      opts.Workers,
		Scheduler:    opts.Scheduler.String(),
	}
}

// CacheStats is a snapshot of the engine's shared-evidence result cache.
type CacheStats struct {
	// Enabled is false when the engine was compiled with CacheSize 0.
	Enabled bool `json:"enabled"`
	// Capacity is the most results the cache holds: Options.CacheSize
	// rounded down to a multiple of its 16 shards, and at least 16 (4 holds
	// 16, 40 holds 32). Entries is the current fill, never above Capacity.
	Capacity int `json:"capacity"`
	Entries  int `json:"entries"`
	// Bytes is the table memory the entries pin, summed over the live
	// entries: 8 bytes per clique and separator entry of each cached result.
	// A result's tables are sliced on its hard evidence — an observed variable
	// has one state in them — so results of one model differ in size and none
	// exceeds the model's full tables. Exact for the eager engine, an upper
	// bound (full tables per entry) under Options.Lazy.
	Bytes int64 `json:"bytes"`
	// Hits and Misses count cache lookups over the engine's lifetime.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Collapsed counts queries served by another caller's in-flight
	// propagation: concurrent identical queries trigger one propagation,
	// and the other callers land here.
	Collapsed int64 `json:"collapsed"`
	// FirstSight counts the misses that were the first sight of their
	// signature: they ran privately, on a recycled state, and left nothing
	// in the cache. Misses − FirstSight − Collapsed is what was pinned.
	FirstSight int64 `json:"first_sight"`
}

// CacheStats returns the result cache's counters (the zero value when the
// engine was compiled without a cache).
func (e *Engine) CacheStats() CacheStats {
	if e == nil || e.inner == nil {
		return CacheStats{}
	}
	s := e.inner.CacheStats()
	return CacheStats{
		Enabled:    s.Enabled,
		Capacity:   s.Capacity,
		Entries:    s.Entries,
		Bytes:      s.Bytes,
		Hits:       s.Hits,
		Misses:     s.Misses,
		Collapsed:  s.Collapsed,
		FirstSight: s.FirstSight,
	}
}

// InvalidateCache drops every cached result. Queries in flight when it is
// called can never re-populate the cache with pre-invalidation results, so
// once InvalidateCache returns, no later query is served a stale posterior.
// Results already handed out stay valid — they are immutable. Structural
// mutation of the source network (AddVariable after Compile) invalidates
// automatically; call this only for out-of-band staleness the engine cannot
// see.
func (e *Engine) InvalidateCache() {
	if e == nil || e.inner == nil {
		return
	}
	e.inner.InvalidateCache()
}

// EvidenceSignature returns the canonical cache key of an evidence
// configuration: a deterministic encoding of the (hard, soft) evidence that
// is identical for semantically equal evidence regardless of map iteration
// or insertion order, and distinct for any differing configuration. Two
// sum-product queries share a cache entry (and collapse into one
// propagation) exactly when their signatures are equal.
func (e *Engine) EvidenceSignature(ev Evidence, soft SoftEvidence) (string, error) {
	if e == nil || e.inner == nil || e.net == nil {
		return "", ErrUncompiled
	}
	iev, err := e.net.evidence(ev)
	if err != nil {
		return "", err
	}
	var like potential.Likelihood
	if len(soft) > 0 {
		like, err = e.net.likelihood(soft)
		if err != nil {
			return "", err
		}
	}
	return e.inner.EvidenceSignature(iev, like), nil
}

// SchedulerReport aggregates the engine's scheduler observability across
// all completed runs: lifetime busy/overhead totals, item counters, a
// per-primitive-kind time breakdown, and the most recent run's Fig. 8
// gauges.
type SchedulerReport struct {
	// Runs counts completed runs; InlineRuns of them executed on the
	// caller's goroutine (see Options.Workers) and PoolRuns on the workers.
	Runs, InlineRuns, PoolRuns int64
	// Busy and Overhead are lifetime totals across all runs and workers.
	Busy, Overhead time.Duration
	// OverheadFraction is the lifetime scheduling fraction of total worker
	// time; LastOverheadFraction and LastLoadBalance are the most recent
	// run's Fig. 8 gauges.
	OverheadFraction     float64
	LastOverheadFraction float64
	LastLoadBalance      float64
	// LastElapsed and LastWorkers describe the most recent run.
	LastElapsed time.Duration
	LastWorkers int
	// Tasks, Pieces and Partitioned are lifetime item counters.
	Tasks, Pieces, Partitioned int64
	// SlicedShare is the lifetime share of the task graphs' table entries the
	// runs ranged over once their tables were sliced on each query's hard
	// evidence (FlightRecord.Entries over GraphEntries, summed): 1 when
	// nothing was observed, or nothing has run.
	SlicedShare float64
	// BusyByKind splits lifetime computation time across the four
	// node-level primitives.
	BusyByKind map[string]time.Duration
}

// SchedulerReport returns the engine's aggregated observability report.
func (e *Engine) SchedulerReport() SchedulerReport {
	if e == nil || e.inner == nil {
		return SchedulerReport{LastLoadBalance: 1, SlicedShare: 1}
	}
	s := e.inner.ObsSnapshot()
	r := SchedulerReport{
		Runs:                 s.Runs,
		InlineRuns:           s.InlineRuns,
		PoolRuns:             s.PoolRuns,
		Busy:                 s.Busy,
		Overhead:             s.Overhead,
		OverheadFraction:     s.OverheadFraction(),
		LastOverheadFraction: s.LastOverheadFraction,
		LastLoadBalance:      s.LastLoadBalance,
		LastElapsed:          s.LastElapsed,
		LastWorkers:          s.LastWorkers,
		Tasks:                s.Tasks,
		Pieces:               s.Pieces,
		Partitioned:          s.Partitioned,
		SlicedShare:          s.SlicedShare(),
		BusyByKind:           make(map[string]time.Duration, len(obs.KindNames)),
	}
	for k, name := range obs.KindNames {
		r.BusyByKind[name] = s.KindBusy[k]
	}
	return r
}

// WorkerGauges is one scheduler worker's live gauges at a sampling instant:
// its current state, the depth and weight counter of its local ready list,
// and its lifetime execution and partition counters.
type WorkerGauges struct {
	// State is "executing" or "parked".
	State string `json:"state"`
	// QueueDepth and QueueWeight describe the worker's local ready list:
	// queued item count and the paper's W_i weight counter.
	QueueDepth  int64 `json:"queue_depth"`
	QueueWeight int64 `json:"queue_weight"`
	// BusyNs is cumulative nanoseconds inside node-level primitives; the
	// delta between two snapshots over the wall time between them is the
	// worker's live utilization.
	BusyNs int64 `json:"busy_ns"`
	// Items counts executed items (tasks, pieces, combiners); Completed
	// counts original graph tasks this worker retired.
	Items     int64 `json:"items"`
	Completed int64 `json:"completed"`
	// Partitions counts tasks this worker split into δ-pieces.
	Partitions int64 `json:"partitions"`
}

// SchedulerGauges is a live snapshot of the process's scheduler: the pool
// of P workers that every engine compiled at Options.Workers = P borrows.
// Reading it is wait-free for the workers, so it is safe to sample at high
// frequency while queries run.
type SchedulerGauges struct {
	// PoolSize is P.
	PoolSize int `json:"pool_size"`
	// ActiveRuns is k, the propagations in flight on those P cores, on the
	// workers and on their callers' goroutines alike, over every engine that
	// shares the pool. A propagation is priced at P ÷ k workers
	// (FlightRecord.EffectiveWorkers).
	ActiveRuns int64 `json:"active_runs"`
	// GlobalDepth counts tasks submitted to the workers but not yet
	// completed, across all dispatched propagations in flight.
	GlobalDepth int64 `json:"global_depth"`
	// Workers has one entry per worker. Empty until a propagation is first
	// dispatched to them: the goroutines start then, and reading gauges
	// starts none.
	Workers []WorkerGauges `json:"workers"`
}

// ProcessScheduler snapshots the live gauges of the process's pool of the
// given size, workers as in Options.Workers (0 = GOMAXPROCS).
func ProcessScheduler(workers int) SchedulerGauges {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := sched.ProcessPool(workers).Snapshot()
	g := SchedulerGauges{
		PoolSize:    workers,
		ActiveRuns:  s.ActiveRuns,
		GlobalDepth: s.GlobalDepth,
		Workers:     make([]WorkerGauges, len(s.Workers)),
	}
	for i, w := range s.Workers {
		g.Workers[i] = WorkerGauges{
			State:       w.StateName,
			QueueDepth:  w.QueueDepth,
			QueueWeight: w.QueueWeight,
			BusyNs:      w.BusyNs,
			Items:       w.Items,
			Completed:   w.Completed,
			Partitions:  w.Partitions,
		}
	}
	return g
}

// Compile converts the network into a junction tree and prepares the
// propagation engine.
func (n *Network) Compile(opts Options) (*Engine, error) { return n.compile(opts, false) }

// compile is Compile plus the tests' seam: forceDispatch sends every run to
// the configured scheduler's workers even when the granularity rule would run
// it inline (core.Options.ForceDispatch).
func (n *Network) compile(opts Options, forceDispatch bool) (*Engine, error) {
	if err := n.inner.Validate(); err != nil {
		return nil, err
	}
	tree, err := n.inner.Compile()
	if err != nil {
		return nil, err
	}
	name := opts.Scheduler
	if name == "" {
		name = SchedulerCollaborative
	}
	s, err := core.ParseScheduler(name)
	if err != nil {
		return nil, err
	}
	threshold := opts.PartitionThreshold
	switch {
	case threshold < 0:
		threshold = 0 // disabled
	case threshold == 0:
		threshold = sched.ThresholdAuto // decided per task graph by sched.Split
	}
	var recorder *obs.FlightRecorder
	if !opts.DisableFlightRecorder {
		recorder = obs.NewFlightRecorder(0, opts.SlowQueryThreshold)
	}
	eng, err := core.NewEngine(tree, core.Options{
		Workers:            opts.Workers,
		Scheduler:          s,
		Reroot:             !opts.DisableReroot,
		PartitionThreshold: threshold,
		Recorder:           recorder,
		CacheSize:          opts.CacheSize,
		PprofLabels:        opts.PprofLabels,
		Lazy:               opts.Lazy,
		ForceDispatch:      forceDispatch,
	})
	if err != nil {
		return nil, err
	}
	e := &Engine{net: n, inner: eng}
	e.modelVersion.Store(n.inner.Version())
	return e, nil
}

// Query runs one evidence propagation and returns the posterior
// distribution of each requested variable given the evidence. It is a
// convenience wrapper over Propagate; hold the *QueryResult instead when
// several quantities are needed from the same evidence.
func (e *Engine) Query(ev Evidence, vars ...string) (map[string][]float64, error) {
	res, err := e.Propagate(ev, vars...)
	if err != nil {
		return nil, err
	}
	defer res.Close()
	if len(vars) == 0 {
		return map[string][]float64{}, nil
	}
	return res.Posteriors(vars...)
}

// SoftEvidence maps variable names to per-state likelihood weights (soft
// or "virtual" evidence): instead of fixing a state, observation noise
// scales each state's probability. Weights need not sum to 1; a one-hot
// vector reproduces hard evidence.
type SoftEvidence map[string][]float64

// QuerySoft runs one propagation with both hard and soft evidence and
// returns posteriors for the requested variables. It is a convenience
// wrapper over PropagateSoft.
func (e *Engine) QuerySoft(ev Evidence, soft SoftEvidence, vars ...string) (map[string][]float64, error) {
	res, err := e.PropagateSoft(ev, soft, vars...)
	if err != nil {
		return nil, err
	}
	defer res.Close()
	if len(vars) == 0 {
		return map[string][]float64{}, nil
	}
	return res.Posteriors(vars...)
}

// QueryAll returns the posterior of every non-evidence variable from one
// propagation. It is a convenience wrapper over Propagate + Posteriors.
func (e *Engine) QueryAll(ev Evidence) (map[string][]float64, error) {
	res, err := e.Propagate(ev)
	if err != nil {
		return nil, err
	}
	defer res.Close()
	return res.Posteriors()
}

// QueryOne returns the posterior of one variable. It is a convenience
// wrapper over Propagate + Posterior.
func (e *Engine) QueryOne(ev Evidence, name string) ([]float64, error) {
	res, err := e.Propagate(ev, name)
	if err != nil {
		return nil, err
	}
	defer res.Close()
	return res.Posterior(name)
}

// Joint is a posterior distribution over several variables. Vars lists the
// variable names in the table's dimension order (ascending internal id) and
// Card their state counts; P is row-major with the last variable fastest.
type Joint struct {
	Vars []string
	Card []int
	P    []float64
}

// At returns the probability of one joint state (parallel to Vars).
func (j *Joint) At(states ...int) float64 {
	idx := 0
	for i, s := range states {
		idx = idx*j.Card[i] + s
	}
	return j.P[idx]
}

// QueryJoint computes the posterior over an arbitrary set of variables,
// even when they do not share a clique (the engine folds the minimal
// subtree of calibrated cliques spanning them). Cost grows exponentially
// with the number of requested variables.
func (e *Engine) QueryJoint(ev Evidence, vars ...string) (*Joint, error) {
	if e == nil || e.inner == nil || e.net == nil {
		return nil, ErrUncompiled
	}
	if _, err := e.net.names(vars); err != nil {
		return nil, err // fail before propagating on unknown names
	}
	res, err := e.Propagate(ev)
	if err != nil {
		return nil, err
	}
	defer res.Close()
	return res.Joint(vars...)
}

// MutualInformation returns I(x; y | evidence) in bits: how much observing
// one variable is expected to tell us about the other, given what is
// already known. It is the value-of-information measure behind
// BestObservation.
func (e *Engine) MutualInformation(ev Evidence, x, y string) (float64, error) {
	res, err := e.Propagate(ev, x, y)
	if err != nil {
		return 0, err
	}
	defer res.Close()
	return res.MutualInformation(x, y)
}

// BestObservation ranks candidate variables by how informative observing
// each would be about the target, given the current evidence — the classic
// "which test should we run next" query. It returns the candidates sorted
// by decreasing mutual information with the target. All candidates are
// scored against one shared propagation.
func (e *Engine) BestObservation(ev Evidence, target string, candidates ...string) ([]string, []float64, error) {
	res, err := e.Propagate(ev)
	if err != nil {
		return nil, nil, err
	}
	defer res.Close()
	type scored struct {
		name string
		mi   float64
	}
	ranked := make([]scored, 0, len(candidates))
	for _, c := range candidates {
		if _, observed := ev[c]; observed || c == target {
			continue
		}
		mi, err := res.MutualInformation(target, c)
		if err != nil {
			return nil, nil, err
		}
		ranked = append(ranked, scored{c, mi})
	}
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].mi > ranked[j].mi })
	names := make([]string, len(ranked))
	mis := make([]float64, len(ranked))
	for i, r := range ranked {
		names[i] = r.name
		mis[i] = r.mi
	}
	return names, mis, nil
}

// ProbabilityOfEvidence returns P(e), the likelihood of the observation. It
// declares that no posterior will be read: a private run only collects.
func (e *Engine) ProbabilityOfEvidence(ev Evidence) (float64, error) {
	res, err := e.propagateSession(context.Background(), ev, nil, []string{})
	if err != nil {
		return 0, err
	}
	res.Close()
	return res.ProbabilityOfEvidence(), nil
}

// MostProbableState returns the argmax state and its posterior probability
// for the named variable given the evidence.
func (e *Engine) MostProbableState(ev Evidence, name string) (int, float64, error) {
	res, err := e.Propagate(ev, name)
	if err != nil {
		return 0, 0, err
	}
	defer res.Close()
	dist, err := res.Posterior(name)
	if err != nil {
		return 0, 0, err
	}
	best, bestP := 0, dist[0]
	for s, p := range dist {
		if p > bestP {
			best, bestP = s, p
		}
	}
	return best, bestP, nil
}

// MostProbableExplanation computes the jointly most probable assignment of
// all variables given the evidence (MPE / Viterbi decoding), via
// max-product evidence propagation over the same task graph and scheduler.
// It returns the assignment by variable name and its conditional
// probability P(assignment | evidence). It is a convenience wrapper over
// Propagate + MPE.
func (e *Engine) MostProbableExplanation(ev Evidence) (map[string]int, float64, error) {
	res, err := e.Propagate(ev)
	if err != nil {
		return nil, 0, err
	}
	defer res.Close()
	return res.MPE()
}

// Cliques reports the compiled junction tree's size (number of cliques and
// the largest clique width), useful for judging tractability.
func (e *Engine) Cliques() (n, maxWidth int) {
	t := e.inner.Tree()
	for i := range t.Cliques {
		if w := t.Cliques[i].Width(); w > maxWidth {
			maxWidth = w
		}
	}
	return t.N(), maxWidth
}

// RandomNetwork generates a synthetic layered Bayesian network with the
// given node count, states per node and maximum parents per node — the
// workload generator used by the scheduling examples and benchmarks.
func RandomNetwork(nodes, states, maxParents int, seed int64) *Network {
	return &Network{inner: bayesnet.RandomNetwork(nodes, states, maxParents, seed)}
}

// names resolves variable names to internal ids.
func (n *Network) names(vars []string) ([]int, error) {
	out := make([]int, len(vars))
	for i, name := range vars {
		id := n.inner.ID(name)
		if id < 0 {
			return nil, fmt.Errorf("%w: %q", ErrUnknownVariable, name)
		}
		out[i] = id
	}
	return out, nil
}

// SampleN draws complete assignments by ancestral (forward) sampling,
// returned as name→state maps. The seed makes runs reproducible.
func (n *Network) SampleN(count int, seed int64) ([]map[string]int, error) {
	rng := rand.New(rand.NewSource(seed))
	raw, err := n.inner.SampleN(rng, count)
	if err != nil {
		return nil, err
	}
	out := make([]map[string]int, len(raw))
	for i, sample := range raw {
		m := make(map[string]int, len(sample))
		for id, state := range sample {
			m[n.inner.Name(id)] = state
		}
		out[i] = m
	}
	return out, nil
}

// FitParameters learns a new network with this network's structure from
// complete data (name→state maps), using Laplace smoothing. It is the
// sample → learn → infer loop: parameters fitted to enough samples of a
// network converge to that network.
func (n *Network) FitParameters(data []map[string]int, smoothing float64) (*Network, error) {
	raw := make([][]int, len(data))
	for i, sample := range data {
		row := make([]int, n.inner.N())
		for id := range row {
			state, ok := sample[n.inner.Name(id)]
			if !ok {
				return nil, fmt.Errorf("evprop: sample %d missing variable %q", i, n.inner.Name(id))
			}
			row[id] = state
		}
		raw[i] = row
	}
	inner, err := bayesnet.LearnParameters(n.inner.StructureOf(), raw, smoothing)
	if err != nil {
		return nil, err
	}
	return &Network{inner: inner}, nil
}

// LearnChowLiu learns the maximum-likelihood tree-structured network from
// complete samples (Chow & Liu): pairwise mutual informations are estimated
// from the data, a maximum spanning tree connects the variables, and CPTs
// are fitted with Laplace smoothing. states gives each variable's state
// count; every sample must assign all variables.
func LearnChowLiu(data []map[string]int, states map[string]int, smoothing float64) (*Network, error) {
	names := make([]string, 0, len(states))
	for name := range states {
		names = append(names, name)
	}
	sort.Strings(names)
	cards := make([]int, len(names))
	for i, name := range names {
		cards[i] = states[name]
	}
	raw := make([][]int, len(data))
	for i, sample := range data {
		row := make([]int, len(names))
		for j, name := range names {
			st, ok := sample[name]
			if !ok {
				return nil, fmt.Errorf("evprop: sample %d missing variable %q", i, name)
			}
			row[j] = st
		}
		raw[i] = row
	}
	inner, err := bayesnet.ChowLiu(names, cards, raw, 0, smoothing)
	if err != nil {
		return nil, err
	}
	return &Network{inner: inner}, nil
}

// DSeparated reports whether the variable sets x and y are d-separated
// given z: if true, x and y are conditionally independent given z for
// every parameterization of the network, and a query can skip inference.
func (n *Network) DSeparated(x, y, z []string) (bool, error) {
	xi, err := n.names(x)
	if err != nil {
		return false, err
	}
	yi, err := n.names(y)
	if err != nil {
		return false, err
	}
	zi, err := n.names(z)
	if err != nil {
		return false, err
	}
	return n.inner.DSeparated(xi, yi, zi)
}

// MarkovBlanket returns the names of the variable's Markov blanket — its
// parents, children and co-parents, the minimal set that shields it from
// the rest of the network.
func (n *Network) MarkovBlanket(name string) ([]string, error) {
	id := n.inner.ID(name)
	if id < 0 {
		return nil, fmt.Errorf("%w: %q", ErrUnknownVariable, name)
	}
	mb, err := n.inner.MarkovBlanket(id)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(mb))
	for i, v := range mb {
		out[i] = n.inner.Name(v)
	}
	return out, nil
}

// AddNoisyOr appends a binary variable whose CPT follows the canonical
// noisy-OR model: the variable fires if any parent "cause" fires and is not
// inhibited; inhibit[i] is the probability that parent i's influence is
// suppressed, and leak is the probability the variable fires with no parent
// active. All parents must be binary.
func (n *Network) AddNoisyOr(name string, parents []string, inhibit []float64, leak float64) error {
	if len(inhibit) != len(parents) {
		return fmt.Errorf("evprop: noisy-or %q: %d parents but %d inhibitors", name, len(parents), len(inhibit))
	}
	if leak < 0 || leak > 1 {
		return fmt.Errorf("evprop: noisy-or %q: leak %v out of [0,1]", name, leak)
	}
	for i, q := range inhibit {
		if q < 0 || q > 1 {
			return fmt.Errorf("evprop: noisy-or %q: inhibitor %d = %v out of [0,1]", name, i, q)
		}
	}
	for _, p := range parents {
		if n.States(p) != 2 {
			return fmt.Errorf("evprop: noisy-or %q: parent %q is not binary", name, p)
		}
	}
	rows := 1 << len(parents)
	cpt := make([]float64, 0, rows*2)
	for r := 0; r < rows; r++ {
		pOff := 1 - leak
		for i := range parents {
			// Parent i is active when its bit (first parent slowest) is 1.
			if r>>(len(parents)-1-i)&1 == 1 {
				pOff *= inhibit[i]
			}
		}
		cpt = append(cpt, pOff, 1-pOff)
	}
	return n.AddVariable(name, 2, parents, cpt)
}

// ParseBIF reads a Bayesian network in the textual Bayesian Interchange
// Format (the format of the classic repository files such as asia.bif). It
// returns the network and each variable's declared state names, which map
// state indices (used in Evidence and posteriors) to their labels.
func ParseBIF(r io.Reader) (*Network, map[string][]string, error) {
	doc, err := bif.Parse(r)
	if err != nil {
		return nil, nil, err
	}
	inner, states, err := doc.ToNetwork()
	if err != nil {
		return nil, nil, err
	}
	return &Network{inner: inner}, states, nil
}

// WriteBIF serializes the network in BIF text form. states optionally
// labels each variable's states; omitted variables get synthetic labels.
func (n *Network) WriteBIF(w io.Writer, name string, states map[string][]string) error {
	return bif.Write(w, n.inner, name, states)
}

// ParseXMLBIF reads a network in XMLBIF 0.3 form (the XML interchange of
// WEKA and SamIam), returning the network and per-variable state names.
func ParseXMLBIF(r io.Reader) (*Network, map[string][]string, error) {
	inner, states, err := bif.ParseXMLNetwork(r)
	if err != nil {
		return nil, nil, err
	}
	return &Network{inner: inner}, states, nil
}

// WriteXMLBIF serializes the network as XMLBIF 0.3.
func (n *Network) WriteXMLBIF(w io.Writer, name string, states map[string][]string) error {
	return bif.WriteXML(w, n.inner, name, states)
}

// Asia returns the classic Lauritzen–Spiegelhalter chest-clinic network.
func Asia() *Network {
	n, _ := bayesnet.Asia()
	return &Network{inner: n}
}

// Sprinkler returns Murphy's four-node lawn network.
func Sprinkler() *Network {
	n, _ := bayesnet.Sprinkler()
	return &Network{inner: n}
}

// Student returns the five-node student network of Koller & Friedman.
func Student() *Network {
	n, _ := bayesnet.Student()
	return &Network{inner: n}
}
