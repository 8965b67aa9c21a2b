// Package sched implements the paper's collaborative scheduler (Section 6,
// Algorithm 2): P worker goroutines cooperatively execute a task dependency
// graph. Every worker owns the four modules of Figure 3:
//
//   - Allocate: after finishing a task, the worker decrements the dependency
//     degree of its successors in the shared global task list, and pushes
//     each task that reaches degree zero onto the local ready list with the
//     smallest weight counter (load balancing);
//   - Fetch: the worker pops the head of its own local ready list; an idle
//     worker inside a dispatched run polls for a bounded window, and takes
//     the head of a peer's list, before it parks;
//   - Partition: a fetched task whose potential table exceeds the threshold
//     δ — or, with no δ configured, one that Split says the graph needs cut
//     to occupy P workers — is split into subtasks T̂1…T̂n over disjoint
//     index ranges: T̂1 runs inline, T̂2…T̂n−1 are spread evenly across the
//     local lists, and the combining subtask T̂n (which inherits T's
//     successors) fires once all pieces complete;
//   - Execute: the node-level primitive (or piece of one) runs.
//
// There is no dedicated scheduler thread — scheduling work is performed
// collaboratively by whichever worker completes a task, which is the
// paper's key difference from the centralized (Cell BE) design.
//
// Workers live in a Pool and park between propagations rather than being
// respawned per run. A Pool multiplexes any number of concurrent runs over
// the same P workers: every queued item carries a pointer to its run, so
// independent propagations — of one task graph or of several — interleave on
// the ready lists and keep all cores busy under concurrent serving load (the
// throughput regime of Zheng & Mengshoel's belief-update workloads).
//
// The cores are the process's, so the pool is too: ProcessPool hands every
// engine compiled at P workers the same P goroutines, one thread per core as
// in the paper. NewPool builds a private pool for what measures one.
package sched

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"evprop/internal/potential"
	"evprop/internal/taskgraph"
)

// Options configures a collaborative-scheduler run.
type Options struct {
	// Workers is the number of worker goroutines P (≥1). Pool.Run ignores
	// it in favor of the pool's own size; RunInline has no workers and reads
	// it as the P whose ThresholdAuto verdict it replays.
	Workers int
	// Threshold is δ: a task whose partitionable table has more entries
	// than this is split into pieces of δ entries (the paper's fixed rule),
	// or into piecesPerWorker·P pieces where δ would make more.
	// 0 disables task partitioning (as in the paper's Fig. 5 experiments);
	// ThresholdAuto splits what Split decides for this graph at P workers.
	Threshold int
	// Live, when non-nil, has one entry per task and only the true ones run.
	// Pool.Run needs the masked set closed under successors (State.Target).
	Live []bool
	// Trace records a per-worker execution timeline in Metrics.Trace
	// (one appended Event per executed item).
	Trace bool
	// Ctx optionally cancels the run: it is polled between items, so a
	// cancelled run stops at the next task boundary instead of running to
	// completion. nil means never cancelled.
	Ctx context.Context
	// QueryID, when non-empty, tags the worker goroutines with pprof labels
	// (query_id, task_kind) while they execute this run's items, so CPU
	// profiles segment by query and by primitive. Empty disables labelling
	// at zero hot-path cost.
	QueryID string
}

// cancelled is the poll at a task boundary: a receive from ctx.Done that does
// not block, and ctx.Err only once that channel is closed — what the poll
// costs a cancelCtx is an atomic load, not its mutex. A nil ctx is never
// cancelled.
func cancelled(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// WorkerMetrics records per-worker accounting for the paper's Fig. 8.
type WorkerMetrics struct {
	// Busy is the time spent inside node-level primitives ("computation
	// time" in the paper).
	Busy time.Duration
	// Overhead is the time spent in the Allocate and Partition modules
	// (lock waits included). Fetch waits, spinning or parked, are not
	// attributed: pooled workers idle across unrelated runs.
	Overhead time.Duration
	// Tasks counts executed items (tasks, pieces and combiners).
	Tasks int
	// Parks counts the run's items this worker fetched after parking — the
	// wakes the run paid for — and Steals those it took from the head of a
	// peer's list. 32 bits each keep the record, which every inline run
	// allocates, at 64 bytes.
	Parks, Steals int32
	// KindBusy splits Busy by primitive kind, indexed by taskgraph.Kind.
	KindBusy [taskgraph.NumKinds]time.Duration
}

// The two values of Metrics.Executor.
const (
	// ExecInline: the graph ran on the calling goroutine (RunInline).
	ExecInline = "inline"
	// ExecPool: the graph's tasks were dispatched to worker goroutines
	// (Pool.Run).
	ExecPool = "pool"
)

// Metrics aggregates a run.
type Metrics struct {
	// Executor names the path that ran the graph: ExecInline or ExecPool.
	Executor  string
	Workers   []WorkerMetrics
	Elapsed   time.Duration
	Tasks     int // original graph tasks completed
	Pieces    int // partitioned pieces executed (0 when nothing was split)
	Partition int // tasks that were partitioned
	// Trace is the execution timeline (nil unless Options.Trace).
	Trace *Trace
}

// item is one unit of work on a local ready list. The run pointer lets a
// pool worker process items from interleaved concurrent runs.
type item struct {
	r      *run
	task   int
	lo, hi int
	buf    *potential.Potential // private buffer of a marginalize piece after the first
	comb   *combiner            // set on pieces of a partitioned task
	isComb bool                 // set on the combining subtask T̂n
	weight int64
}

// combiner tracks the outstanding pieces of one partitioned task. bufs holds
// the private buffers of pieces 2…n in piece order; partition fills it before
// any piece is queued, and only the combining subtask reads it.
type combiner struct {
	task    int
	pending int32
	bufs    []*potential.Potential
}

// localList is a worker's local ready list (LL). Any worker may push (the
// Allocate module), so it is lock-protected. The paper's W_i weight counter
// lives in the gauge slot's packed LL word, where it doubles as the live
// queue-weight gauge — one atomic add maintains both.
type localList struct {
	mu   sync.Mutex
	cond *sync.Cond
	// ring holds the queued items, n of them from head on, wrapping: a FIFO
	// that reuses its backing array from run to run and grows only when full.
	ring    []item
	head, n int
	stopped bool
	asleep  bool          // the owner is in cond.Wait
	g       *workerGauges // owning worker's gauge slot (never nil)
}

func newLocalList(g *workerGauges) *localList {
	l := &localList{g: g}
	l.cond = sync.NewCond(&l.mu)
	return l
}

func (l *localList) push(it item) {
	l.mu.Lock()
	if l.n == len(l.ring) {
		grown := make([]item, max(16, 2*len(l.ring)))
		copied := copy(grown, l.ring[l.head:])
		copy(grown[copied:], l.ring[:l.head])
		l.ring, l.head = grown, 0
	}
	l.ring[(l.head+l.n)%len(l.ring)] = it
	l.n++
	l.g.llAdd(1, it.weight)
	l.mu.Unlock()
	l.cond.Signal()
}

// pop takes the head of the list; the caller holds mu.
func (l *localList) pop() (item, bool) {
	if l.n == 0 {
		return item{}, false
	}
	it := l.ring[l.head]
	l.ring[l.head] = item{} // drop the run and buffer references
	l.head = (l.head + 1) % len(l.ring)
	l.n--
	l.g.llAdd(-1, -it.weight)
	return it, true
}

// tryPop takes the head of the list if it has one.
func (l *localList) tryPop() (item, bool) {
	l.mu.Lock()
	it, ok := l.pop()
	l.mu.Unlock()
	return it, ok
}

// How fetch found an item: hot from the worker's own list, from it once idle,
// from a peer's while spinning, or from its own after parking.
type fetched uint8

const (
	fetchedHot fetched = iota
	fetchedIdle
	fetchedStolen
	fetchedWoken
)

// fetch is worker w's Fetch module: the head of its own list. An empty list
// makes the worker idle — it publishes WorkerParked and drops its labels —
// and while the pool has a dispatched run in flight and cores to spare
// (spinning) it polls for spinWindow: its own list's depth, then the head of
// each peer's list in turn. Then it parks on its list's condition variable
// until a push signals it. Queued items are always drained before a stop takes
// effect; ok is false once the list is stopped and empty. A worker draining a
// hot list takes one lock per item and performs no state stores.
func (p *Pool) fetch(w int) (it item, how fetched, ok bool) {
	l := p.lists[w]
	if it, ok := l.tryPop(); ok {
		return it, fetchedHot, true
	}
	l.g.state.Store(int32(WorkerParked))
	clearLabels(l.g)
	for spun := time.Now(); p.spinning() && time.Since(spun) < spinWindow; runtime.Gosched() {
		for i := range p.lists {
			src := p.lists[(w+i)%len(p.lists)]
			if src.g.depth() == 0 {
				continue
			}
			if it, ok := src.tryPop(); ok {
				if i > 0 {
					return it, fetchedStolen, true
				}
				return it, fetchedIdle, true
			}
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	how = fetchedIdle
	for {
		if it, ok := l.pop(); ok {
			return it, how, true
		}
		if l.stopped {
			return item{}, how, false
		}
		how = fetchedWoken
		l.asleep = true
		l.cond.Wait()
		l.asleep = false
	}
}

func (l *localList) stop() {
	l.mu.Lock()
	l.stopped = true
	l.mu.Unlock()
	l.cond.Broadcast()
}

// Pool is a set of persistent collaborative-scheduler workers. Workers park
// on their local ready lists between propagations, so the per-propagation
// cost of a Run is pushing the source tasks — no goroutine spawn, no stack
// growth, no scheduler warm-up. A Pool may execute any number of concurrent
// runs; their items interleave on the shared ready lists.
type Pool struct {
	lists  []*localList
	gauges *Gauges
	// started says the worker goroutines exist (start): from NewPool on for a
	// private pool, from the first Run for the process's, so a process whose
	// every run stays inline never has any.
	started atomic.Bool
	wg      sync.WaitGroup
	closed  atomic.Bool
	// inFlight is k, the scheduler runs in flight over this pool's cores,
	// inline and dispatched alike (EnterRun); dispatched counts the runs among
	// them that Run handed to the workers. Every run writes them, so they
	// have a cache line to themselves, off the one the workers read lists
	// from.
	_          [64]byte
	inFlight   atomic.Int64
	dispatched atomic.Int64
	_          [48]byte
}

func newPool(workers int) *Pool {
	p := &Pool{lists: make([]*localList, workers), gauges: NewGauges(workers)}
	for i := range p.lists {
		p.lists[i] = newLocalList(p.gauges.worker(i))
	}
	return p
}

// NewPool starts workers parked goroutines and returns a pool of its own
// for them — what a benchmark or an experiment measures. Close releases
// them. Engines do not call it: they borrow ProcessPool's.
func NewPool(workers int) (*Pool, error) {
	if workers < 1 {
		return nil, fmt.Errorf("sched: need at least 1 worker, got %d", workers)
	}
	p := newPool(workers)
	p.start()
	return p, nil
}

// process is the process's pools, one per worker count P an engine was ever
// compiled at (a server compiles every model at one, and so has one).
var process = struct {
	mu    sync.Mutex
	pools map[int]*Pool
}{pools: map[int]*Pool{}}

// ProcessPool returns the pool of workers goroutines (at least one) that
// every caller asking for that many shares, for the life of the process: it
// is never closed. Its goroutines start at the first Run dispatched to it,
// not here.
func ProcessPool(workers int) *Pool {
	workers = max(workers, 1)
	process.mu.Lock()
	defer process.mu.Unlock()
	p := process.pools[workers]
	if p == nil {
		p = newPool(workers)
		process.pools[workers] = p
	}
	return p
}

// start spawns the worker goroutines, the first time it is called. A caller
// that loses the race may queue items before the winner's goroutines exist;
// they fetch them when they do.
func (p *Pool) start() {
	if !p.started.CompareAndSwap(false, true) {
		return
	}
	for w := range p.lists {
		p.wg.Add(1)
		go p.work(w)
	}
}

// work is worker w's loop: Fetch, then process the item, until the pool
// closes.
func (p *Pool) work(w int) {
	defer p.wg.Done()
	wg := p.gauges.worker(w)
	executing := false
	for {
		it, how, ok := p.fetch(w)
		if !ok {
			wg.state.Store(int32(WorkerParked))
			return
		}
		// Publish the executing state only when it could have changed
		// (first item, or after idling) — the fast path stays free of
		// state stores.
		if !executing || how != fetchedHot {
			wg.state.Store(int32(WorkerExecuting))
			executing = true
		}
		switch how {
		case fetchedStolen:
			it.r.metrics[w].Steals++
		case fetchedWoken:
			it.r.metrics[w].Parks++
		}
		it.r.process(w, it)
	}
}

// Workers returns the pool size P.
func (p *Pool) Workers() int { return len(p.lists) }

// Gauges exposes the pool's live gauge surface for samplers.
func (p *Pool) Gauges() *Gauges { return p.gauges }

// EnterRun counts one more run in flight over the pool's cores and returns
// the workers the granularity rule is to price it at: P ÷ k, k including the
// run itself, and never below one. A server's first source of parallelism is
// its requests — with k runs active each has about P/k cores to itself, and
// from k ≥ P on InlineWeight sends every one of them to its caller's
// goroutine: no dispatch, no cache lines shared between workers, one core per
// query. Every engine that shares the workers shares the count, whichever
// executor its run then takes. The caller pairs it with exactly one LeaveRun,
// when the run has returned.
func (p *Pool) EnterRun() int {
	k := p.inFlight.Add(1)
	return max(1, int(int64(len(p.lists))/k))
}

// LeaveRun counts out a run EnterRun counted in.
func (p *Pool) LeaveRun() { p.inFlight.Add(-1) }

// RunsInFlight reads k.
func (p *Pool) RunsInFlight() int64 { return p.inFlight.Load() }

// spinning reports whether an idle worker polls before it parks: only inside
// a dispatched run, whose next hand-off is microseconds away, and only while
// k < P — from k ≥ P on, the inline runs of other requests own the cores.
// Between runs every idle worker parks.
func (p *Pool) spinning() bool {
	return p.dispatched.Load() > 0 && p.inFlight.Load() < int64(len(p.lists))
}

// Snapshot is the pool's live surface: the gauges' sweep with PoolSize and
// ActiveRuns read from the pool (P and k), and an empty worker list while no
// worker goroutine exists.
func (p *Pool) Snapshot() GaugesSnapshot {
	s := GaugesSnapshot{Workers: []WorkerGaugeSnapshot{}}
	if p.started.Load() {
		s = p.gauges.Snapshot()
	}
	s.PoolSize, s.ActiveRuns = len(p.lists), p.inFlight.Load()
	return s
}

// Close stops the workers after the queued items drain and waits for them
// to exit. Close is idempotent; Run after Close returns an error.
func (p *Pool) Close() {
	if p.closed.Swap(true) {
		return
	}
	for _, l := range p.lists {
		l.stop()
	}
	p.wg.Wait()
}

// run is the per-propagation bookkeeping shared by the pool workers.
type run struct {
	st        taskgraph.Executor
	g         *taskgraph.Graph
	opts      Options
	cut       cut // which tasks are partitioned, and how finely
	deps      []int32
	p         *Pool // the lists the run's items queue on, and their gauges
	remaining int64 // original tasks not yet complete
	failed    int32
	// rr is the round-robin cursor for spreading pieces. It is unsigned so
	// the slot index stays valid across wraparound: the modulo is taken on
	// the uint64 before converting, whereas int(signed)%n goes negative
	// once the cursor wraps past MaxInt64 and would index out of range.
	rr       uint64
	errOnce  sync.Once
	err      error
	doneOnce sync.Once
	done     chan struct{}
	metrics  []WorkerMetrics
	pieces   int64
	parted   int64
	// start is when Run began: every clock read of the run is an offset from
	// it, which time.Since takes off the monotonic clock alone.
	start time.Time
	// events holds each worker's trace events, nil when not tracing: worker w
	// appends only to events[w], and Run merges them once the run is done.
	events [][]Event
	labels *labelSet // pprof query/kind labels (nil when Options.QueryID == "")
}

// Run executes the state's task graph on the pool's workers and returns
// per-worker metrics. The state's potentials hold the propagation result
// afterwards. Run blocks until the propagation completes, fails, or its
// context is cancelled; any number of Runs may be in flight concurrently.
//
// A failed or cancelled Run returns without waiting for workers that are
// mid-item: such stragglers keep mutating the run's State, Workers metrics
// and trace until they hit the failed-run check, so on error the caller
// must not read Metrics.Workers, and the returned Trace carries no events
// (the run's event slices are left to the stragglers and then the GC).
func (p *Pool) Run(st taskgraph.Executor, opts Options) (*Metrics, error) {
	if p.closed.Load() {
		return nil, fmt.Errorf("sched: pool is closed")
	}
	g := st.Graph()
	n := g.N() // live tasks
	for _, live := range opts.Live {
		if !live {
			n--
		}
	}
	r := &run{
		st:        st,
		g:         g,
		opts:      opts,
		deps:      g.DepCounts(),
		p:         p,
		remaining: int64(n),
		metrics:   make([]WorkerMetrics, len(p.lists)),
		done:      make(chan struct{}),
		labels:    newLabelSet(opts.Ctx, opts.QueryID),
		cut:       newCut(g, opts.Threshold, len(p.lists)),
	}
	start := time.Now()
	r.start = start
	if n == 0 {
		m := &Metrics{Executor: ExecPool, Workers: r.metrics, Elapsed: time.Since(start)}
		if opts.Trace {
			m.Trace = &Trace{Workers: len(p.lists)}
		}
		return m, nil
	}
	if opts.Trace {
		r.events = make([][]Event, len(p.lists))
	}
	p.start()
	p.dispatched.Add(1)
	p.gauges.runStarted(n)
	// Line 1 of Algorithm 2: distribute the initially ready tasks evenly.
	for i, id := range g.Sources() {
		if r.live(id) {
			p.lists[i%len(p.lists)].push(r.wholeItem(id))
		}
	}
	<-r.done
	// A successful run has remaining == 0; a failed one writes off its
	// unfinished tasks so the GL-depth gauge doesn't leak (stragglers that
	// still retire tasks are why Snapshot clamps at zero).
	p.gauges.runFinished(atomic.LoadInt64(&r.remaining))
	if r.err == nil {
		// Fold the run's busy/item totals into the cumulative gauges. A
		// failed run is skipped: its stragglers still write r.metrics (see
		// the Run doc), so reading it here would race — that run's busy
		// time is simply not attributed.
		p.gauges.flushRun(r.metrics)
	}
	m := &Metrics{
		Executor:  ExecPool,
		Workers:   r.metrics,
		Elapsed:   time.Since(start),
		Tasks:     n - int(atomic.LoadInt64(&r.remaining)),
		Pieces:    int(atomic.LoadInt64(&r.pieces)),
		Partition: int(atomic.LoadInt64(&r.parted)),
	}
	if opts.Trace {
		m.Trace = &Trace{Workers: len(p.lists), Total: m.Elapsed}
		// A failed or cancelled run returns while workers may still be
		// executing already-fetched items of it, appending to its event slices
		// (and mutating Workers — see the Run doc): they are not read. A
		// worker's slice is in Start order, so concatenating them in worker
		// order is the trace's (Worker, Start) order.
		for w := 0; r.err == nil && w < len(r.events); w++ {
			m.Trace.Events = append(m.Trace.Events, r.events[w]...)
		}
	}
	return m, r.err
}

// live reports whether the run's mask (Options.Live) leaves the task standing:
// a masked task is never queued, and Allocate does not release it.
func (r *run) live(id int) bool { return r.opts.Live == nil || r.opts.Live[id] }

func (r *run) wholeItem(id int) item {
	return item{r: r, task: id, lo: 0, hi: -1, weight: int64(r.g.Tasks[id].Weight)}
}

func (r *run) fail(err error) {
	r.errOnce.Do(func() { r.err = err })
	atomic.StoreInt32(&r.failed, 1)
	r.finish()
}

// finish releases the Run call and counts the run out of the pool's
// dispatched runs. Pool workers are untouched: leftover items of a failed run
// are drained as no-ops by the failed-flag check.
func (r *run) finish() {
	r.doneOnce.Do(func() {
		r.p.dispatched.Add(-1)
		close(r.done)
	})
}

// process runs one fetched item through Partition and Execute, then
// performs the Allocate step for anything it completed.
func (r *run) process(w int, it item) {
	if atomic.LoadInt32(&r.failed) == 1 {
		return
	}
	if err := cancelled(r.opts.Ctx); err != nil {
		r.fail(err)
		return
	}
	switch {
	case it.comb == nil:
		// Lines 12–18: partition large tasks, execute small ones whole.
		if size, step := r.cut.step(r.st, it.task); step > 0 {
			r.partition(w, it.task, size, step)
			return
		}
	case !it.isComb:
		r.runPiece(w, it)
		return
	}
	// A whole task, or the combining subtask T̂n of a partitioned one:
	// executing it completes the task.
	if r.execute(w, it) {
		r.completeTask(w, it.task)
	}
}

// execute is the Execute module: it runs the item's primitive — a whole
// task, one piece, or the combining subtask — on worker w under the run's
// pprof labels, and accounts the call once: busy time in total and by kind,
// the item count, and the trace event. A failing primitive fails the run
// with the item named in the error; execute reports whether it succeeded.
func (r *run) execute(w int, it item) bool {
	task := &r.g.Tasks[it.task]
	r.labels.apply(task.Kind, r.p.gauges.worker(w))
	t0 := time.Since(r.start)
	var err error
	switch {
	case it.isComb:
		err = r.st.Combine(it.task, it.comb.bufs)
	case it.comb != nil:
		err = r.st.ExecutePiece(it.task, it.lo, it.hi, it.buf)
	default:
		err = r.st.Execute(it.task)
	}
	d := time.Since(r.start) - t0
	wm := &r.metrics[w]
	wm.Busy += d
	wm.KindBusy[task.Kind] += d
	wm.Tasks++
	if r.events != nil {
		r.events[w] = append(r.events[w], Event{Worker: w, Task: it.task, Kind: task.Kind,
			Lo: it.lo, Hi: it.hi, Comb: it.isComb, Start: t0, End: t0 + d})
	}
	if err == nil {
		return true
	}
	switch {
	case it.isComb:
		err = fmt.Errorf("sched: combine %s: %w", task.String(), err)
	case it.comb != nil:
		err = fmt.Errorf("sched: piece [%d,%d) of %s: %w", it.lo, it.hi, task.String(), err)
	default:
		err = fmt.Errorf("sched: task %s: %w", task.String(), err)
	}
	r.fail(err)
	return false
}

// cut is a run's partition verdict: a fixed δ, or Split's piece counts for the
// graph at P workers under ThresholdAuto. It is a function of (graph,
// threshold, P) alone, so the pool that applies it and an inline run that
// replays it (RunInline) cut the same tasks at the same entries.
type cut struct {
	g     *taskgraph.Graph
	δ     int     // > 0: every task larger than δ goes into pieces of at least δ
	most  int     // under a fixed δ, the pieces one task may be cut into
	split []int32 // per-task piece counts, nil: Split cuts nothing
}

// piecesPerWorker bounds a fixed δ's cut per worker: each Marginalize piece
// after the first holds a separator-sized buffer until the task combines, so
// an unbounded small δ made a wide run allocate per piece.
const piecesPerWorker = 2

func newCut(g *taskgraph.Graph, threshold, workers int) cut {
	if threshold < 0 {
		return cut{g: g, split: Split(g, workers)}
	}
	return cut{g: g, δ: threshold, most: piecesPerWorker * max(workers, 1)}
}

// none reports a verdict that leaves every task whole.
func (c cut) none() bool { return c.δ == 0 && c.split == nil }

// step is the Partition module's test (line 12): it returns the task's
// partitionable size and the piece length it is to be cut into, 0 when it
// runs whole. Under a fixed δ every task larger than δ is cut into pieces of
// δ, lengthened where that would make more than piecesPerWorker·P of them;
// under ThresholdAuto the tasks Split names are cut into that many equal
// pieces. Either length is snapped to the task's kernel grain.
func (c cut) step(st taskgraph.Executor, id int) (size, step int) {
	switch {
	case c.δ > 0:
		if size = st.PartitionSize(id); size > c.δ {
			grain := c.g.Tasks[id].Grain
			step = max(snapStep(c.δ, grain), snapStep((size+c.most-1)/c.most, grain))
		}
	case c.split != nil && c.split[id] > 1:
		size = st.PartitionSize(id)
		n := int(c.split[id])
		if step = snapStep((size+n-1)/n, c.g.Tasks[id].Grain); step >= size {
			step = 0 // snapping left one piece
		}
	}
	return size, step
}

// partition splits task id into pieces of step entries (line 13): the first
// piece runs inline and reduces straight into the task's destination, the
// rest are spread evenly over the local lists with a private buffer each, and
// a combiner item fires when the last piece finishes. The buffers come as
// they are — each piece clears its own when it executes — so the Overhead
// window here is queueing alone.
func (r *run) partition(w int, id, size, step int) {
	tPart := time.Since(r.start)
	n := (size + step - 1) / step
	comb := &combiner{task: id, pending: int32(n)}
	atomic.AddInt64(&r.parted, 1)
	r.p.gauges.worker(w).partitions.Add(1)
	for k := 1; k < n; k++ {
		lo := k * step
		hi := min(lo+step, size)
		it := item{r: r, task: id, lo: lo, hi: hi, comb: comb,
			weight: pieceWeight(r.g.Tasks[id].Weight, hi-lo, size),
			buf:    r.st.NewPartialBuffer(id)}
		if it.buf != nil {
			// Only the combiner reads bufs, and it cannot fire before the
			// first piece, run below, has finished.
			comb.bufs = append(comb.bufs, it.buf)
		}
		r.p.lists[atomic.AddUint64(&r.rr, 1)%uint64(len(r.p.lists))].push(it)
	}
	hi := min(step, size)
	first := item{r: r, task: id, lo: 0, hi: hi, comb: comb,
		weight: pieceWeight(r.g.Tasks[id].Weight, hi, size)}
	r.metrics[w].Overhead += time.Since(r.start) - tPart
	r.runPiece(w, first)
}

// cacheLineEntries is one 64-byte cache line of float64 table entries, the
// minimum useful piece granularity: a split inside a line makes two workers
// touch (and for Multiply/Divide, write) the same line.
const cacheLineEntries = 8

// snapStep rounds the partition threshold δ up to the piece length actually
// used: a multiple of the task's kernel grain (so split points land on run
// boundaries of the blocked kernels — each piece then pays one O(w) seek and
// no two pieces reduce into the same destination cell) that also spans at
// least one cache line. Tasks with sub-line grains keep run alignment — the
// bumped grain is a multiple of the original — while tasks whose grain
// already exceeds a line are left on pure run boundaries.
func snapStep(δ, grain int) int {
	g := grain
	if g < 1 {
		g = 1
	}
	if g < cacheLineEntries {
		g *= (cacheLineEntries + g - 1) / g
	}
	return (δ + g - 1) / g * g
}

// pieceWeight prorates a task's weight over a piece's span, so the snapped
// (and possibly short final) pieces load the W_i counters in proportion to
// the work they actually carry.
func pieceWeight(taskW float64, span, size int) int64 {
	return int64(taskW*float64(span)/float64(size)) + 1
}

func (r *run) runPiece(w int, it item) {
	atomic.AddInt64(&r.pieces, 1)
	if !r.execute(w, it) {
		return
	}
	c := it.comb
	if atomic.AddInt32(&c.pending, -1) == 0 {
		// This worker finished the last piece: it runs T̂n itself.
		r.process(w, item{r: r, task: c.task, hi: -1, comb: c, isComb: true,
			weight: int64(r.g.Tasks[c.task].Weight)})
	}
}

// completeTask is the Allocate module (lines 4–10): decrement successor
// dependency degrees and hand newly ready tasks to the least-loaded list.
func (r *run) completeTask(w int, id int) {
	tAlloc := time.Since(r.start)
	for _, s := range r.g.Tasks[id].Succs {
		if r.live(s) && atomic.AddInt32(&r.deps[s], -1) == 0 {
			r.allocate(w, r.wholeItem(s))
		}
	}
	r.metrics[w].Overhead += time.Since(r.start) - tAlloc
	r.p.gauges.worker(w).completed.Add(1)
	if atomic.AddInt64(&r.remaining, -1) == 0 {
		r.finish()
	}
}

// allocate pushes a ready task onto the list with the smallest weight
// counter (line 7: j = argmin W_t). A tie goes to the list of w, the worker
// that completed the predecessor: with every list empty it keeps the
// successor and runs it next, hot, instead of handing it to a peer.
func (r *run) allocate(w int, it item) {
	best, bestW := w, r.p.lists[w].g.llWeight()
	for i, l := range r.p.lists {
		if wt := l.g.llWeight(); wt < bestW {
			best, bestW = i, wt
		}
	}
	r.p.lists[best].push(it)
}
