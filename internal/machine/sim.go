package machine

import (
	"container/heap"
	"fmt"
	"io"
	"math"

	"evprop/internal/taskgraph"
)

// Result reports one simulated execution.
type Result struct {
	// Makespan is the simulated wall-clock time in seconds.
	Makespan float64
	// Busy is per-core time spent inside node-level primitives.
	Busy []float64
	// Overhead is per-core time spent on scheduling operations.
	Overhead []float64
	// Pieces counts partitioned subtasks executed.
	Pieces int
	// Spans is the per-item execution timeline (only recorded by
	// SimulateCollaborativeOpts with RecordSpans).
	Spans []Span
}

// Span is one executed item on a simulated core's timeline.
type Span struct {
	Core       int
	Start, End float64 // seconds
	Task       int
}

// TotalBusy sums the per-core busy times.
func (r *Result) TotalBusy() float64 {
	s := 0.0
	for _, b := range r.Busy {
		s += b
	}
	return s
}

// SerialTime is the simulated single-thread execution time: the sum of all
// task service times (the reference for every speedup in the paper).
func SerialTime(g *taskgraph.Graph, cm CostModel) float64 {
	return cm.service(g.TotalWeight())
}

// CriticalPathTime is the lower bound on any schedule's makespan.
func CriticalPathTime(g *taskgraph.Graph, cm CostModel) float64 {
	return cm.service(g.CriticalPathWeight())
}

// --- event-driven core engine -------------------------------------------

type simItem struct {
	service float64 // seconds of primitive work
	taskID  int     // original task (for successor bookkeeping)
	comb    *simComb
	isComb  bool
}

type simComb struct {
	taskID  int
	pending int
	weight  float64 // entries the combining subtask touches
}

type simEvent struct {
	at   float64
	seq  int
	core int
	item simItem
}

type eventHeap []simEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)    { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)      { *h = append(*h, x.(simEvent)) }
func (h *eventHeap) Pop() any        { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h *eventHeap) push(e simEvent) { heap.Push(h, e) }
func (h *eventHeap) pop() simEvent   { return heap.Pop(h).(simEvent) }
func (h eventHeap) empty() bool      { return len(h) == 0 }
func (r *Result) grow(p int)         { r.Busy = make([]float64, p); r.Overhead = make([]float64, p) }
func maxf(a, b float64) float64      { return math.Max(a, b) }

// collabSim simulates the collaborative scheduler (and, with a dedicated
// dispatcher, the centralized one).
type collabSim struct {
	g         *taskgraph.Graph
	cm        CostModel
	p         int
	threshold float64 // δ in weight units; 0 disables partitioning
	pieces    []int32 // per-task piece counts, used instead of δ when set
	central   bool    // centralized variant: core 0 only dispatches

	deps      []int32
	coreClock []float64
	coordTime float64 // centralized: coordinator core's clock
	events    eventHeap
	seq       int
	res       Result
	rr        int
	rrAlloc   bool // ablation: round-robin instead of least-loaded
	spans     bool
}

// CollabOptions tunes the collaborative-scheduler simulation beyond the
// paper's defaults, for the ablation experiments.
type CollabOptions struct {
	// Threshold is δ in table entries; 0 disables partitioning.
	Threshold float64
	// Pieces, when non-nil, replaces δ by an explicit verdict: task id is
	// cut into Pieces[id] equal pieces (below 2: it runs whole). It is how
	// the scheduler's own rule, sched.Split(g, p), is simulated.
	Pieces []int32
	// RoundRobinAlloc replaces the least-loaded allocation rule (line 7 of
	// Algorithm 2) with blind round-robin — the ablation isolating how
	// much the weight counters contribute.
	RoundRobinAlloc bool
	// RecordSpans captures the per-item execution timeline in
	// Result.Spans for Gantt rendering.
	RecordSpans bool
}

// SimulateCollaborative runs the collaborative scheduler of Section 6 on a
// simulated P-core machine. threshold is δ expressed in table entries; 0
// disables task partitioning (the Fig. 5 configuration).
func SimulateCollaborative(g *taskgraph.Graph, p int, threshold float64, cm CostModel) (*Result, error) {
	return SimulateCollaborativeOpts(g, p, cm, CollabOptions{Threshold: threshold})
}

// SimulateCollaborativeOpts is SimulateCollaborative with ablation knobs.
func SimulateCollaborativeOpts(g *taskgraph.Graph, p int, cm CostModel, opts CollabOptions) (*Result, error) {
	if p < 1 {
		return nil, fmt.Errorf("machine: need p >= 1, got %d", p)
	}
	s := &collabSim{g: g, cm: cm, p: p, threshold: opts.Threshold, pieces: opts.Pieces,
		rrAlloc: opts.RoundRobinAlloc, spans: opts.RecordSpans}
	return s.run()
}

// SimulateConcurrent runs k propagations of g at once on one collaborative pool
// of P cores — what a server does with k queries in flight when every one of
// them is dispatched. The k runs are the disjoint union of k copies of the
// graph: every copy's sources are handed out at time zero and its tasks
// interleave with the other copies' on the cores' queues, as the items of
// concurrent runs do on a sched.Pool's ready lists. Makespan is when the last
// copy finishes, so k/Makespan is the throughput of k callers in a closed loop.
// opts.Pieces, when set, is the verdict for one copy and applies to each.
func SimulateConcurrent(g *taskgraph.Graph, k, p int, cm CostModel, opts CollabOptions) (*Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("machine: need k >= 1 runs, got %d", k)
	}
	n := g.N()
	union := &taskgraph.Graph{Tree: g.Tree, Tasks: make([]taskgraph.Task, 0, k*n)}
	var pieces []int32
	for c := 0; c < k; c++ {
		for _, t := range g.Tasks {
			t.ID += c * n
			succs := make([]int, len(t.Succs))
			for i, s := range t.Succs {
				succs[i] = s + c*n
			}
			t.Succs = succs
			union.Tasks = append(union.Tasks, t)
		}
		pieces = append(pieces, opts.Pieces...)
	}
	opts.Pieces = pieces
	return SimulateCollaborativeOpts(union, p, cm, opts)
}

// ConcurrentInlineTime is the makespan of the same k propagations with no
// scheduler at all: each runs start to finish on a core of its own, min(k, P)
// of them at a time, so ⌈k/P⌉ rounds of SerialTime — inflated, as every
// simulated primitive is, by the memory load of the cores streaming beside it.
func ConcurrentInlineTime(g *taskgraph.Graph, k, p int, cm CostModel) float64 {
	rounds := (k + p - 1) / p
	return float64(rounds) * cm.loadedService(g.TotalWeight(), min(k, p))
}

// SimulateCentralized runs the Cell-BE-style centralized scheduler: core 0
// is a dedicated dispatcher through which every allocation serializes, and
// only cores 1..P-1 execute primitives.
func SimulateCentralized(g *taskgraph.Graph, p int, threshold float64, cm CostModel) (*Result, error) {
	if p < 2 {
		return nil, fmt.Errorf("machine: centralized needs p >= 2, got %d", p)
	}
	s := &collabSim{g: g, cm: cm, p: p, threshold: threshold, central: true}
	return s.run()
}

func (s *collabSim) workers() (lo, hi int) {
	if s.central {
		return 1, s.p
	}
	return 0, s.p
}

func (s *collabSim) run() (*Result, error) {
	s.deps = s.g.DepCounts()
	s.coreClock = make([]float64, s.p)
	s.res.grow(s.p)
	if s.g.N() == 0 {
		return &s.res, nil
	}
	for _, id := range s.g.Sources() {
		s.allocate(id, 0, true)
	}
	completed := 0
	for !s.events.empty() {
		ev := s.events.pop()
		now := ev.at
		it := ev.item
		switch {
		case it.isComb:
			s.completeTask(it.taskID, now)
			completed++
		case it.comb != nil:
			it.comb.pending--
			if it.comb.pending == 0 {
				// The combiner runs on the core that finished last.
				comb := simItem{
					service: s.cm.loadedService(it.comb.weight, s.p),
					taskID:  it.comb.taskID,
					isComb:  true,
				}
				s.pushTo(ev.core, comb, now)
			}
		default:
			s.completeTask(it.taskID, now)
			completed++
		}
	}
	if completed != s.g.N() {
		return nil, fmt.Errorf("machine: deadlock, %d of %d tasks completed", completed, s.g.N())
	}
	makespan := 0.0
	for _, c := range s.coreClock {
		makespan = maxf(makespan, c)
	}
	s.res.Makespan = maxf(makespan, s.coordTime)
	return &s.res, nil
}

func (s *collabSim) completeTask(id int, now float64) {
	for _, succ := range s.g.Tasks[id].Succs {
		s.deps[succ]--
		if s.deps[succ] == 0 {
			s.allocate(succ, now, false)
		}
	}
}

// allocate routes a ready task to a core: round-robin for the initial even
// distribution (line 1 of Algorithm 2), least-loaded otherwise (line 7).
func (s *collabSim) allocate(id int, now float64, initial bool) {
	w := s.g.Tasks[id].Weight
	if n := s.pieceCount(id); n > 0 {
		s.partition(id, n, now)
		return
	}
	item := simItem{service: s.cm.loadedService(w, s.p), taskID: id}
	s.pushTo(s.pickCore(now, initial), item, now)
}

// pieceCount is the Partition module's test: the number of pieces task id is
// cut into, 0 when it runs whole — ⌈w/δ⌉ for every task heavier than δ, or
// what the explicit verdict says.
func (s *collabSim) pieceCount(id int) int {
	if s.pieces != nil {
		if n := int(s.pieces[id]); n > 1 {
			return n
		}
		return 0
	}
	w := s.g.Tasks[id].Weight
	if s.threshold <= 0 || w <= s.threshold {
		return 0
	}
	n := int(math.Ceil(w / s.threshold))
	if lo, hi := s.workers(); n > 8*(hi-lo) {
		n = 8 * (hi - lo) // the real scheduler caps nothing, but the sim
		// needs no finer granularity than the core count to model load
	}
	return n
}

// partition splits the task into n pieces spread over the cores; the
// combining subtask is scheduled when the last piece finishes. Pieces of an
// in-place primitive write disjoint ranges and their combiner only hands the
// task's successors on. A Marginalize is input-partitioned: every piece after
// the first reduces into a private separator-sized buffer that it clears
// first (one pass over |S| entries), and the combiner reads each such buffer
// and adds it into the shared one (two more) — 3·(n−1)·|S| entries the whole
// task never touches, all of them charged here.
func (s *collabSim) partition(id, n int, now float64) {
	t := &s.g.Tasks[id]
	comb := &simComb{taskID: id, pending: n}
	sep := 0.0
	if t.Kind == taskgraph.Marginalize {
		sep = float64(s.g.SepSize(id))
		comb.weight = 2 * float64(n-1) * sep
	}
	// Pieces carry no memory-contention inflation: unlike the lock-step
	// data-parallel baselines, the collaborative scheduler interleaves
	// pieces with unrelated tasks, so the cores rarely stream one table
	// simultaneously — the locality advantage the paper credits for the
	// method's near-linear scaling.
	for k := 0; k < n; k++ {
		w := t.Weight / float64(n)
		if k > 0 {
			w += sep
		}
		// Pieces go to the least-loaded cores, the same balancing rule the
		// Allocate module applies to whole tasks; pushing updates the core
		// clocks, so consecutive pieces spread across the machine.
		s.pushTo(s.pickCore(now, false), simItem{service: s.cm.loadedService(w, s.p), taskID: id, comb: comb}, now)
		s.res.Pieces++
	}
}

// pickCore returns the least-loaded worker core at time now (round-robin
// for the initial distribution and under the RoundRobinAlloc ablation).
func (s *collabSim) pickCore(now float64, initial bool) int {
	lo, hi := s.workers()
	if initial || s.rrAlloc {
		core := lo + (s.rr % (hi - lo))
		s.rr++
		return core
	}
	best, bestLoad := lo, math.Inf(1)
	for c := lo; c < hi; c++ {
		load := s.coreClock[c] - now
		if load < 0 {
			load = 0
		}
		if load < bestLoad {
			best, bestLoad = c, load
		}
	}
	return best
}

// pushTo enqueues the item on a core's FIFO queue, paying the dispatch
// overhead (on the dedicated coordinator in the centralized variant).
func (s *collabSim) pushTo(core int, it simItem, now float64) {
	disp := s.cm.dispatchCost(s.p)
	start := maxf(s.coreClock[core], now)
	if s.central {
		// Every dispatch serializes through the coordinator core.
		dispDone := maxf(s.coordTime, now) + disp
		s.coordTime = dispDone
		s.res.Overhead[0] += disp
		start = maxf(s.coreClock[core], dispDone)
	} else {
		s.res.Overhead[core] += disp
		start += disp
	}
	s.coreClock[core] = start + it.service
	s.res.Busy[core] += it.service
	if s.spans {
		s.res.Spans = append(s.res.Spans, Span{
			Core: core, Start: s.coreClock[core] - it.service, End: s.coreClock[core], Task: it.taskID,
		})
	}
	s.seq++
	s.events.push(simEvent{at: s.coreClock[core], seq: s.seq, core: core, item: it})
}

// Gantt renders the recorded spans as a fixed-width text chart, one row per
// core ('█' busy, '·' idle) — the simulated counterpart of the real
// scheduler's trace Gantt.
func (r *Result) Gantt(w io.Writer, width int) {
	if width < 10 {
		width = 10
	}
	if r.Makespan <= 0 || len(r.Spans) == 0 {
		fmt.Fprintln(w, "(no spans recorded)")
		return
	}
	cores := len(r.Busy)
	fmt.Fprintf(w, "simulated gantt: %d cores over %.4fs\n", cores, r.Makespan)
	scale := float64(width) / r.Makespan
	for core := 0; core < cores; core++ {
		row := make([]rune, width)
		for i := range row {
			row[i] = '·'
		}
		for _, s := range r.Spans {
			if s.Core != core {
				continue
			}
			lo := int(s.Start * scale)
			hi := int(s.End * scale)
			if hi >= width {
				hi = width - 1
			}
			for i := lo; i <= hi; i++ {
				row[i] = '█'
			}
		}
		fmt.Fprintf(w, "c%-2d %s\n", core, string(row))
	}
}
