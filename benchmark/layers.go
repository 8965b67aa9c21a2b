package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"evprop"
	"evprop/internal/bayesnet"
	"evprop/internal/bif"
	"evprop/internal/cache"
	"evprop/internal/jtree"
	"evprop/internal/lazy"
	"evprop/internal/machine"
	"evprop/internal/obs"
	"evprop/internal/obs/trace"
	"evprop/internal/potential"
	"evprop/internal/registry"
	"evprop/internal/sched"
	"evprop/internal/taskgraph"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public functions. Spans of one traced query share its index.
type span struct {
	Name    string  `json:"name"`
	Query   int     `json:"query"`
	StartUs float64 `json:"start_us"`
	DurUs   float64 `json:"dur_us"`
}

// spanLog keeps every span of a traced run in memory; the run's per-layer
// timings are medians over it, and -out writes it with the results.
type spanLog struct {
	t0    time.Time
	spans []span
}

func (l *spanLog) add(name string, query int, start time.Time, d time.Duration) {
	l.spans = append(l.spans, span{Name: name, Query: query, StartUs: float64(start.Sub(l.t0)) / 1e3, DurUs: float64(d) / 1e3})
}

// time runs f inside a span and passes its error on.
func (l *spanLog) time(name string, query int, f func() error) error {
	start := time.Now()
	err := f()
	l.add(name, query, start, time.Since(start))
	return err
}

func (l *spanLog) durations(name string) []float64 {
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, s.DurUs)
		}
	}
	return out
}

func (l *spanLog) median(name string) float64 { return median(l.durations(name)) }

// layerSet collects a traced run's per-layer metrics.
type layerSet map[string]metricValue

func (ls layerSet) put(name string, v float64, unit string) {
	ls[name] = metricValue{Value: v, Unit: unit}
}

// autoDelta is the partition threshold evprop.Compile picks when none is
// configured — twice the mean clique table, rounded up to a cache line of
// entries. evserve compiles with it, so the traced runs use it too.
func autoDelta(t *jtree.Tree) int {
	total := 0
	for i := range t.Cliques {
		total += t.Cliques[i].TableSize()
	}
	return (2*total/t.N() + 7) / 8 * 8
}

// compiled is the workload's model taken apart layer by layer.
type compiled struct {
	inner  *bayesnet.Network
	tree   *jtree.Tree // rerooted, as the engine propagates over it
	graph  *taskgraph.Graph
	prop   *lazy.Prop
	delta  int
	public *evprop.Network
}

// traceSetUp walks the compile pipeline five times with a span around each
// stage, and reports each stage's median next to the tree's size.
func (e *env) traceSetUp(ls layerSet, log *spanLog) (*compiled, error) {
	c := &compiled{}
	path := filepath.Join(e.modelsDir, e.w.model+".bif")
	var raw *jtree.Tree
	stages := []struct {
		name string
		run  func() error
	}{
		{"bif.parse", func() error {
			doc, err := bif.Parse(bytes.NewReader(e.bif))
			if err == nil {
				c.inner, _, err = doc.ToNetwork()
			}
			return err
		}},
		{"bayesnet.compile", func() (err error) {
			raw, err = c.inner.Compile()
			return err
		}},
		{"jtree.reroot", func() (err error) {
			c.tree = raw.Clone()
			if r := c.tree.SelectRoot(); r != c.tree.Root {
				c.tree, err = c.tree.Reroot(r)
			}
			return err
		}},
		{"taskgraph.build", func() error {
			c.graph = taskgraph.Build(c.tree)
			return nil
		}},
		{"lazy.precalibrate", func() (err error) {
			c.prop, err = lazy.New(c.tree, c.graph)
			return err
		}},
		{"registry.ready", func() error {
			reg := registry.New(evprop.Options{Workers: 2, CacheSize: 32})
			defer reg.Close()
			return reg.LoadSync(e.w.model, registry.FileSource(path))
		}},
	}
	for rep := 0; rep < 5; rep++ {
		for _, stage := range stages {
			if err := log.time(stage.name, rep, stage.run); err != nil {
				return nil, fmt.Errorf("traced set-up: %s: %w", stage.name, err)
			}
		}
	}
	for _, stage := range stages {
		ls.put(stage.name+"_ms", log.median(stage.name)/1e3, "ms")
	}
	c.delta = autoDelta(raw)
	maxTable, total := 0, 0
	for i := range c.tree.Cliques {
		size := c.tree.Cliques[i].TableSize()
		total += size
		maxTable = max(maxTable, size)
	}
	ls.put("jtree.cliques", float64(c.tree.N()), "count")
	ls.put("jtree.max_table_entries", float64(maxTable), "count")
	ls.put("jtree.total_entries", float64(total), "count")
	var err error
	c.public, _, err = evprop.ParseBIF(bytes.NewReader(e.bif))
	return c, err
}

// ids turns a request's named evidence into the internal form.
func (c *compiled) ids(r request) potential.Evidence {
	ev := potential.Evidence{}
	for name, state := range r.evidence {
		ev[c.inner.ID(name)] = state
	}
	return ev
}

// memDelta runs f and returns the heap objects and bytes it allocated.
func memDelta(f func() error) (mallocs, bytes float64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc), err
}

// traced is one traced run's in-process state: the model taken apart, the
// queries in both forms, and where spans and metrics go. Each layer is one
// method and one sequential pass over the queries, with two workers where a
// layer has workers.
type traced struct {
	*compiled
	ls   layerSet
	log  *spanLog
	reqs []request
	ievs []potential.Evidence
	n    float64
}

func (e *env) traceEngine(ls layerSet, log *spanLog, c *compiled, reqs []request) error {
	t := &traced{compiled: c, ls: ls, log: log, reqs: reqs, ievs: make([]potential.Evidence, len(reqs)), n: float64(len(reqs))}
	for q, r := range reqs {
		t.ievs[q] = c.ids(r)
	}
	for _, layer := range []func() error{t.core, t.graphAndScheduler, t.cache, t.lazy, t.machineAndObs} {
		if err := layer(); err != nil {
			return fmt.Errorf("traced run: %w", err)
		}
	}
	return nil
}

// core is the public engine as evserve compiles it, minus the cache.
func (t *traced) core() error {
	eng, err := t.public.Compile(evprop.Options{Workers: 2})
	if err != nil {
		return err
	}
	defer eng.Close()
	mallocs, heapBytes, err := memDelta(func() error {
		for q, r := range t.reqs {
			var res *evprop.QueryResult
			if err := t.log.time("core.propagate", q, func() (err error) {
				res, err = eng.Propagate(evprop.Evidence(r.evidence))
				return err
			}); err != nil {
				return err
			}
			err := t.log.time("core.collect", q, func() error {
				_, err := res.Posteriors(r.targets...)
				return err
			})
			res.Close()
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for q, r := range t.reqs {
		res, err := eng.Propagate(evprop.Evidence(r.evidence))
		if err != nil {
			return err
		}
		err = t.log.time("core.mpe", q, func() error {
			_, _, err := res.MPE()
			return err
		})
		res.Close()
		if err != nil {
			return err
		}
	}
	t.ls.put("core.propagate_us", t.log.median("core.propagate"), "us")
	t.ls.put("core.collect_us", t.log.median("core.collect"), "us")
	t.ls.put("core.mpe_us", t.log.median("core.mpe"), "us")
	t.ls.put("core.allocs_per_query", mallocs/t.n, "count")
	t.ls.put("core.alloc_kb_per_query", heapBytes/t.n/1024, "kB")
	return nil
}

// graphAndScheduler runs one propagation state three ways: the serial
// reference executor (taskgraph), then the collaborative scheduler at one and
// at two workers at the engine's delta (sched); the one-worker runs also
// split the kernels' time by primitive (potential).
func (t *traced) graphAndScheduler() error {
	st, err := t.graph.NewState()
	if err != nil {
		return err
	}
	for q, iev := range t.ievs {
		st.Reset(taskgraph.SumProduct)
		if err := t.log.time("taskgraph.absorb", q, func() error { return st.AbsorbEvidence(iev) }); err != nil {
			return err
		}
		if err := t.log.time("taskgraph.serial", q, st.RunSerial); err != nil {
			return err
		}
	}
	serial := t.log.median("taskgraph.serial")
	t.ls.put("taskgraph.tasks", float64(t.graph.N()), "count")
	t.ls.put("taskgraph.absorb_us", t.log.median("taskgraph.absorb"), "us")
	t.ls.put("taskgraph.serial_us", serial, "us")

	var kindBusy [taskgraph.NumKinds]time.Duration
	var pieces, partitioned, overheadShare, idleShare, balance float64
	for _, workers := range []int{1, 2} {
		pool, err := sched.NewPool(workers)
		if err != nil {
			return err
		}
		defer pool.Close()
		for q, iev := range t.ievs {
			st.Reset(taskgraph.SumProduct)
			if err := st.AbsorbEvidence(iev); err != nil {
				return err
			}
			var m *sched.Metrics
			if err := t.log.time(fmt.Sprintf("sched.run_w%d", workers), q, func() (err error) {
				m, err = pool.Run(st, sched.Options{Threshold: t.delta})
				return err
			}); err != nil {
				return err
			}
			if workers == 1 {
				for _, wm := range m.Workers {
					for k, d := range wm.KindBusy {
						kindBusy[k] += d
					}
				}
				continue
			}
			rep := obs.FromSched(m)
			pieces += float64(m.Pieces)
			partitioned += float64(m.Partition)
			overheadShare += rep.OverheadFraction
			balance += rep.LoadBalance
			idleShare += 1 - float64(rep.TotalBusy()+rep.TotalOverhead())/float64(time.Duration(workers)*m.Elapsed)
		}
	}
	w1, w2 := t.log.median("sched.run_w1"), t.log.median("sched.run_w2")
	t.ls.put("sched.run_w1_us", w1, "us")
	t.ls.put("sched.run_w2_us", w2, "us")
	t.ls.put("sched.overhead_us", w1-serial, "us")
	t.ls.put("sched.speedup_w2", serial/w2, "ratio")
	t.ls.put("sched.pieces", pieces/t.n, "count")
	t.ls.put("sched.partitioned", partitioned/t.n, "count")
	t.ls.put("sched.overhead_share", overheadShare/t.n, "ratio")
	t.ls.put("sched.idle_share", idleShare/t.n, "ratio")
	t.ls.put("sched.load_balance", balance/t.n, "ratio")

	entries := t.graph.TotalWeight()
	var busy time.Duration
	for _, d := range kindBusy {
		busy += d
	}
	t.ls.put("potential.entries_per_query", entries, "count")
	t.ls.put("potential.ns_per_entry", serial*1e3/entries, "ns")
	for k, d := range kindBusy {
		t.ls.put("potential.share_"+taskgraph.Kind(k).String(), float64(d)/float64(busy), "ratio")
	}
	return nil
}

// cache times the signature, a hit and a miss through an engine with the
// server's cache size. Every query runs twice; the second run is always a hit.
func (t *traced) cache() error {
	eng, err := t.public.Compile(evprop.Options{Workers: 2, CacheSize: 32})
	if err != nil {
		return err
	}
	defer eng.Close()
	for q, r := range t.reqs {
		for _, again := range []bool{false, true} {
			start := time.Now()
			res, err := eng.Propagate(evprop.Evidence(r.evidence))
			if err != nil {
				return err
			}
			propagated := time.Since(start)
			_, err = res.Posteriors(r.targets...)
			total := time.Since(start)
			switch {
			case again:
				t.log.add("cache.hit", q, start, total)
			case !res.Cached():
				t.log.add("cache.miss", q, start, propagated)
			}
			res.Close()
			if err != nil {
				return err
			}
		}
	}
	const sigReps = 20
	start := time.Now()
	for rep := 0; rep < sigReps; rep++ {
		for _, iev := range t.ievs {
			signatureSink = cache.Signature(byte(taskgraph.SumProduct), iev, nil)
		}
	}
	t.ls.put("cache.signature_ns", float64(time.Since(start))/(sigReps*t.n), "ns")
	t.ls.put("cache.hit_us", t.log.median("cache.hit"), "us")
	t.ls.put("cache.miss_extra_us", t.log.median("cache.miss")-t.log.median("core.propagate"), "us")
	return nil
}

// lazy sends the same queries through the lazy engine, and probes the plan
// cache directly: each query's state is built twice, the second build always
// finds the plan, so the difference is the plan's construction.
func (t *traced) lazy() error {
	eng, err := t.public.Compile(evprop.Options{Workers: 2, Lazy: true})
	if err != nil {
		return err
	}
	defer eng.Close()
	var tasksRun, tasksAll, flops, flopsFull float64
	for q, r := range t.reqs {
		var res *evprop.QueryResult
		if err := t.log.time("lazy.propagate", q, func() (err error) {
			res, err = eng.Propagate(evprop.Evidence(r.evidence))
			return err
		}); err != nil {
			return err
		}
		err := t.log.time("lazy.collect", q, func() error {
			_, err := res.Posteriors(r.targets...)
			return err
		})
		if s, ok := res.PropagationStats(); ok {
			tasksRun += float64(s.TasksRun)
			tasksAll += float64(s.TasksRun + s.TasksSkipped)
			flops += float64(s.Flops)
			flopsFull += float64(s.FlopsFull)
		}
		res.Close()
		if err != nil {
			return err
		}
	}
	planHits := 0.0
	for q, iev := range t.ievs {
		start := time.Now()
		first, err := t.prop.NewState(taskgraph.SumProduct, iev, nil)
		built := time.Since(start)
		if err != nil {
			return err
		}
		again := time.Now()
		_, err = t.prop.NewState(taskgraph.SumProduct, iev, nil)
		found := time.Since(again)
		if err != nil {
			return err
		}
		if first.PlanHit() {
			planHits++
		} else {
			t.log.add("lazy.plan_build", q, start, built-found)
		}
	}
	planBuild := 0.0
	if planHits < t.n {
		planBuild = t.log.median("lazy.plan_build")
	}
	t.ls.put("lazy.propagate_us", t.log.median("lazy.propagate"), "us")
	t.ls.put("lazy.plan_build_us", planBuild, "us")
	t.ls.put("lazy.plan_hit_share", planHits/t.n, "ratio")
	t.ls.put("lazy.tasks_run_share", tasksRun/tasksAll, "ratio")
	t.ls.put("lazy.flops_share", flops/flopsFull, "ratio")
	eager := t.log.median("core.propagate") + t.log.median("core.collect")
	t.ls.put("lazy.vs_eager", eager/(t.log.median("lazy.propagate")+t.log.median("lazy.collect")), "ratio")
	return nil
}

// machineAndObs adds the two numbers that need no queries: the simulated
// 8-core run of this task graph at this delta — deterministic, and the only
// core-scaling number a 2-core host can give — and what tracing one request
// costs the server, with the four child spans a cache-miss query opens.
func (t *traced) machineAndObs() error {
	cm := machine.Default()
	sim, err := machine.SimulateCollaborative(t.graph, 8, float64(t.delta), cm)
	if err != nil {
		return err
	}
	simOverhead := 0.0
	for _, o := range sim.Overhead {
		simOverhead += o
	}
	t.ls.put("machine.sim_speedup_p8", machine.SerialTime(t.graph, cm)/sim.Makespan, "ratio")
	t.ls.put("machine.sim_sched_share_p8", simOverhead/(simOverhead+sim.TotalBusy()), "ratio")

	tracer := &trace.Tracer{SampleRate: 0.01, Store: trace.NewStore(trace.DefaultStoreSize)}
	const reps = 5000
	start := time.Now()
	for i := 0; i < reps; i++ {
		arena, root := tracer.StartRequest("/v1/models/{name}/query", trace.SpanContext{})
		for _, child := range []string{"cache.lookup", "singleflight", "absorb", "propagate"} {
			root.StartChild(child).End()
		}
		root.End()
		tracer.Finish(arena, root)
	}
	t.ls.put("obs.trace_request_ns", float64(time.Since(start))/reps, "ns")
	return nil
}

// signatureSink keeps the compiler from discarding the signature loop.
var signatureSink string
