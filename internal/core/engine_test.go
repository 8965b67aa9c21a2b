package core

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"evprop/internal/bayesnet"
	"evprop/internal/jtree"
	"evprop/internal/potential"
	"evprop/internal/sched"
	"evprop/internal/taskgraph"
)

// schedulerOptions completes a scheduler-matrix test's options so that the
// column it names is the path that runs: the networks these tests can check
// against brute force all fall under the granularity rule, so the parallel
// schedulers are reached through the dispatch seam.
func schedulerOptions(s Scheduler, o Options) Options {
	o.Scheduler = s
	o.ForceDispatch = s != Serial
	return o
}

// assertRanOn fails unless the engine ran at least one graph and ran every
// one on the executor its scheduler column names.
func assertRanOn(t *testing.T, e *Engine) {
	t.Helper()
	snap := e.ObsSnapshot()
	inline, pool := snap.InlineRuns, snap.PoolRuns
	if e.opts.Scheduler != Serial {
		inline, pool = pool, inline
	}
	if inline == 0 || pool != 0 {
		t.Errorf("%v engine: %d inline and %d pool runs", e.opts.Scheduler, snap.InlineRuns, snap.PoolRuns)
	}
}

func TestAllSchedulersMatchOracle(t *testing.T) {
	net, ids := bayesnet.Asia()
	tr, err := net.Compile()
	if err != nil {
		t.Fatal(err)
	}
	ev := potential.Evidence{ids["XRay"]: 1}
	for _, s := range []Scheduler{Collaborative, Serial} {
		for _, reroot := range []bool{false, true} {
			e, err := NewEngine(tr, schedulerOptions(s, Options{Workers: 4, Reroot: reroot, PartitionThreshold: 4}))
			if err != nil {
				t.Fatalf("%v reroot=%v: %v", s, reroot, err)
			}
			res, err := e.Propagate(ev)
			if err != nil {
				t.Fatalf("%v reroot=%v: %v", s, reroot, err)
			}
			assertRanOn(t, e)
			for name, v := range ids {
				if _, fixed := ev[v]; fixed {
					continue
				}
				got, err := res.Marginal(v)
				if err != nil {
					t.Fatal(err)
				}
				want, err := net.ExactMarginal(v, ev)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want, 1e-9) {
					t.Errorf("%v reroot=%v: P(%s|e) = %v, oracle %v", s, reroot, name, got.Data, want.Data)
				}
			}
		}
	}
}

func TestProbabilityOfEvidence(t *testing.T) {
	net, ids := bayesnet.Sprinkler()
	tr, err := net.Compile()
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(tr, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// P(WetGrass=1) from the joint oracle.
	joint, err := net.Joint()
	if err != nil {
		t.Fatal(err)
	}
	m, err := joint.Marginal([]int{ids["WetGrass"]})
	if err != nil {
		t.Fatal(err)
	}
	want := m.Data[1]
	res, err := e.Propagate(potential.Evidence{ids["WetGrass"]: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.ProbabilityOfEvidence(); math.Abs(got-want) > 1e-9 {
		t.Errorf("P(e) = %v, want %v", got, want)
	}
	// No evidence: P(e) = 1.
	res, err = e.Propagate(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.ProbabilityOfEvidence(); math.Abs(got-1) > 1e-9 {
		t.Errorf("P(no evidence) = %v, want 1", got)
	}
}

func TestJointMarginal(t *testing.T) {
	net, ids := bayesnet.Sprinkler()
	tr, err := net.Compile()
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(tr, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Propagate(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Sprinkler and Rain share a clique (both parents of WetGrass).
	jm, err := res.JointMarginal([]int{ids["Sprinkler"], ids["Rain"]})
	if err != nil {
		t.Fatal(err)
	}
	joint, err := net.Joint()
	if err != nil {
		t.Fatal(err)
	}
	want, err := joint.Marginal(jm.Vars)
	if err != nil {
		t.Fatal(err)
	}
	if !jm.Equal(want, 1e-9) {
		t.Errorf("joint marginal %v, oracle %v", jm.Data, want.Data)
	}
	if _, err := res.JointMarginal([]int{0, 1, 2, 3}); err == nil {
		t.Error("JointMarginal over non-clique set succeeded")
	}
}

func TestEngineRerootBookkeeping(t *testing.T) {
	tr, err := jtree.Template(jtree.TemplateConfig{Branches: 3, TotalCliques: 41, Width: 4, States: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.MaterializeRandom(3); err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(tr, Options{Workers: 2, Reroot: true})
	if err != nil {
		t.Fatal(err)
	}
	if e.RerootedFrom != tr.Root {
		t.Errorf("RerootedFrom = %d, want %d", e.RerootedFrom, tr.Root)
	}
	if e.Tree().Root == tr.Root {
		t.Error("engine did not move the root of the template tree")
	}
	// Caller's tree untouched.
	if tr.Cliques[tr.Root].Parent != -1 {
		t.Error("NewEngine mutated the caller's tree")
	}
	// Without reroot: bookkeeping empty.
	e2, err := NewEngine(tr, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if e2.RerootedFrom != -1 || e2.Tree().Root != tr.Root {
		t.Error("non-reroot engine changed the root")
	}
}

func TestEngineRejectsInvalidTree(t *testing.T) {
	tr, err := jtree.Chain(3, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.MaterializeUniform(); err != nil {
		t.Fatal(err)
	}
	tr.Cliques[1].Parent = 2 // corrupt
	if _, err := NewEngine(tr, Options{}); err == nil {
		t.Error("accepted corrupt tree")
	}
}

func TestEngineDefaultWorkers(t *testing.T) {
	net, _ := bayesnet.Sprinkler()
	tr, err := net.Compile()
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if e.Options().Workers < 1 {
		t.Errorf("default workers = %d", e.Options().Workers)
	}
}

func TestSchedulerNames(t *testing.T) {
	for _, s := range []Scheduler{Collaborative, Serial} {
		name := s.String()
		back, err := ParseScheduler(name)
		if err != nil || back != s {
			t.Errorf("round trip %v -> %q -> %v (%v)", s, name, back, err)
		}
	}
	if _, err := ParseScheduler("bogus"); err == nil {
		t.Error("parsed bogus scheduler")
	}
	if Scheduler(99).String() == "" {
		t.Error("unknown scheduler string empty")
	}
}

func TestImpossibleEvidence(t *testing.T) {
	net := bayesnet.New()
	net.MustAddNode("A", 2, nil, []float64{1, 0})
	net.MustAddNode("B", 2, []int{0}, []float64{0.5, 0.5, 0.5, 0.5})
	tr, err := net.Compile()
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(tr, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Propagate(potential.Evidence{0: 1}) // P(A=1) = 0
	if err != nil {
		t.Fatal(err)
	}
	if p := res.ProbabilityOfEvidence(); p != 0 {
		t.Errorf("P(impossible evidence) = %v", p)
	}
	if _, err := res.Marginal(1); err == nil {
		t.Error("Marginal under impossible evidence succeeded")
	}
}

func TestPropagateIsRepeatable(t *testing.T) {
	// Propagations must not corrupt engine state: repeated runs with
	// different evidence stay correct.
	net, ids := bayesnet.Asia()
	tr, err := net.Compile()
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(tr, Options{Workers: 3, Reroot: true, PartitionThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	cases := []potential.Evidence{nil, {ids["Dysp"]: 1}, nil, {ids["Smoke"]: 0}}
	for i, ev := range cases {
		res, err := e.Propagate(ev)
		if err != nil {
			t.Fatal(err)
		}
		got, err := res.Marginal(ids["Lung"])
		if err != nil {
			t.Fatal(err)
		}
		want, err := net.ExactMarginal(ids["Lung"], ev)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want, 1e-9) {
			t.Errorf("run %d: P(Lung|e) = %v, oracle %v", i, got.Data, want.Data)
		}
	}
}

func TestPropagateSoftMatchesOracle(t *testing.T) {
	// Soft evidence on v with weights w is equivalent to multiplying the
	// joint by w(v) and renormalizing.
	net, ids := bayesnet.Asia()
	tr, err := net.Compile()
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(tr, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	like := potential.Likelihood{ids["XRay"]: {0.3, 0.9}}
	res, err := e.PropagateSoft(potential.Evidence{ids["Asia"]: 1}, like)
	if err != nil {
		t.Fatal(err)
	}
	// Oracle: joint × likelihood vector, reduced, marginalized.
	joint, err := net.Joint()
	if err != nil {
		t.Fatal(err)
	}
	vec := potential.MustNew([]int{ids["XRay"]}, []int{2})
	copy(vec.Data, like[ids["XRay"]])
	if err := joint.MulBy(vec); err != nil {
		t.Fatal(err)
	}
	if err := joint.Reduce(potential.Evidence{ids["Asia"]: 1}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Lung", "Tub", "Dysp"} {
		got, err := res.Marginal(ids[name])
		if err != nil {
			t.Fatal(err)
		}
		want, err := joint.Marginal([]int{ids[name]})
		if err != nil {
			t.Fatal(err)
		}
		if err := want.Normalize(); err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want, 1e-9) {
			t.Errorf("P(%s | soft) = %v, oracle %v", name, got.Data, want.Data)
		}
	}
}

func TestPropagateSoftOneHotEqualsHard(t *testing.T) {
	net, ids := bayesnet.Sprinkler()
	tr, err := net.Compile()
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(tr, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	soft, err := e.PropagateSoft(nil, potential.Likelihood{ids["WetGrass"]: {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	hard, err := e.Propagate(potential.Evidence{ids["WetGrass"]: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{ids["Rain"], ids["Sprinkler"], ids["Cloudy"]} {
		a, err := soft.Marginal(v)
		if err != nil {
			t.Fatal(err)
		}
		b, err := hard.Marginal(v)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b, 1e-9) {
			t.Errorf("one-hot soft evidence differs from hard: %v vs %v", a.Data, b.Data)
		}
	}
}

func TestPropagateSoftErrors(t *testing.T) {
	net, ids := bayesnet.Sprinkler()
	tr, err := net.Compile()
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(tr, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.PropagateSoft(nil, potential.Likelihood{999: {1, 1}}); err == nil {
		t.Error("accepted likelihood on unknown variable")
	}
	if _, err := e.PropagateSoft(nil, potential.Likelihood{ids["Rain"]: {1, 1, 1}}); err == nil {
		t.Error("accepted wrong-length weights")
	}
	if _, err := e.PropagateSoft(nil, potential.Likelihood{ids["Rain"]: {1, -1}}); err == nil {
		t.Error("accepted negative weights")
	}
}

func TestCheckCalibration(t *testing.T) {
	net, ids := bayesnet.Asia()
	tr, err := net.Compile()
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(tr, Options{Workers: 3, PartitionThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Propagate(potential.Evidence{ids["XRay"]: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckCalibration(1e-9); err != nil {
		t.Errorf("calibrated result rejected: %v", err)
	}
	// Corrupt one clique: the check must catch it.
	res.State().Clique[0].Data[0] *= 3
	if err := res.CheckCalibration(1e-9); err == nil {
		t.Error("corrupted state passed calibration check")
	}
}

// TestOnePoolPerProcess: three engines at Workers 2 that each dispatch a run
// start two worker goroutines between them, not six — every engine compiled at
// one P borrows the same pool — and three more compiled after those are
// dropped, the shape of a hot swap, start none. The pool's gauges are one
// surface that accumulates over all of them. Worker goroutines are counted by
// their stacks: the process's pools never exit, so that count moves only when
// a pool starts, while runtime.NumGoroutine can also fall as a goroutine an
// earlier test started finishes exiting — it may only not grow by more.
func TestOnePoolPerProcess(t *testing.T) {
	tr := benchmarkModel(t, 60, 5)
	vars, cardOf := tr.Variables()
	ev := randomEvidence(rand.New(rand.NewSource(23)), vars, cardOf, 4)
	pool := sched.ProcessPool(2)
	completed := func() (n int64) {
		for _, w := range pool.Snapshot().Workers {
			n += w.Completed
		}
		return n
	}
	// The pool is the process's: an earlier test may have started it.
	spawned := 2 - len(pool.Snapshot().Workers)
	goroutines, workers, tasks := runtime.NumGoroutine(), workerGoroutines(), completed()
	for generation := 1; generation <= 2; generation++ {
		for i := 0; i < 3; i++ {
			e, err := NewEngine(tr, Options{Workers: 2, Reroot: true})
			if err != nil {
				t.Fatal(err)
			}
			if e.pool != pool {
				t.Fatal("an engine at Workers 2 has a pool of its own")
			}
			_, rec, err := e.propagateFull(context.Background(), ev, nil, taskgraph.SumProduct, "", false, nil)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Report.Executor != sched.ExecPool {
				t.Fatalf("a lone run of the wide model ran %s", rec.Report.Executor)
			}
			tasks += int64(e.Graph().N())
		}
		if grew, started := runtime.NumGoroutine()-goroutines, workerGoroutines()-workers; started != spawned || grew > spawned {
			t.Errorf("generation %d: %d worker goroutines started and %d in all, want %d", generation, started, grew, spawned)
		}
	}
	if g := pool.Snapshot(); len(g.Workers) != 2 || completed() != tasks || g.ActiveRuns != 0 {
		t.Errorf("%d workers completed %d tasks with %d runs in flight, want 2, %d and 0",
			len(g.Workers), completed(), g.ActiveRuns, tasks)
	}
}

// workerGoroutines counts the goroutines running a pool's worker loop.
func workerGoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			return strings.Count(string(buf[:n]), "sched.(*Pool).work(")
		}
		buf = make([]byte, 2*len(buf))
	}
}
