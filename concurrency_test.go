package evprop

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
)

// TestConcurrentPropagate hammers one shared engine from many goroutines
// with no external locking and checks every posterior bitwise-close against
// a sequentially computed baseline. Run under -race this is the contract
// test for the engine's concurrency guarantee — on the path this network
// takes in production (inline: concurrent callers each run their own graph)
// and, through the dispatch seam, on the shared worker pool, where the
// callers' items interleave on the same ready lists.
func TestConcurrentPropagate(t *testing.T) {
	for name, dispatch := range map[string]bool{"inline": false, "pool": true} {
		t.Run(name, func(t *testing.T) { concurrentPropagate(t, dispatch) })
	}
}

func concurrentPropagate(t *testing.T, dispatch bool) {
	const (
		goroutines = 8
		rounds     = 50
	)
	executor := "inline"
	if dispatch {
		executor = "pool"
	}
	net := RandomNetwork(40, 2, 3, 7)
	eng, err := net.compile(Options{Workers: 4}, dispatch)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	vars := net.Variables()
	cases := []Evidence{
		{},
		{vars[0]: 0},
		{vars[3]: 1, vars[17]: 0},
		{vars[10]: 1, vars[25]: 1, vars[39]: 0},
		{vars[5]: 0, vars[20]: 1},
	}
	// Sequential baseline, computed before any concurrency starts.
	baseline := make([]map[string][]float64, len(cases))
	for i, ev := range cases {
		post, err := eng.QueryAll(ev)
		if err != nil {
			t.Fatalf("baseline case %d: %v", i, err)
		}
		baseline[i] = post
	}

	before := eng.Stats().Propagations
	completed := func() (n int64) {
		for _, w := range ProcessScheduler(4).Workers {
			n += w.Completed
		}
		return n
	}
	completedBefore := completed()
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				ci := (g*rounds + round) % len(cases)
				res, err := eng.Propagate(cases[ci])
				if err != nil {
					errc <- fmt.Errorf("goroutine %d round %d: %v", g, round, err)
					return
				}
				post, err := res.Posteriors()
				res.Close()
				if err != nil {
					errc <- fmt.Errorf("goroutine %d round %d: %v", g, round, err)
					return
				}
				if ran := res.Records()[0].Executor; ran != executor {
					errc <- fmt.Errorf("goroutine %d round %d ran on executor %q", g, round, ran)
					return
				}
				for name, want := range baseline[ci] {
					got := post[name]
					for s := range want {
						if math.Abs(got[s]-want[s]) > 1e-9 {
							errc <- fmt.Errorf("goroutine %d round %d case %d: %s[%d] = %v, want %v",
								g, round, ci, name, s, got[s], want[s])
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// Each Propagate call costs exactly one scheduler invocation.
	if delta := eng.Stats().Propagations - before; delta != goroutines*rounds {
		t.Errorf("propagation counter advanced by %d, want %d", delta, goroutines*rounds)
	}
	// Dispatched runs all went to the process's one set of four workers, whose
	// gauges account for every task of every run; inline runs gave them none.
	// Either way every run has been counted out again.
	var wantCompleted int64
	if dispatch {
		wantCompleted = goroutines * rounds * int64(eng.inner.Graph().N())
	}
	gauges := ProcessScheduler(4)
	if dispatch && len(gauges.Workers) != 4 {
		t.Errorf("%d workers after dispatched runs, want 4", len(gauges.Workers))
	}
	if got := completed() - completedBefore; got != wantCompleted || gauges.GlobalDepth != 0 || gauges.ActiveRuns != 0 {
		t.Errorf("workers completed %d tasks with %d still queued and %d runs in flight, want %d, 0 and 0",
			got, gauges.GlobalDepth, gauges.ActiveRuns, wantCompleted)
	}
}

// TestConcurrentMixedQueries exercises the convenience wrappers (which
// recycle pooled state) concurrently with session results that stay open
// across other goroutines' propagations, inline and on the pool.
func TestConcurrentMixedQueries(t *testing.T) {
	for executor, dispatch := range map[string]bool{"inline": false, "pool": true} {
		t.Run(executor, func(t *testing.T) { concurrentMixedQueries(t, executor, dispatch) })
	}
}

func concurrentMixedQueries(t *testing.T, executor string, dispatch bool) {
	net := Asia()
	eng, err := net.compile(Options{Workers: 4}, dispatch)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	wantLung, err := net.ExactMarginal("Lung", Evidence{"XRay": 1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				res, err := eng.Propagate(Evidence{"XRay": 1})
				if err != nil {
					errc <- err
					return
				}
				// Interleave wrapper queries while res is still open.
				if _, err := eng.Query(Evidence{"Dysp": 1}, "Bronc"); err != nil {
					errc <- err
					res.Close()
					return
				}
				lung, err := res.Posterior("Lung")
				res.Close()
				if err != nil {
					errc <- err
					return
				}
				if ran := res.Records()[0].Executor; ran != executor {
					errc <- fmt.Errorf("goroutine %d iter %d ran on executor %q", g, i, ran)
					return
				}
				if math.Abs(lung[1]-wantLung[1]) > 1e-9 {
					errc <- fmt.Errorf("goroutine %d iter %d: Lung = %v, want %v", g, i, lung, wantLung)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestPropagateContextCancelled checks that an already-cancelled context
// fails fast without corrupting the engine for later queries.
func TestPropagateContextCancelled(t *testing.T) {
	eng, err := Asia().Compile(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.PropagateContext(ctx, Evidence{"XRay": 1}); err == nil {
		t.Fatal("cancelled context did not fail")
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// The engine must still answer after a cancelled run.
	if _, err := eng.Query(Evidence{"XRay": 1}, "Lung"); err != nil {
		t.Fatalf("engine broken after cancellation: %v", err)
	}
}
