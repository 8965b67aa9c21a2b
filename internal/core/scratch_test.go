package core

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"evprop/internal/bayesnet"
	"evprop/internal/jtree"
	"evprop/internal/obs"
	"evprop/internal/potential"
	"evprop/internal/taskgraph"
)

// The tests of the state's lifetime split: a result holds its tables and no
// run scratch, a cached one only its answers, scratch and states recycled
// underneath cached results never reach their readers, and a failed run
// recycles nothing.

// wideTree is a generated tree in the regime the split is for: every clique
// table has 2^12 entries, so the per-edge scratch dwarfs the bookkeeping.
func wideTree(t testing.TB) *jtree.Tree {
	t.Helper()
	tr, err := jtree.Random(jtree.RandomConfig{N: 24, Width: 12, States: 2, Degree: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.MaterializeRandom(5); err != nil {
		t.Fatal(err)
	}
	return tr
}

// evidenceNo returns the i-th of a never-repeating sequence of evidence
// configurations over the tree's (binary) variables: the bits of i+1 spread
// over every third variable.
func evidenceNo(vars []int, i int) potential.Evidence {
	ev := potential.Evidence{}
	for b, n := 0, i+1; n > 0; b, n = b+1, n>>1 {
		ev[vars[(3*b)%len(vars)]] = n & 1
	}
	return ev
}

// slicedEntries is what a result over the tree should retain under the
// evidence: per clique and separator table, the product of the cardinalities
// of its unobserved variables.
func slicedEntries(tr *jtree.Tree, ev potential.Evidence) int {
	size := func(vars, card []int) int {
		n := 1
		for i, v := range vars {
			if _, observed := ev[v]; !observed {
				n *= card[i]
			}
		}
		return n
	}
	total := 0
	for i := range tr.Cliques {
		c := &tr.Cliques[i]
		total += size(c.Vars, c.Card)
		if c.Parent >= 0 {
			total += size(c.SepVars, c.SepCard)
		}
	}
	return total
}

// TestCachedResultRetainsAnswersOnly: sixteen cache entries over evidence of
// different widths hold 8 bytes per state of every variable each, so
// CacheStats.Bytes is sixteen times one entry, InvalidateCache takes it to 0,
// and once the pools are emptied all sixteen grow the heap by less than one
// result's full-domain tables — which is what one entry cost when it kept
// them.
func TestCachedResultRetainsAnswersOnly(t *testing.T) {
	tr := wideTree(t)
	vars, card := tr.Variables()
	e, err := NewEngine(tr, Options{Workers: 2, CacheSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	var entry int64
	for _, v := range vars {
		entry += 8 * int64(card[v])
	}
	tableBytes := 8 * int64(slicedEntries(e.Tree(), nil))

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; e.CacheStats().Entries < 16; i++ {
		if i == 400 {
			t.Fatalf("cache holds %d entries after %d distinct queries", e.CacheStats().Entries, i)
		}
		secondSight(t, e, taskgraph.SumProduct, evidenceNo(vars, i))
	}
	// Two collections empty the state and scratch pools (sync.Pool keeps a
	// victim generation), leaving the cache's 16 entries.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if cs := e.CacheStats(); cs.Bytes != 16*entry {
		t.Errorf("CacheStats.Bytes = %d for %d entries, want 16 × %d", cs.Bytes, cs.Entries, entry)
	}
	e.InvalidateCache()
	if b := e.CacheStats().Bytes; b != 0 {
		t.Errorf("CacheStats.Bytes = %d after InvalidateCache", b)
	}
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > tableBytes {
		t.Errorf("filling a 16-entry cache grew the heap by %d bytes, over one result's tables (%d)", grown, tableBytes)
	}
}

// answers is everything a reader can derive from one result, as bits.
type answers struct {
	marginals [][]uint64
	joint     []uint64
	mpe       map[int]int
	mpeProb   uint64
}

func bitsOf(xs []float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	return out
}

// readAnswers derives every kind of answer from the result: posteriors and
// the MPE from the result itself, the joint (joint names two variables of one
// clique) and the calibration check from its tables — a private run of its
// own when the result is cached.
func readAnswers(res *Result, vars, joint []int) (answers, error) {
	var a answers
	for _, v := range vars {
		m, err := res.Marginal(v)
		if err != nil {
			return a, err
		}
		a.marginals = append(a.marginals, bitsOf(m))
	}
	tab, err := res.Tables(&obs.QueryRecord{})
	if err != nil {
		return a, err
	}
	if tab != res {
		defer tab.Release()
	}
	j, err := tab.JointMarginal(joint)
	if err != nil {
		return a, err
	}
	a.joint = bitsOf(j.Data)
	if tab.state.Mode() == taskgraph.SumProduct {
		// The Hugin invariant is about sums; max-calibrated tables show
		// their consistency through the MPE walk instead.
		return a, tab.CheckCalibration(1e-9)
	}
	mpe, p, err := res.MostProbableExplanation()
	a.mpe, a.mpeProb = mpe, math.Float64bits(p)
	return a, err
}

// TestPinnedReadsSurviveScratchRecycling: readers derive every kind of answer
// from cached results — posteriors and MPEs from the entries, joints from
// private runs of their own — while other goroutines propagate never-repeating
// evidence on the same engine and release what they get, so the states and
// scratch the cached runs were computed with, and those of every first sight,
// are handed from run to run underneath them. Every answer must equal, bit for
// bit, what a serial engine of its own computes for that evidence. Under -race
// this is also the proof that no run writes anything a reader reads.
// Unpartitioned, so the pool's arithmetic order is the serial one.
func TestPinnedReadsSurviveScratchRecycling(t *testing.T) {
	net := bayesnet.RandomNetwork(50, 2, 3, 7)
	tr, err := net.Compile()
	if err != nil {
		t.Fatal(err)
	}
	vars, _ := tr.Variables()
	joint := tr.Cliques[tr.Root].Vars[:2]
	serial, err := NewEngine(tr, Options{Scheduler: Serial})
	if err != nil {
		t.Fatal(err)
	}
	const pinnedN = 6
	want := make([]answers, pinnedN)
	for i := range want {
		var ref *Result
		if i%3 == 2 {
			ref, err = propagate(serial, context.Background(), evidenceNo(vars, i), nil, taskgraph.MaxProduct)
		} else {
			ref, err = propagate(serial, context.Background(), evidenceNo(vars, i), nil, taskgraph.SumProduct)
		}
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = readAnswers(ref, vars, joint); err != nil {
			t.Fatal(err)
		}
	}

	for _, tc := range []struct {
		name  string
		force bool
	}{{"inline", false}, {"pool", true}} {
		t.Run(tc.name, func(t *testing.T) {
			// The churn below evicts some of the six results under test; the
			// readers keep them, eviction only drops the cache's reference.
			e, err := NewEngine(tr, Options{Workers: 2, CacheSize: 32, ForceDispatch: tc.force})
			if err != nil {
				t.Fatal(err)
			}
			pinned := make([]*Result, pinnedN)
			for i := range pinned {
				mode := taskgraph.SumProduct
				if i%3 == 2 {
					mode = taskgraph.MaxProduct
				}
				pinned[i] = secondSight(t, e, mode, evidenceNo(vars, i))
			}
			if snap := e.ObsSnapshot(); tc.force != (snap.PoolRuns > 0) || tc.force == (snap.InlineRuns > 0) {
				t.Fatalf("%d inline and %d pool runs", snap.InlineRuns, snap.PoolRuns)
			}

			var next atomic.Int64 // never-repeating evidence for the churn
			next.Store(pinnedN)
			var wg sync.WaitGroup
			for g := 0; g < 3; g++ {
				wg.Add(2)
				go func() { // first sights: scratch and result tables both go round
					defer wg.Done()
					for k := 0; k < 40; k++ {
						i := int(next.Add(1))
						mode := taskgraph.SumProduct
						if k%4 == 3 {
							mode = taskgraph.MaxProduct
						}
						res, _, err := e.propagateCached(context.Background(), evidenceNo(vars, i), nil, mode, nil)
						if err != nil {
							t.Error(err)
							return
						}
						if res.entry != nil {
							t.Errorf("churn query %d came back cached", i)
						}
						res.Release()
					}
				}()
				go func(g int) { // reads cached results the whole time
					defer wg.Done()
					for k := 0; k < 30; k++ {
						i := (g + k) % pinnedN
						got, err := readAnswers(pinned[i], vars, joint)
						if err != nil {
							t.Error(err)
							return
						}
						if !reflect.DeepEqual(got, want[i]) {
							t.Errorf("cached result %d read differently from the serial reference under churn", i)
							return
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

// TestFailedRunReleasesNoScratch: cancelled pool runs, whose stragglers may
// still be writing their message buffers, hand nothing back to the scratch
// pool — seen on the state itself one run at a time, then interleaved with
// successful runs on the same engine, whose results stay correct. -race
// flags a straggler writing a recycled buffer.
func TestFailedRunReleasesNoScratch(t *testing.T) {
	net := bayesnet.RandomNetwork(50, 2, 3, 7)
	tr, err := net.Compile()
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(tr, Options{Workers: 4, Reroot: true, PartitionThreshold: 8, ForceDispatch: true})
	if err != nil {
		t.Fatal(err)
	}
	ev := potential.Evidence{0: 0}
	ref, err := e.Graph().NewState()
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.AbsorbEvidence(ev); err != nil {
		t.Fatal(err)
	}
	if err := ref.RunSerial(); err != nil {
		t.Fatal(err)
	}

	// One run at a time first, through the engine's one run path, holding the
	// state: a failed run leaves the scratch attached, a successful one does
	// not.
	tables := slicedEntries(e.Tree(), nil)
	for _, fail := range []bool{true, false, true} {
		st, err := e.absorb(taskgraph.SumProduct, ev)
		if err != nil {
			t.Fatal(err)
		}
		var ctx context.Context = context.Background()
		if fail {
			cc := &countdownCtx{Context: ctx}
			cc.left.Store(5)
			ctx = cc
		}
		err = e.execute(ctx, nil, e.newRecord(ctx, "sum-product", taskgraph.SumProduct, ev, nil, ""), st, false)
		if fail != (err != nil) {
			t.Fatalf("run with fail=%v returned %v", fail, err)
		}
		if got := st.RetainedEntries(); fail != (got > tables) {
			t.Fatalf("after a run with fail=%v the state retains %d entries, tables are %d", fail, got, tables)
		}
	}

	const perG, goroutines = 20, 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if i%2 == 0 {
					cc := &countdownCtx{Context: context.Background()}
					cc.left.Store(int64(2 + (g*7+i)%12))
					if _, err := propagate(e, cc, ev, nil, taskgraph.SumProduct); err == nil {
						t.Error("countdown propagation unexpectedly succeeded")
					}
					continue
				}
				res, err := propagate(e, context.Background(), ev, nil, taskgraph.SumProduct)
				if err != nil {
					t.Error(err)
					return
				}
				// Partitioned marginalizations add their pieces in
				// completion order, hence a tolerance.
				for c, want := range ref.Clique {
					if !res.State().Clique[c].Equal(want, 1e-12) {
						t.Errorf("clique %d differs from the serial reference after a run beside cancelled ones", c)
						return
					}
				}
				res.Release()
			}
		}(g)
	}
	wg.Wait()
}
