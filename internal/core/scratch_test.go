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
	"evprop/internal/potential"
	"evprop/internal/taskgraph"
)

// The tests of the state's lifetime split: a result holds its tables and no
// run scratch, scratch recycled underneath pinned results never reaches their
// readers, and a failed run recycles nothing.

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

// TestCachedResultRetainsTablesOnly: after a second-sight miss the pinned state has
// no scratch attached and retains exactly its tables, sliced on its evidence —
// Π(unobserved cardinalities) entries each, under ResultBytes — and
// CacheStats.Bytes is the sum over the live entries, whose evidence widths
// differ, not entries × a constant. At the parent commit every entry cost the
// full-domain tables; two PRs before that, also one sepNew, tempUp and
// tempDown buffer per edge — several times the tables on a wide tree.
func TestCachedResultRetainsTablesOnly(t *testing.T) {
	tr := wideTree(t)
	vars, _ := tr.Variables()
	e, err := NewEngine(tr, Options{Workers: 2, CacheSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	tableBytes := e.ResultBytes()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	retained := map[string]int64{} // by signature, of every miss
	for i := 0; e.CacheStats().Entries < 16; i++ {
		if i == 400 {
			t.Fatalf("cache holds %d entries after %d distinct queries", e.CacheStats().Entries, i)
		}
		ev := evidenceNo(vars, i)
		res := secondSight(t, e, taskgraph.SumProduct, ev)
		got := int64(res.State().RetainedEntries()) * 8
		if want := int64(slicedEntries(e.Tree(), ev)) * 8; got != want || got >= tableBytes {
			t.Fatalf("query %d (%d observed): pinned state retains %d bytes, sliced tables are %d, full ones %d",
				i, len(ev), got, want, tableBytes)
		}
		retained[e.EvidenceSignature(ev, nil)] = got
	}
	// Two collections empty the graph's scratch pool (sync.Pool keeps a
	// victim generation), leaving the cache's 16 entries.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	cs := e.CacheStats()
	var live int64
	sizes := map[int64]bool{}
	for sig, b := range retained {
		if _, ok := e.cache.Get(sig); ok {
			live += b
			sizes[b] = true
		}
	}
	if cs.Bytes != live || len(sizes) < 2 {
		t.Errorf("CacheStats.Bytes = %d, the %d live entries (%d distinct sizes) retain %d", cs.Bytes, cs.Entries, len(sizes), live)
	}
	e.InvalidateCache()
	if b := e.CacheStats().Bytes; b != 0 {
		t.Errorf("CacheStats.Bytes = %d after InvalidateCache", b)
	}
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if limit := 16 * tableBytes * 3 / 2; grown > limit {
		t.Errorf("filling a 16-entry cache grew the heap by %d bytes, over 1.5 × 16 × %d = %d", grown, tableBytes, limit)
	}
}

// answers is everything a reader can derive from one result, as bits.
type answers struct {
	marginals [][]uint64
	joint     []uint64
	mpe       map[int]int
	mpeProb   uint64
}

func bitsOf(p *potential.Potential) []uint64 {
	out := make([]uint64, len(p.Data))
	for i, x := range p.Data {
		out[i] = math.Float64bits(x)
	}
	return out
}

// readAnswers derives every kind of answer from the result. joint names two
// variables of one clique.
func readAnswers(res *Result, vars, joint []int) (answers, error) {
	var a answers
	for _, v := range vars {
		m, err := res.Marginal(v)
		if err != nil {
			return a, err
		}
		a.marginals = append(a.marginals, bitsOf(m))
	}
	j, err := res.JointMarginal(joint)
	if err != nil {
		return a, err
	}
	a.joint = bitsOf(j)
	if res.state.Mode() == taskgraph.SumProduct {
		// The Hugin invariant is about sums; max-calibrated tables show
		// their consistency through the MPE walk instead.
		return a, res.CheckCalibration(1e-9)
	}
	mpe, p, err := res.MostProbableExplanation()
	a.mpe, a.mpeProb = mpe, math.Float64bits(p)
	return a, err
}

// TestPinnedReadsSurviveScratchRecycling: readers derive every kind of answer
// from pinned results while other goroutines propagate never-repeating
// evidence on the same engine and release what they get, so the scratch the
// pinned results were computed with, and the result tables of every first
// sight, are handed from run to run underneath them. Every answer must equal,
// bit for bit, what a serial engine of its own computes for that evidence.
// Under -race this is also the proof that no run writes anything a reader
// reads. Unpartitioned, so the pool's arithmetic order is the serial one.
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
			ref, err = serial.PropagateMax(evidenceNo(vars, i))
		} else {
			ref, err = serial.Propagate(evidenceNo(vars, i))
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
						if res.Pinned() {
							t.Errorf("churn query %d came back pinned", i)
						}
						res.Release()
					}
				}()
				go func(g int) { // reads pinned results the whole time
					defer wg.Done()
					for k := 0; k < 30; k++ {
						i := (g + k) % pinnedN
						got, err := readAnswers(pinned[i], vars, joint)
						if err != nil {
							t.Error(err)
							return
						}
						if !reflect.DeepEqual(got, want[i]) {
							t.Errorf("pinned result %d read differently from the serial reference under churn", i)
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
	tables := int(e.ResultBytes() / 8)
	for _, fail := range []bool{true, false, true} {
		st, err := e.absorb(taskgraph.SumProduct, ev, false)
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
					if _, err := e.PropagateContext(cc, ev); err == nil {
						t.Error("countdown propagation unexpectedly succeeded")
					}
					continue
				}
				res, err := e.Propagate(ev)
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

// TestPinnedMarginalMemoizedOnce: concurrent first reads of one variable from
// one pinned result all get the same table. With Load … Store each racing
// reader kept the table it had computed itself.
func TestPinnedMarginalMemoizedOnce(t *testing.T) {
	e := cachedTestEngine(t, 16)
	for round := 0; round < 20; round++ {
		res := secondSight(t, e, taskgraph.SumProduct, potential.Evidence{0: round & 1, 2: round >> 1 & 1, 5: round >> 2 & 1, 7: round >> 3 & 1, 9: round >> 4})
		const readers = 8
		got := make([]*potential.Potential, readers)
		var start, done sync.WaitGroup
		start.Add(1)
		for i := range got {
			done.Add(1)
			go func(i int) {
				defer done.Done()
				start.Wait()
				m, err := res.Marginal(3)
				if err != nil {
					t.Error(err)
				}
				got[i] = m
			}(i)
		}
		start.Done()
		done.Wait()
		for i, m := range got {
			if m != got[0] {
				t.Fatalf("round %d: reader %d got its own table for one pinned marginal", round, i)
			}
		}
	}
}
