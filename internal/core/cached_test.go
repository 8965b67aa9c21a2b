package core

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"evprop/internal/jtree"
	"evprop/internal/potential"
	"evprop/internal/taskgraph"
)

func cachedTestEngine(t *testing.T, cacheSize int) *Engine {
	t.Helper()
	tr, err := jtree.Random(jtree.RandomConfig{N: 24, Width: 4, States: 2, Degree: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.MaterializeRandom(17); err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(tr, Options{Workers: 2, CacheSize: cacheSize})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// secondSight spends the first sight of ev's signature (a private run, released)
// and returns the result of the second: the miss whose answers the cache now
// holds.
func secondSight(t testing.TB, e *Engine, mode taskgraph.Mode, ev potential.Evidence) *Result {
	t.Helper()
	first, rec, err := e.propagateCached(context.Background(), ev, nil, mode, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Cached || first.entry != nil {
		t.Fatalf("first sight: cached %v, shared %v, want a private run", rec.Cached, first.entry != nil)
	}
	first.Release()
	r, rec, err := e.propagateCached(context.Background(), ev, nil, mode, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Cached || r.entry == nil {
		t.Fatalf("second sight: cached %v, shared %v, want a cached miss", rec.Cached, r.entry != nil)
	}
	return r
}

// answerBits is every answer a cached result keeps, as bits: each variable's
// posterior and, after a max-product run, the MPE and its value.
func answerBits(t testing.TB, r *Result, vars []int) []uint64 {
	t.Helper()
	var bits []uint64
	for _, v := range vars {
		m, err := r.Marginal(v)
		if err != nil {
			t.Fatal(err)
		}
		bits = append(bits, bitsOf(m)...)
	}
	if mpe, p, err := r.MostProbableExplanation(); err == nil {
		for _, v := range vars {
			bits = append(bits, uint64(mpe[v]))
		}
		bits = append(bits, math.Float64bits(p))
	}
	return bits
}

// totalAlloc is the bytes the process has allocated so far.
func totalAlloc() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.TotalAlloc)
}

// TestPinOnSecondSight states the admission rule one query at a time: the first
// sight of a signature runs privately and leaves the cache as it was, the second
// is a miss that runs on a pooled state, as the first did, and caches its
// answers — 8 bytes per state of every variable, plus the MPE for max-product,
// whatever the evidence — and the third is that same result. All three are the
// same bits.
func TestPinOnSecondSight(t *testing.T) {
	tr := wideTree(t)
	vars, card := tr.Variables()
	answers := 0
	for _, v := range vars {
		answers += card[v]
	}
	e, err := NewEngine(tr, Options{Workers: 2, CacheSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, mode := range []taskgraph.Mode{taskgraph.SumProduct, taskgraph.MaxProduct} {
		if mode == taskgraph.MaxProduct {
			answers += vars[len(vars)-1] + 2 // a state per variable id, and the value
		}
		// Several, because under -race sync.Pool drops a Put in four.
		var full []*Result
		for i := 0; i < 8; i++ {
			r, err := e.propagate(ctx, nil, nil, mode)
			if err != nil {
				t.Fatal(err)
			}
			full = append(full, r)
		}
		for _, r := range full {
			r.Release()
		}
		ev := evidenceNo(vars, 20+int(mode))
		base := e.CacheStats()

		first, rec, err := e.propagateCached(ctx, ev, nil, mode, nil)
		if err != nil {
			t.Fatal(err)
		}
		if cs := e.CacheStats(); rec.Cached || first.entry != nil || cs.Entries != base.Entries || cs.Bytes != base.Bytes || cs.FirstSight != base.FirstSight+1 {
			t.Fatalf("%v first sight: cached %v, shared %v, cache %+v (was %+v)", mode, rec.Cached, first.entry != nil, cs, base)
		}
		firstBits, firstPE := answerBits(t, first, vars), first.ProbabilityOfEvidence()
		first.Release()

		allocated := totalAlloc()
		second, rec, err := e.propagateCached(ctx, ev, nil, mode, nil)
		allocated = totalAlloc() - allocated
		if err != nil {
			t.Fatal(err)
		}
		cs := e.CacheStats()
		if rec.Cached || second.entry == nil || cs.Entries != base.Entries+1 || cs.FirstSight != base.FirstSight+1 {
			t.Fatalf("%v second sight: cached %v, shared %v, cache %+v (was %+v)", mode, rec.Cached, second.entry != nil, cs, base)
		}
		if got, want := cs.Bytes-base.Bytes, 8*int64(answers); got != want {
			t.Errorf("%v second sight cached %d bytes, its answers are %d", mode, got, want)
		}
		// A state of its own would have cost the run its sliced tables.
		if tables := 8 * int64(slicedEntries(e.Tree(), ev)); allocated > tables/2 {
			t.Errorf("%v second sight allocated %d bytes, a new state's tables are %d: it did not take a pooled state", mode, allocated, tables)
		}

		third, rec, err := e.propagateCached(ctx, ev, nil, mode, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Cached || third != second {
			t.Fatalf("%v third sight: cached %v, same result %v", mode, rec.Cached, third == second)
		}
		if !reflect.DeepEqual(firstBits, answerBits(t, second, vars)) || math.Float64bits(firstPE) != math.Float64bits(second.ProbabilityOfEvidence()) {
			t.Errorf("%v: the first sight's answers and the cached ones differ", mode)
		}
	}
}

// TestTargetsShapeOnlyPrivateRuns is TestPinOnSecondSight with targets
// declared: the first sight of a signature asking for {a, b} skips the
// distribute messages toward everything else and caches nothing; the second
// sight declares the same and runs whole all the same, because the third — a
// hit — asks for c, a variable off a's and b's paths, and gets it from the
// entry without a propagation. Then the recycling rule: a state that ran
// targeted carries no mask into the untargeted run after it.
func TestTargetsShapeOnlyPrivateRuns(t *testing.T) {
	tr := wideTree(t)
	vars, _ := tr.Variables()
	e, err := NewEngine(tr, Options{Workers: 2, CacheSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ev := evidenceNo(vars, 40)
	// a and b are read from one leaf of the engine's tree; c from a clique off
	// the leaf's path to the root.
	rooted := e.Tree()
	onPath := map[int]bool{}
	var a, b, c int
	for i := rooted.N() - 1; len(onPath) == 0; i-- {
		if len(rooted.Cliques[i].Children) == 0 {
			a, b = rooted.Cliques[i].Vars[0], rooted.Cliques[i].Vars[1]
			for _, v := range []int{a, b} {
				for k := rooted.CliqueOf(v); k >= 0; k = rooted.Cliques[k].Parent {
					onPath[k] = true
				}
			}
		}
	}
	c = -1
	for _, v := range vars {
		if _, observed := ev[v]; !observed && !onPath[rooted.CliqueOf(v)] {
			c = v
		}
	}
	if c < 0 {
		t.Fatal("every variable is read from a clique on the targets' paths")
	}
	bits := func(r *Result, v int) []uint64 {
		t.Helper()
		m, err := r.Marginal(v)
		if err != nil {
			t.Fatal(err)
		}
		return bitsOf(m)
	}
	base := e.CacheStats()

	first, rec, err := e.PropagateCachedContext(ctx, ev, nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if cs := e.CacheStats(); rec.TasksSkipped == 0 || rec.Report.Tasks+rec.TasksSkipped != e.Graph().N() ||
		first.entry != nil || cs.Entries != base.Entries || cs.FirstSight != base.FirstSight+1 {
		t.Fatalf("first sight: ran %d and skipped %d of %d tasks, shared %v, cache %+v (was %+v)",
			rec.Report.Tasks, rec.TasksSkipped, e.Graph().N(), first.entry != nil, cs, base)
	}
	firstA, firstB := bits(first, a), bits(first, b)
	if first.Completion() != nil || e.Propagations() != 1 {
		t.Fatalf("reading the declared targets cost a second run (%d propagations)", e.Propagations())
	}
	first.Release()

	second, rec, err := e.PropagateCachedContext(ctx, ev, nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if cs := e.CacheStats(); rec.TasksSkipped != 0 || rec.Report.Tasks != e.Graph().N() || second.entry == nil || cs.Entries != base.Entries+1 {
		t.Fatalf("second sight: skipped %d tasks, shared %v, cache %+v (was %+v)", rec.TasksSkipped, second.entry != nil, cs, base)
	}

	third, rec, err := e.PropagateCachedContext(ctx, ev, nil, c)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Cached || third != second {
		t.Fatalf("third sight: cached %v, same result %v", rec.Cached, third == second)
	}
	bits(third, c)
	if third.Completion() != nil || e.Propagations() != 2 {
		t.Errorf("a hit asking for an undeclared variable propagated: %d propagations, want 2", e.Propagations())
	}
	if !reflect.DeepEqual(firstA, bits(second, a)) || !reflect.DeepEqual(firstB, bits(second, b)) {
		t.Error("the targeted first sight's posteriors and the cached full run's differ")
	}

	// Under -race sync.Pool drops a Put in four, so look for the recycled state
	// a few times. The reference runs on an engine of its own, whose pool no
	// targeted run has touched.
	ev2 := evidenceNo(vars, 41)
	ref, err := NewEngine(tr, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Propagate(ev2)
	if err != nil {
		t.Fatal(err)
	}
	recycled := 0
	for i := 0; i < 16; i++ {
		targeted, rec, err := e.propagateFull(ctx, ev2, nil, taskgraph.SumProduct, "", []int{a})
		if err != nil {
			t.Fatal(err)
		}
		if rec.TasksSkipped == 0 {
			t.Fatal("the targeted run skipped nothing")
		}
		st := targeted.state
		targeted.Release()
		full, rec, err := e.propagateFull(ctx, ev2, nil, taskgraph.SumProduct, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		if full.state == st {
			recycled++
			if rec.TasksSkipped != 0 || rec.Report.Tasks != e.Graph().N() || full.targeted != nil || !reflect.DeepEqual(tableBits(t, full), tableBits(t, want)) {
				t.Fatalf("the untargeted run on a state that ran targeted skipped %d tasks, or left other tables", rec.TasksSkipped)
			}
		}
		full.Release()
	}
	if recycled == 0 {
		t.Error("no untargeted run ever got the targeted run's state back")
	}
}

func TestPropagateCachedHitSharesResult(t *testing.T) {
	e := cachedTestEngine(t, 64)
	ev := potential.Evidence{0: 1, 2: 0}
	r1 := secondSight(t, e, taskgraph.SumProduct, ev)
	r2, rec, err := e.PropagateCachedContext(context.Background(), ev, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Cached {
		t.Fatal("third identical query missed the cache")
	}
	if r1 != r2 {
		t.Fatal("cache hit returned a different result object")
	}
	if got := e.Propagations(); got != 2 {
		t.Fatalf("Propagations = %d, want 2 (hit must not re-propagate)", got)
	}
	st := e.CacheStats()
	if !st.Enabled || st.Hits != 1 || st.Misses != 2 || st.FirstSight != 1 || st.Entries != 1 {
		t.Fatalf("CacheStats = %+v", st)
	}
	// Different evidence (and the soft-evidence variant of the same hard
	// evidence) must key different entries.
	if _, rec, _ := e.PropagateCachedContext(context.Background(), potential.Evidence{0: 0}, nil); rec.Cached {
		t.Fatal("different evidence hit the cache")
	}
	if _, rec, _ := e.PropagateCachedContext(context.Background(), ev, potential.Likelihood{1: {0.5, 1}}); rec.Cached {
		t.Fatal("soft-evidence query hit the hard-only entry")
	}
	// Max-product must not be served a sum-product table.
	if _, rec, _ := e.PropagateMaxCachedContext(context.Background(), ev); rec.Cached {
		t.Fatal("max-product query hit the sum-product entry")
	}
}

// TestPinnedResultReleaseIsNoOp: a cached result survives Release, since the
// cache and every other reader still hold it; SharedMarginal hands out the
// entry's own slice and Marginal a copy, whose writes never reach the entry.
func TestPinnedResultReleaseIsNoOp(t *testing.T) {
	e := cachedTestEngine(t, 8)
	r := secondSight(t, e, taskgraph.SumProduct, potential.Evidence{0: 1})
	m1, err := r.Marginal(3)
	if err != nil {
		t.Fatal(err)
	}
	r.Release()
	m2, err := r.Marginal(3)
	if err != nil {
		t.Fatalf("Marginal after Release on a cached result: %v", err)
	}
	m2[0] = -1
	shared, err := r.SharedMarginal(3)
	if err != nil || !slices.Equal(m1, shared) || &shared[0] != &r.entry.answers[e.offsets[3]] {
		t.Fatalf("SharedMarginal %v (%v), want the entry's slice holding %v", shared, err, m1)
	}
}

func TestInvalidateCacheForcesRepropagation(t *testing.T) {
	e := cachedTestEngine(t, 64)
	ev := potential.Evidence{1: 0}
	secondSight(t, e, taskgraph.SumProduct, ev)
	if st := e.CacheStats(); st.Entries != 1 {
		t.Fatalf("entries before invalidate = %d", st.Entries)
	}
	e.InvalidateCache()
	if st := e.CacheStats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("entries after invalidate = %d, bytes %d", st.Entries, st.Bytes)
	}
	_, rec, err := e.PropagateCachedContext(context.Background(), ev, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Cached {
		t.Fatal("query after InvalidateCache was served from the cache")
	}
	if got := e.Propagations(); got != 3 {
		t.Fatalf("Propagations = %d, want 3", got)
	}
}

// herd releases n goroutines together on one evidence configuration and returns
// what each was handed.
func herd(t *testing.T, e *Engine, ev potential.Evidence, n int) []*Result {
	t.Helper()
	var wg sync.WaitGroup
	start := make(chan struct{})
	results := make([]*Result, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i], _, errs[i] = e.PropagateCachedContext(context.Background(), ev, nil)
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	return results
}

// Concurrent identical queries of a cold signature: one caller is its first
// sight and gets a private result, every other one shares the single cached
// result of the second propagation.
func TestPropagateCachedConcurrentIdentical(t *testing.T) {
	e := cachedTestEngine(t, 64)
	const callers = 16
	results := herd(t, e, potential.Evidence{0: 1, 4: 0}, callers)
	var private, shared *Result
	for i, r := range results {
		switch {
		case r.entry == nil && private == nil:
			private = r
		case r.entry == nil:
			t.Fatalf("caller %d: a second private result", i)
		case shared == nil:
			shared = r
		case r != shared:
			t.Fatalf("caller %d got a different cached result object", i)
		}
	}
	if private == nil || shared == nil {
		t.Fatalf("private %v, shared %v: want one first sight and one cached result", private != nil, shared != nil)
	}
	if got := e.Propagations(); got != 2 {
		t.Fatalf("Propagations = %d for %d identical concurrent queries, want 2", got, callers)
	}
	st := e.CacheStats()
	if st.FirstSight != 1 || st.Hits+st.Collapsed != callers-2 || st.Entries != 1 {
		t.Fatalf("CacheStats = %+v, want 1 first sight, %d hits + collapsed, 1 entry", st, callers-2)
	}
}

// The contract in counts: a herd on a never-seen signature costs exactly two
// propagations, on a seen but uncached one exactly one, on a cached one none.
func TestColdHerdCostsTwo(t *testing.T) {
	e := cachedTestEngine(t, 64)
	const callers = 16
	cold := potential.Evidence{0: 1, 4: 0}
	before := e.Propagations()
	herd(t, e, cold, callers)
	if got := e.Propagations() - before; got != 2 {
		t.Errorf("never-seen signature: %d propagations for %d callers, want 2", got, callers)
	}
	before = e.Propagations()
	herd(t, e, cold, callers)
	if got := e.Propagations() - before; got != 0 {
		t.Errorf("cached signature: %d propagations for %d callers, want 0", got, callers)
	}
	// Seen, not cached: one query spends the first sight, nothing is retained.
	seen := potential.Evidence{1: 0, 5: 1}
	first, _, err := e.PropagateCachedContext(context.Background(), seen, nil)
	if err != nil {
		t.Fatal(err)
	}
	first.Release()
	before = e.Propagations()
	herd(t, e, seen, callers)
	if got := e.Propagations() - before; got != 1 {
		t.Errorf("seen signature: %d propagations for %d callers, want 1", got, callers)
	}
}
