package core

import (
	"context"
	"sync"
	"testing"

	"evprop/internal/jtree"
	"evprop/internal/potential"
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
	t.Cleanup(e.Close)
	return e
}

func TestPropagateCachedHitSharesResult(t *testing.T) {
	e := cachedTestEngine(t, 64)
	ev := potential.Evidence{0: 1, 2: 0}
	r1, rec, err := e.PropagateCachedContext(context.Background(), ev, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Cached {
		t.Fatal("first propagation reported cached")
	}
	r2, rec, err := e.PropagateCachedContext(context.Background(), ev, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Cached {
		t.Fatal("second identical query missed the cache")
	}
	if r1 != r2 {
		t.Fatal("cache hit returned a different result object")
	}
	if got := e.Propagations(); got != 1 {
		t.Fatalf("Propagations = %d, want 1 (hit must not re-propagate)", got)
	}
	st := e.CacheStats()
	if !st.Enabled || st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
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

func TestPinnedResultReleaseIsNoOp(t *testing.T) {
	e := cachedTestEngine(t, 8)
	r, _, err := e.PropagateCachedContext(context.Background(), potential.Evidence{0: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Pinned() {
		t.Fatal("cached result is not pinned")
	}
	m1, err := r.Marginal(3)
	if err != nil {
		t.Fatal(err)
	}
	r.Release()
	// A pinned result must survive Release: the cache (and any concurrent
	// reader) still holds it.
	m2, err := r.Marginal(3)
	if err != nil {
		t.Fatalf("Marginal after Release on pinned result: %v", err)
	}
	if m1 != m2 {
		t.Fatal("pinned marginal not memoized")
	}
}

func TestInvalidateCacheForcesRepropagation(t *testing.T) {
	e := cachedTestEngine(t, 64)
	ev := potential.Evidence{1: 0}
	if _, _, err := e.PropagateCachedContext(context.Background(), ev, nil); err != nil {
		t.Fatal(err)
	}
	e.InvalidateCache()
	if st := e.CacheStats(); st.Entries != 0 {
		t.Fatalf("entries after invalidate = %d", st.Entries)
	}
	_, rec, err := e.PropagateCachedContext(context.Background(), ev, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Cached {
		t.Fatal("query after InvalidateCache was served from the cache")
	}
	if got := e.Propagations(); got != 2 {
		t.Fatalf("Propagations = %d, want 2", got)
	}
}

func TestPropagateCachedConcurrentIdentical(t *testing.T) {
	e := cachedTestEngine(t, 64)
	ev := potential.Evidence{0: 1, 4: 0}
	const callers = 16
	var wg sync.WaitGroup
	var barrier sync.WaitGroup
	barrier.Add(1)
	results := make([]*Result, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			barrier.Wait()
			results[i], _, errs[i] = e.PropagateCachedContext(context.Background(), ev, nil)
		}(i)
	}
	barrier.Done()
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different result object", i)
		}
	}
	if got := e.Propagations(); got >= callers {
		t.Fatalf("Propagations = %d for %d identical concurrent queries — no collapsing happened", got, callers)
	}
}
