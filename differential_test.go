package evprop

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
)

// The differential correctness harness of the caching layer: over seeded
// random networks, every scheduler, and a battery of evidence configurations,
// the cached engine's cold-path posteriors must agree with an uncached
// engine and with the brute-force joint-enumeration oracle (to float
// tolerance — parallel summation order legitimately varies), and the three
// ways the cached engine serves one question — the first sight's private run
// on a recycled state, the second sight's pinned miss, the hit on it — must be
// *bit-identical*: a hit returns the very same pinned propagation, and a
// recycled state carries no residue into the same arithmetic. Every propagation's record
// must name the executor its column stands for (see compileColumn).
//
// The slicing column of this oracle — the same 12 networks × 2 schedulers × 6
// evidence configurations, every posterior, P(e) and the MPE of the engine's
// evidence-sliced run Float64bits-equal to a full-domain run with the
// contradicting entries zeroed — is internal/core's TestSlicedOracleColumn: its
// reference is built from the engine's unexported result type.

var diffSchedulers = []string{
	SchedulerCollaborative,
	SchedulerSerial,
}

// diffColumns are the eager harness's engine columns: each scheduler as
// Compile configures it, and the collaborative pool once more under an
// explicit δ of 2 entries. The automatic partition rule never cuts a network
// small enough to enumerate (nor, at two workers, most large ones), so the
// forced-split column is what keeps Partition, the piece buffers and the
// combining subtask under the oracle.
var diffColumns = []struct {
	scheduler string
	δ         int
}{
	{SchedulerCollaborative, 0},
	{SchedulerSerial, 0},
	{SchedulerCollaborative, 2},
}

// diffEvidences builds six deterministic evidence configurations over an
// 11-variable binary network, from empty up to three observed variables.
func diffEvidences(vars []string) []Evidence {
	return []Evidence{
		{},
		{vars[0]: 1},
		{vars[2]: 0, vars[5]: 1},
		{vars[1]: 1, vars[7]: 0},
		{vars[3]: 0, vars[6]: 1, vars[9]: 0},
		{vars[4]: 1, vars[8]: 1, vars[10]: 0},
	}
}

// compileColumn compiles the engine of one scheduler column of the oracle
// and names the executor every propagation of that column must report. The
// harness's networks are small enough to enumerate, so all their graphs fall
// under the granularity rule and a plain Compile would turn the parallel
// columns into copies of the serial one: they reach their schedulers through
// the dispatch seam instead, which only tests can.
func compileColumn(t *testing.T, net *Network, opts Options) (*Engine, string) {
	t.Helper()
	dispatch := opts.Scheduler != SchedulerSerial
	eng, err := net.compile(opts, dispatch)
	if err != nil {
		t.Fatal(err)
	}
	if dispatch {
		return eng, "pool"
	}
	return eng, "inline"
}

// allPosteriors propagates once and returns every non-evidence posterior
// along with whether the query was served from the cache. A propagation
// that ran must have run on the named executor.
func allPosteriors(t *testing.T, eng *Engine, executor string, ev Evidence, what string) (map[string][]float64, bool) {
	t.Helper()
	res, err := eng.Propagate(ev)
	if err != nil {
		t.Fatalf("%s: propagate: %v", what, err)
	}
	defer res.Close()
	if rec := res.Records()[0]; !rec.Cached && rec.Executor != executor {
		t.Fatalf("%s: ran on executor %q, the column is %q", what, rec.Executor, executor)
	}
	post, err := res.Posteriors()
	if err != nil {
		t.Fatalf("%s: posteriors: %v", what, err)
	}
	return post, res.Cached()
}

// threeSights asks a cached engine the same question three times and returns
// the posteriors of each way it can be served: the first sight's private run,
// the second sight's pinned miss, and the hit on it.
func threeSights(t *testing.T, eng *Engine, executor string, ev Evidence, what string) (first, cold, warm map[string][]float64) {
	t.Helper()
	before := eng.CacheStats()
	first, cached := allPosteriors(t, eng, executor, ev, what+" first sight")
	if cs := eng.CacheStats(); cached || cs.Entries != before.Entries || cs.FirstSight != before.FirstSight+1 {
		t.Fatalf("%s: first sight cached=%v, cache %+v (was %+v)", what, cached, cs, before)
	}
	cold, cached = allPosteriors(t, eng, executor, ev, what+" cold")
	if cs := eng.CacheStats(); cached || cs.Entries != before.Entries+1 {
		t.Fatalf("%s: second sight cached=%v, cache %+v (was %+v)", what, cached, cs, before)
	}
	warm, cached = allPosteriors(t, eng, executor, ev, what+" warm")
	if !cached {
		t.Fatalf("%s: third query missed the cache", what)
	}
	return first, cold, warm
}

func TestDifferentialCachedVsFreshVsOracle(t *testing.T) {
	const tol = 1e-9
	cases := 0
	for seed := int64(0); seed < 12; seed++ {
		net := RandomNetwork(11, 2, 3, 1000+seed)
		vars := net.Variables()
		evs := diffEvidences(vars)
		// One oracle per evidence configuration, shared across schedulers.
		oracles := make([]map[string][]float64, len(evs))
		for i, ev := range evs {
			oracles[i] = map[string][]float64{}
			for _, v := range vars {
				if _, fixed := ev[v]; fixed {
					continue
				}
				m, err := net.ExactMarginal(v, ev)
				if err != nil {
					t.Fatalf("seed %d ev %d: oracle %q: %v", seed, i, v, err)
				}
				oracles[i][v] = m
			}
		}
		for _, col := range diffColumns {
			schedName := fmt.Sprintf("%s/δ=%d", col.scheduler, col.δ)
			plain, executor := compileColumn(t, net, Options{Workers: 2, Scheduler: col.scheduler, PartitionThreshold: col.δ})
			cachedEng, _ := compileColumn(t, net, Options{Workers: 2, Scheduler: col.scheduler, PartitionThreshold: col.δ, CacheSize: 128})
			for i, ev := range evs {
				what := fmt.Sprintf("seed=%d sched=%s ev=%d", seed, schedName, i)
				cases++
				fresh, cached := allPosteriors(t, plain, executor, ev, what+" fresh")
				if cached {
					t.Fatalf("%s: uncached engine reported a cache hit", what)
				}
				first, cold, warm := threeSights(t, cachedEng, executor, ev, what)
				for v, oracle := range oracles[i] {
					for s := range oracle {
						if d := math.Abs(fresh[v][s] - oracle[s]); d > tol {
							t.Errorf("%s: fresh %q[%d] off oracle by %g", what, v, s, d)
						}
						if d := math.Abs(cold[v][s] - oracle[s]); d > tol {
							t.Errorf("%s: cold %q[%d] off oracle by %g", what, v, s, d)
						}
						// The warm hit shares the cold run's pinned state, and the
						// first sight's private run on a recycled state is the same
						// arithmetic: identical bits, not merely identical to
						// tolerance.
						if math.Float64bits(warm[v][s]) != math.Float64bits(cold[v][s]) {
							t.Errorf("%s: warm %q[%d] = %v not bit-identical to cold %v",
								what, v, s, warm[v][s], cold[v][s])
						}
						if math.Float64bits(first[v][s]) != math.Float64bits(cold[v][s]) {
							t.Errorf("%s: first sight %q[%d] = %v not bit-identical to the pinned %v",
								what, v, s, first[v][s], cold[v][s])
						}
					}
				}
			}
			// Every configuration propagated exactly twice on the cached
			// engine — its first sight and the pinned run: all warm queries
			// were hits.
			if got := cachedEng.inner.Propagations(); got != 2*int64(len(evs)) {
				t.Errorf("seed=%d sched=%s: cached engine ran %d propagations, want %d",
					seed, schedName, got, len(evs))
			}
			if rep := plain.SchedulerReport(); (rep.Partitioned > 0) != (col.δ > 0) {
				t.Errorf("seed=%d sched=%s: %d tasks partitioned over %d pool runs",
					seed, schedName, rep.Partitioned, rep.PoolRuns)
			}
			plain.Close()
			cachedEng.Close()
		}
	}
	if cases < 200 {
		t.Fatalf("harness covered %d cases, want >= 200", cases)
	}
}

// TestDifferentialLazySeventhColumn is the lazy engine's column of the
// differential harness: over the same seeded networks, schedulers and
// evidence battery as TestDifferentialCachedVsFreshVsOracle, a lazily
// propagating engine — pruned collect graphs, demand-driven distribution —
// must agree with the brute-force oracle to float tolerance, both uncached
// and through the shared-evidence cache, and a warm hit must remain
// bit-identical to the cold result it pinned. The engines also prove the
// pruning machinery was actually exercised: every non-empty evidence case
// must skip at least one message.
func TestDifferentialLazySeventhColumn(t *testing.T) {
	const tol = 1e-9
	cases := 0
	for seed := int64(0); seed < 12; seed++ {
		net := RandomNetwork(11, 2, 3, 1000+seed)
		vars := net.Variables()
		evs := diffEvidences(vars)
		oracles := make([]map[string][]float64, len(evs))
		for i, ev := range evs {
			oracles[i] = map[string][]float64{}
			for _, v := range vars {
				if _, fixed := ev[v]; fixed {
					continue
				}
				m, err := net.ExactMarginal(v, ev)
				if err != nil {
					t.Fatalf("seed %d ev %d: oracle %q: %v", seed, i, v, err)
				}
				oracles[i][v] = m
			}
		}
		for _, schedName := range diffSchedulers {
			plain, executor := compileColumn(t, net, Options{Workers: 2, Scheduler: schedName, Lazy: true})
			cachedEng, _ := compileColumn(t, net, Options{Workers: 2, Scheduler: schedName, Lazy: true, CacheSize: 128})
			for i, ev := range evs {
				what := fmt.Sprintf("lazy seed=%d sched=%s ev=%d", seed, schedName, i)
				cases++
				fresh, cached := allPosteriors(t, plain, executor, ev, what+" fresh")
				if cached {
					t.Fatalf("%s: uncached engine reported a cache hit", what)
				}
				first, cold, warm := threeSights(t, cachedEng, executor, ev, what)
				for v, oracle := range oracles[i] {
					for s := range oracle {
						if d := math.Abs(fresh[v][s] - oracle[s]); d > tol {
							t.Errorf("%s: fresh %q[%d] off oracle by %g", what, v, s, d)
						}
						if d := math.Abs(cold[v][s] - oracle[s]); d > tol {
							t.Errorf("%s: cold %q[%d] off oracle by %g", what, v, s, d)
						}
						if math.Float64bits(warm[v][s]) != math.Float64bits(cold[v][s]) {
							t.Errorf("%s: warm %q[%d] = %v not bit-identical to cold %v",
								what, v, s, warm[v][s], cold[v][s])
						}
						if math.Float64bits(first[v][s]) != math.Float64bits(cold[v][s]) {
							t.Errorf("%s: first sight %q[%d] = %v not bit-identical to the pinned %v",
								what, v, s, first[v][s], cold[v][s])
						}
					}
				}
			}
			// Every configuration cost the cached engine exactly two
			// propagations, same contract as the eager column.
			if got := cachedEng.inner.Propagations(); got != 2*int64(len(evs)) {
				t.Errorf("lazy seed=%d sched=%s: cached engine ran %d propagations, want %d",
					seed, schedName, got, len(evs))
			}
			plain.Close()
			cachedEng.Close()
		}
	}
	if cases < 144 {
		t.Fatalf("lazy harness covered %d cases, want >= 144", cases)
	}
}

// TestLazyPruningActuallyFires guards against the lazy engine silently
// degenerating into the eager one: with partial evidence on a chain-heavy
// random network, some messages must be skipped or blocked, and repeated
// identical queries on the uncached engine must be bit-identical (the
// deterministic-replay contract the audit tooling relies on).
func TestLazyPruningActuallyFires(t *testing.T) {
	net := RandomNetwork(11, 2, 3, 1003)
	vars := net.Variables()
	eng, err := net.Compile(Options{Workers: 2, Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ev := Evidence{vars[0]: 1}
	res, err := eng.Propagate(ev)
	if err != nil {
		t.Fatal(err)
	}
	post1, err := res.Posteriors()
	if err != nil {
		t.Fatal(err)
	}
	stats, ok := res.PropagationStats()
	res.Close()
	if !ok {
		t.Fatal("lazy engine returned no PropagationStats")
	}
	if stats.MessagesSkipped+stats.MessagesBlocked == 0 {
		t.Fatalf("single-variable evidence pruned nothing: %+v", stats)
	}
	if stats.Flops >= stats.FlopsFull {
		t.Fatalf("lazy flops %d not below eager %d", stats.Flops, stats.FlopsFull)
	}
	if stats.TasksRun+stats.TasksSkipped != 6*int64(len(eng.inner.Tree().Cliques)-1) {
		t.Fatalf("task accounting inconsistent: %+v", stats)
	}
	// Replay determinism: a second cold propagation of the same evidence
	// reproduces the posteriors bit for bit.
	res2, err := eng.Propagate(ev)
	if err != nil {
		t.Fatal(err)
	}
	defer res2.Close()
	post2, err := res2.Posteriors()
	if err != nil {
		t.Fatal(err)
	}
	for v, p := range post1 {
		for s := range p {
			if math.Float64bits(post2[v][s]) != math.Float64bits(p[s]) {
				t.Fatalf("repeat lazy propagation not bit-identical at %q[%d]", v, s)
			}
		}
	}
}

func TestCacheInsertionOrderInvariance(t *testing.T) {
	net := RandomNetwork(11, 2, 3, 42)
	vars := net.Variables()
	eng, err := net.Compile(Options{Workers: 2, CacheSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// Semantically equal evidence built in different insertion orders must
	// share one signature, and therefore one cache entry.
	ev1 := Evidence{}
	ev1[vars[1]], ev1[vars[4]], ev1[vars[8]] = 1, 0, 1
	ev2 := Evidence{}
	ev2[vars[8]], ev2[vars[1]], ev2[vars[4]] = 1, 1, 0
	s1, err := eng.EvidenceSignature(ev1, nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := eng.EvidenceSignature(ev2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("insertion order changed the evidence signature")
	}
	// The doorkeeper and the LRU both key on the signature: the reordered query
	// is the second sight of the first one's, and the first again hits it.
	if _, cached := allPosteriors(t, eng, "inline", ev1, "first"); cached {
		t.Fatal("first query hit an empty cache")
	}
	if _, cached := allPosteriors(t, eng, "inline", ev2, "reordered"); cached || eng.CacheStats().Entries != 1 {
		t.Fatalf("reordered identical evidence was not the second sight: cache %+v", eng.CacheStats())
	}
	if _, cached := allPosteriors(t, eng, "inline", ev1, "again"); !cached {
		t.Fatal("reordered identical evidence missed the cache")
	}
	// Soft evidence canonicalizes the same way.
	soft1 := SoftEvidence{vars[2]: {0.3, 0.7}, vars[6]: {1, 0.5}}
	soft2 := SoftEvidence{vars[6]: {1, 0.5}, vars[2]: {0.3, 0.7}}
	g1, err := eng.EvidenceSignature(ev1, soft1)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := eng.EvidenceSignature(ev2, soft2)
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Fatal("insertion order changed the soft-evidence signature")
	}
	if g1 == s1 {
		t.Fatal("soft evidence did not change the signature")
	}
}

func TestCacheInvalidationRepropagatesAndMatchesOracle(t *testing.T) {
	net := RandomNetwork(11, 2, 3, 99)
	vars := net.Variables()
	eng, err := net.Compile(Options{Workers: 2, CacheSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ev := Evidence{vars[2]: 1}
	allPosteriors(t, eng, "inline", ev, "first sight")
	allPosteriors(t, eng, "inline", ev, "warm-up")
	if st := eng.CacheStats(); st.Entries != 1 {
		t.Fatalf("entries before InvalidateCache = %d", st.Entries)
	}
	eng.InvalidateCache()
	if st := eng.CacheStats(); st.Entries != 0 {
		t.Fatalf("entries after InvalidateCache = %d", st.Entries)
	}
	post, cached := allPosteriors(t, eng, "inline", ev, "post-invalidate")
	if cached {
		t.Fatal("query after InvalidateCache served from cache")
	}
	if got := eng.inner.Propagations(); got != 3 {
		t.Fatalf("Propagations = %d, want 3", got)
	}
	oracle, err := net.ExactMarginal(vars[0], ev)
	if err != nil {
		t.Fatal(err)
	}
	for s := range oracle {
		if d := math.Abs(post[vars[0]][s] - oracle[s]); d > 1e-9 {
			t.Errorf("post-invalidate posterior off oracle by %g", d)
		}
	}
}

func TestModelMutationInvalidatesCache(t *testing.T) {
	net := RandomNetwork(11, 2, 3, 7)
	vars := net.Variables()
	eng, err := net.Compile(Options{Workers: 2, CacheSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ev := Evidence{vars[0]: 1}
	// oneQuery asks for a variable the compiled tree knows; the mutated
	// network gains a variable the engine cannot answer for, which is fine —
	// the invalidation contract is about not serving stale *cached* results.
	oneQuery := func(what string) bool {
		t.Helper()
		res, err := eng.Propagate(ev)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		defer res.Close()
		if _, err := res.Posterior(vars[1]); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		return res.Cached()
	}
	oneQuery("first sight")
	oneQuery("miss")
	if !oneQuery("hit") {
		t.Fatal("third query missed the cache")
	}
	// Growing the source network bumps its version; the engine must notice
	// on the next query and drop results keyed to the old structure.
	if err := net.AddVariable("post-compile-leaf", 2, []string{vars[0]}, []float64{0.5, 0.5, 0.5, 0.5}); err != nil {
		t.Fatal(err)
	}
	if oneQuery("post-mutation") {
		t.Fatal("query after model mutation served a pre-mutation result")
	}
	// The purge drops results, not the doorkeeper's memory: the signature has
	// been seen, so the one re-propagation is pinned at once.
	if got := eng.inner.Propagations(); got != 3 {
		t.Fatalf("Propagations = %d, want 3 (mutation must force one re-propagation)", got)
	}
	// And the cache works again after the purge.
	if !oneQuery("re-warmed") {
		t.Fatal("cache did not re-warm after mutation purge")
	}
}

// TestSingleflightStormOneWaiterCancels is the concurrency regression test
// of the context-aware singleflight: a storm of identical queries collapses
// into few propagations, and one caller abandoning its wait does not void
// the shared run for everyone else.
func TestSingleflightStormOneWaiterCancels(t *testing.T) {
	net := RandomNetwork(40, 2, 3, 7)
	eng, err := net.Compile(Options{Workers: 2, CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	vars := net.Variables()
	ev := Evidence{vars[3]: 1, vars[17]: 0}

	const callers = 16
	cancelled, cancel := context.WithCancel(context.Background())
	cancel() // caller 0 abandons its wait immediately
	var wg sync.WaitGroup
	var barrier sync.WaitGroup
	barrier.Add(1)
	posts := make([]map[string][]float64, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			barrier.Wait()
			ctx := context.Background()
			if i == 0 {
				ctx = cancelled
			}
			res, err := eng.PropagateContext(ctx, ev)
			if err != nil {
				errs[i] = err
				return
			}
			defer res.Close()
			posts[i], errs[i] = res.Posteriors()
		}(i)
	}
	barrier.Done()
	wg.Wait()

	var reference map[string][]float64
	for i := 1; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d failed: %v (a cancelled sibling must not void the shared run)", i, errs[i])
		}
		if reference == nil {
			reference = posts[i]
			continue
		}
		for v, p := range reference {
			for s := range p {
				if math.Float64bits(posts[i][v][s]) != math.Float64bits(p[s]) {
					t.Fatalf("caller %d posterior %q[%d] differs from caller 1", i, v, s)
				}
			}
		}
	}
	// Caller 0 either lost the race to its own cancellation (context error)
	// or was served before noticing it — both are legal; silent wrong
	// results are not.
	if errs[0] != nil && !errors.Is(errs[0], context.Canceled) {
		t.Fatalf("cancelled caller returned %v, want context.Canceled or success", errs[0])
	}
	// The storm must have collapsed: the first sight's private run and one
	// shared one.
	if got := eng.inner.Propagations(); got > 2 {
		t.Fatalf("Propagations = %d for %d identical queries — singleflight did not collapse", got, callers)
	}
	if st := eng.CacheStats(); st.Hits+st.Collapsed == 0 {
		t.Fatalf("CacheStats = %+v: no caller was served by the shared run", st)
	}
}
