package evprop

import (
	"runtime"
	"testing"
)

// TestInlinePathAllocsPinned pins the allocations of the two inline paths the
// load benchmark's mid-dense and small-* workloads take — at Workers 2 the
// granularity rule keeps every run of them on its goroutine whatever else is in
// flight — to the counts of untraced runs: no engine run records scheduler
// events, so one that allocated a per-run trace again would read one more per
// propagation. Counting a run in and out of the process's runs in flight, and
// recording the workers it was priced at, allocate nothing. mid-dense's
// latency_p95_ms is a GC-frequency meter (EXPERIMENTS.md, "The run under
// load"), so bytes added per inline query show there as a slower tail; this is
// the same check without a clock. small40's count reads 16 or 17 by when the
// pools were last emptied, so it is pinned at 17.
func TestInlinePathAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled states at random under the race detector")
	}
	for _, tc := range []struct {
		name                     string
		nodes, parents, observed int
		mpe                      bool
		targets                  int     // variables declared to Propagate
		pinned                   float64 // allocations per op
	}{
		{"small40 Propagate+Close", 40, 3, 4, false, 0, 17},
		{"mid60 Propagate+MPE+Close", 60, 4, 30, true, 0, 244},
		// What declaring targets may add: the slice of their ids. The mask is
		// the recycled state's.
		{"small40 Propagate(3 targets)+Close", 40, 3, 4, false, 3, 17 + 1},
	} {
		net := RandomNetwork(tc.nodes, 2, tc.parents, 7)
		eng, err := net.Compile(Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		ev := benchmarkEvidence(net, 1, tc.observed, 1)[0]
		var targets []string
		for _, v := range net.Variables() {
			if _, observed := ev[v]; !observed && len(targets) < tc.targets {
				targets = append(targets, v)
			}
		}
		check := true // name the executor while warming up, not while counting
		query := func() {
			res, err := eng.Propagate(ev, targets...)
			if err != nil {
				t.Fatal(err)
			}
			if tc.mpe {
				if _, _, err := res.MPE(); err != nil {
					t.Fatal(err)
				}
			}
			if check {
				for _, rec := range res.Records() {
					if rec.Executor != "inline" || (rec.TasksSkipped > 0) != (tc.targets > 0) {
						t.Fatalf("%s: executor %q, want the inline path; %d tasks skipped", tc.name, rec.Executor, rec.TasksSkipped)
					}
				}
			}
			res.Close()
		}
		for i := 0; i < 8; i++ {
			query() // fill the state and scratch pools
		}
		check = false
		if allocs := testing.AllocsPerRun(200, query); allocs > tc.pinned {
			t.Errorf("%s: %.0f allocations per op, pinned at %.0f", tc.name, allocs, tc.pinned)
		}
		eng.Close()
	}
}

// TestFirstSightAllocatesLikeNoCache is the wide-miss workload's claim without
// a clock: over never-repeating evidence on wide60 with 4 variables observed,
// an engine with the benchmark's 32-entry cache allocates per Propagate + Close
// what an engine without a cache does — every query is the first sight of its
// signature, runs on a recycled state and pins nothing — and a small fraction
// of the 2.4 MB of tables a miss allocated when every miss was pinned.
func TestFirstSightAllocatesLikeNoCache(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled states at random under the race detector")
	}
	net := RandomNetwork(60, 2, 5, 7)
	const warm, runs = 8, 100
	evs := benchmarkEvidence(net, 1, 4, warm+2*(runs+1))
	measure := func(cacheSize int) (allocs, bytes float64) {
		eng, err := net.Compile(Options{Workers: 2, CacheSize: cacheSize})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		next := 0
		query := func() {
			res, err := eng.Propagate(evs[next])
			next++
			if err != nil {
				t.Fatal(err)
			}
			if res.Cached() || res.res.Pinned() {
				t.Fatalf("cache=%d: query %d came back cached or pinned", cacheSize, next-1)
			}
			res.Close()
		}
		for next < warm {
			query() // fill the state and scratch pools
		}
		allocs = testing.AllocsPerRun(runs, query)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			query()
		}
		runtime.ReadMemStats(&after)
		if cs := eng.CacheStats(); cs.Entries != 0 || cs.Bytes != 0 || (cs.Enabled && cs.FirstSight != int64(next)) {
			t.Errorf("cache=%d: %+v after %d never-repeating queries", cacheSize, cs, next)
		}
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	plainAllocs, plainBytes := measure(0)
	cachedAllocs, cachedBytes := measure(32)
	t.Logf("cache=0: %.0f allocs, %.0f B per op; cache=32: %.0f allocs, %.0f B per op", plainAllocs, plainBytes, cachedAllocs, cachedBytes)
	// Both engines compute the signature (the flight recorder keeps it); a
	// pool run's own count moves by one or two with how its workers interleave.
	if cachedAllocs > plainAllocs+3 {
		t.Errorf("%.0f allocations per first sight at CacheSize 32, %.0f without a cache", cachedAllocs, plainAllocs)
	}
	if cachedBytes > 64<<10 {
		t.Errorf("%.0f bytes allocated per first sight at CacheSize 32, want under 64 kB (a pinned miss: 2.4 MB)", cachedBytes)
	}
}
