package evprop

import (
	"runtime"
	"testing"
)

// TestInlinePathAllocsPinned pins the allocations of the two inline paths the
// load benchmark's mid-dense and small-* workloads take, and of reading their
// posteriors — at Workers 2 the
// granularity rule keeps every run of them on its goroutine whatever else is in
// flight: a run's one record is its sched.Metrics, so one that allocated a
// second record again would read one more per propagation. Counting a run in and out of the process's runs in flight, and
// recording the workers it was priced at, allocate nothing. mid-dense's
// latency_p95_ms is a GC-frequency meter (EXPERIMENTS.md, "The run under
// load"), so bytes added per inline query show there as a slower tail; this is
// the same check without a clock. small40's count reads 16 or 17 by when the
// pools were last emptied, so it is pinned at 17. The evidence map is made at
// its size: mid60's 30 observed variables cost 5 allocations fewer than when
// it grew, and both mid60 pins are 5 lower.
func TestInlinePathAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled states at random under the race detector")
	}
	for _, tc := range []struct {
		name                     string
		nodes, parents, observed int
		mpe, posteriors          bool
		targets                  int     // variables declared to Propagate
		pinned                   float64 // allocations per op
	}{
		{"small40 Propagate+Close", 40, 3, 4, false, false, 0, 17},
		{"mid60 Propagate+MPE+Close", 60, 4, 30, true, false, 0, 239},
		// What declaring targets may add: the slice of their ids. The mask is
		// the recycled state's.
		{"small40 Propagate(3 targets)+Close", 40, 3, 4, false, false, 3, 17 + 1},
		// The posterior path: one slice per posterior, which the caller keeps,
		// plus the map and the names around them. mid60 observes half its
		// variables and reads the other 30; 25 allocations are the propagation's.
		{"mid60 Propagate+Posteriors()+Close", 60, 4, 30, false, true, 0, 56},
		{"small40 Propagate(3 targets)+Posteriors(targets)+Close", 40, 3, 4, false, true, 3, 17 + 1 + 5},
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
			if tc.posteriors {
				if _, err := res.Posteriors(targets...); err != nil {
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

// TestPoolPathAllocsPinned pins what a run dispatched to the worker pool
// allocates: wide60, 4 observed, Propagate + Close with every run forced onto
// the pool's two workers. The workers' ready lists are rings that keep their
// backing arrays from run to run; when a fetch resliced the list's front
// away, every run regrew it and the same loop made 208 allocations. Without
// the collect Divide, Split cuts fewer tasks at two workers, so a run queues
// fewer pieces and partial buffers: 46-47 allocations, 52-53 with it.
func TestPoolPathAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled states at random under the race detector")
	}
	net := RandomNetwork(60, 2, 5, 7)
	eng, err := net.compile(Options{Workers: 2}, seam(true, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	evs := benchmarkEvidence(net, 1, 4, 64)
	next := 0
	query := func() {
		res, err := eng.Propagate(evs[next%len(evs)])
		next++
		if err != nil {
			t.Fatal(err)
		}
		if rec := res.Records()[0]; rec.Executor != "pool" {
			t.Fatalf("executor %q, want the pool", rec.Executor)
		}
		res.Close()
	}
	for i := 0; i < 8; i++ {
		query() // fill the state and scratch pools, and grow the rings
	}
	if allocs := testing.AllocsPerRun(100, query); allocs > 47 {
		t.Errorf("%.0f allocations per pool run, pinned at 47", allocs)
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
			if res.Cached() {
				t.Fatalf("cache=%d: query %d came back cached", cacheSize, next-1)
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
