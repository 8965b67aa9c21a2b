package evprop

import "testing"

// TestInlinePathAllocsPinned pins the allocations of the two inline paths the
// load benchmark's mid-dense and small-* workloads take — at Workers 2 the
// granularity rule keeps every run of them on its goroutine whatever else is in
// flight — to the counts of the commit before the rule learned about load:
// counting a run in and out of the process's runs in flight, and recording the
// workers it was priced at, allocate nothing. mid-dense's latency_p95_ms is a
// GC-frequency meter (EXPERIMENTS.md, "The run under load"), so bytes added per
// inline query show there as a slower tail; this is the same check without a
// clock.
func TestInlinePathAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled states at random under the race detector")
	}
	for _, tc := range []struct {
		name                     string
		nodes, parents, observed int
		mpe                      bool
		parent                   float64 // allocations per op at the parent commit
	}{
		{"small40 Propagate+Close", 40, 3, 4, false, 18},
		{"mid60 Propagate+MPE+Close", 60, 4, 30, true, 246},
	} {
		net := RandomNetwork(tc.nodes, 2, tc.parents, 7)
		eng, err := net.Compile(Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		ev := benchmarkEvidence(net, 1, tc.observed, 1)[0]
		check := true // name the executor while warming up, not while counting
		query := func() {
			res, err := eng.Propagate(ev)
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
					if rec.Executor != "inline" {
						t.Fatalf("%s: executor %q, want the inline path", tc.name, rec.Executor)
					}
				}
			}
			res.Close()
		}
		for i := 0; i < 8; i++ {
			query() // fill the state and scratch pools
		}
		check = false
		if allocs := testing.AllocsPerRun(200, query); allocs > tc.parent {
			t.Errorf("%s: %.0f allocations per op, %.0f at the parent commit", tc.name, allocs, tc.parent)
		}
		eng.Close()
	}
}
