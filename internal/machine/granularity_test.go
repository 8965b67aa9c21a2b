package machine_test

import (
	"math"
	"testing"

	"evprop/internal/experiments"
	"evprop/internal/machine"
	"evprop/internal/sched"
)

// TestDispatchEntriesIsTheCalibratedConstant pins the execution layer's one
// granularity constant to this cost model: d is one Dispatch in units of
// SecondsPerEntry. Recalibrating either without the other fails here.
func TestDispatchEntriesIsTheCalibratedConstant(t *testing.T) {
	cm := machine.Default()
	// The quotient of the two decimal constants is 400 to one ulp.
	if d := cm.Dispatch / cm.SecondsPerEntry; math.Abs(d-sched.DispatchEntries) > 1e-9 {
		t.Fatalf("Dispatch/SecondsPerEntry = %v entries, sched.DispatchEntries = %v", d, float64(sched.DispatchEntries))
	}
}

// TestGranularityRuleMatchesSimulator: on the load benchmark's three models
// and the paper's three junction trees at two and at eight cores, the engine
// runs a graph inline exactly when the simulated collaborative schedule of
// that graph, partitioned as the engine would, is no faster than one core
// running it serially. (The rows come from the crossover experiment
// EXPERIMENTS.md prints, so the table and this test cannot drift apart.)
func TestGranularityRuleMatchesSimulator(t *testing.T) {
	r, err := experiments.Granularity(machine.Default())
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, row := range r.Rows {
		if row.Workers != 2 && row.Workers != 8 {
			continue
		}
		checked++
		if row.Inline != (row.Speedup <= 1) {
			t.Errorf("%s P=%d: rule says inline=%v, simulated speed-up is %.2f×",
				row.Model, row.Workers, row.Inline, row.Speedup)
		}
	}
	if checked != 12 {
		t.Fatalf("checked %d rows, want 6 models × 2 core counts", checked)
	}
}

// TestPartitionRuleMatchesSimulator: on the same graphs at every core count of
// the table, the split rule's verdict is within 5 % of the better of the two
// policies it replaces — where it cuts nothing, partitioning at the fixed δ
// does not simulate more than 5 % faster, and where it cuts, neither does
// that nor leaving the graph whole. The simulator charges a cut Marginalize
// its real clear and combine passes, which is why fixed δ is no longer the
// safe default: on the benchmark models it loses to no partitioning at all.
func TestPartitionRuleMatchesSimulator(t *testing.T) {
	r, err := experiments.Granularity(machine.Default())
	if err != nil {
		t.Fatal(err)
	}
	whole, cut := 0, 0
	for _, row := range r.Rows {
		if row.SplitTasks == 0 {
			whole++
		} else {
			cut++
		}
		if best := max(row.SpeedupNone, row.SpeedupFixed); row.Speedup < 0.95*best {
			t.Errorf("%s P=%d: rule cuts %d tasks and simulates %.2f×; unsplit %.2f×, fixed δ=%d %.2f×",
				row.Model, row.Workers, row.SplitTasks, row.Speedup, row.SpeedupNone, row.Delta, row.SpeedupFixed)
		}
	}
	if whole < 6 || cut < 6 {
		t.Fatalf("%d rows left whole, %d cut: the table no longer exercises both verdicts", whole, cut)
	}
}

// TestLoadRuleMatchesSimulator: on every row of the load figure — k runs in
// flight on P cores, under the paper's platform and under this host's model —
// pricing each run at ⌊P/k⌋ workers is within 5 % of the better of dispatching
// every run and dispatching none, and the figure exercises both verdicts on
// both sides of k = P. (The rows come from the experiment `evbench -fig load`
// prints, so the figure and this test cannot drift apart.)
func TestLoadRuleMatchesSimulator(t *testing.T) {
	for _, pl := range []struct {
		name string
		cm   machine.CostModel
	}{{"Xeon", machine.Xeon()}, {"this host", machine.Default()}} {
		r, err := experiments.Load(pl.name, pl.cm)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Rows) != 5*3*5 {
			t.Fatalf("%s: %d rows, want 5 models × 3 core counts × 5 loads", pl.name, len(r.Rows))
		}
		moved := 0 // rows where load changed the verdict the run would get alone
		for _, row := range r.Rows {
			if best := max(row.Pool, row.AllInline); row.Rule < 0.95*best {
				t.Errorf("%s %s P=%d k=%d: priced at %d workers the rule says inline=%v for %.1f/s; always pool %.1f/s, always inline %.1f/s",
					pl.name, row.Model, row.Workers, row.Runs, row.EffectiveWorkers, row.Inline, row.Rule, row.Pool, row.AllInline)
			}
			if row.Runs >= row.Workers && !row.Inline {
				t.Errorf("%s %s P=%d k=%d: a run with no worker to spare is dispatched", pl.name, row.Model, row.Workers, row.Runs)
			}
			if row.Inline && row.AllInline > 1.05*row.Pool {
				moved++
			}
		}
		if moved < 10 {
			t.Errorf("%s: load-aware beats always-pool by 5 %% on %d rows only: the figure no longer shows what the rule is for", pl.name, moved)
		}
	}
}
