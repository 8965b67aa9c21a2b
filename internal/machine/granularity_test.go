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
