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
// at two and at eight cores, the engine runs a graph inline exactly when the
// simulated collaborative schedule of that graph, at the δ the engine would
// use, is no faster than one core running it serially. (The rows come from
// the crossover experiment EXPERIMENTS.md prints, so the table and this
// test cannot drift apart.)
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
	if checked != 6 {
		t.Fatalf("checked %d rows, want 3 models × 2 core counts", checked)
	}
}
