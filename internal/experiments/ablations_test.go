package experiments

import (
	"bytes"
	"strings"
	"testing"

	"evprop/internal/machine"
)

func TestAblationAllocation(t *testing.T) {
	r, err := AblationAllocation(machine.Xeon())
	if err != nil {
		t.Fatal(err)
	}
	// Least-loaded allocation must never be (meaningfully) worse than
	// round-robin, and at 8 cores it should win visibly.
	for i := range r.Cores {
		if r.LeastLoad[i] < r.RoundRobin[i]*0.98 {
			t.Errorf("P=%d: least-loaded %.2f below round-robin %.2f", r.Cores[i], r.LeastLoad[i], r.RoundRobin[i])
		}
	}
	last := len(r.Cores) - 1
	if r.LeastLoad[last] <= r.RoundRobin[last] {
		t.Errorf("at 8 cores least-loaded (%.2f) does not beat round-robin (%.2f)",
			r.LeastLoad[last], r.RoundRobin[last])
	}
	var buf bytes.Buffer
	r.Write(&buf)
	if !strings.Contains(buf.String(), "round-robin") {
		t.Error("Write malformed")
	}
}

func TestAblationThreshold(t *testing.T) {
	r, err := AblationThreshold(machine.Xeon())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Labels) != 6 {
		t.Fatalf("%d settings", len(r.Labels))
	}
	// Partitioning off must produce zero pieces; finer δ more pieces.
	if r.Pieces[0] != 0 {
		t.Errorf("δ=off produced %d pieces", r.Pieces[0])
	}
	for i := 1; i < len(r.Pieces); i++ {
		if r.Pieces[i] < r.Pieces[i-1] {
			t.Errorf("pieces not monotone: %v", r.Pieces)
			break
		}
	}
	// Some partitioned setting must beat partitioning-off (the point of
	// the Partition module).
	best := 0.0
	for _, s := range r.Speedup8[1:] {
		if s > best {
			best = s
		}
	}
	if best <= r.Speedup8[0] {
		t.Errorf("no δ beats partitioning off: off=%.2f best=%.2f", r.Speedup8[0], best)
	}
	var buf bytes.Buffer
	r.Write(&buf)
	if !strings.Contains(buf.String(), "speedup@8") {
		t.Error("Write malformed")
	}
}

func TestAblationRoot(t *testing.T) {
	r, err := AblationRoot()
	if err != nil {
		t.Fatal(err)
	}
	optA1, optExact := 0, 0
	for _, row := range r.Rows {
		if row.Algorithm1CP > row.OriginalCP+1e-9 {
			t.Errorf("seed %d: Algorithm 1 worsened the critical path", row.Seed)
		}
		if row.ExactRuleCP > row.BruteForceCP+1e-9 {
			t.Errorf("seed %d: exact rule (%v) not optimal (%v)", row.Seed, row.ExactRuleCP, row.BruteForceCP)
		} else {
			optExact++
		}
		if row.Algorithm1Opt {
			optA1++
		}
	}
	if optExact != len(r.Rows) {
		t.Errorf("exact rule optimal on %d/%d", optExact, len(r.Rows))
	}
	// The paper's balance rule is a good heuristic: it should be optimal
	// on a clear majority of random trees.
	if optA1 < len(r.Rows)*2/3 {
		t.Errorf("Algorithm 1 optimal on only %d/%d trees", optA1, len(r.Rows))
	}
	var buf bytes.Buffer
	r.Write(&buf)
	if !strings.Contains(buf.String(), "brute") {
		t.Error("Write malformed")
	}
}

func TestManyCore(t *testing.T) {
	r, err := ManyCore(machine.Xeon())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Speedups) != len(r.Contention) {
		t.Fatal("shape wrong")
	}
	// Higher lock contention must never scale better.
	for c := 1; c < len(r.Contention); c++ {
		for i := range r.Cores {
			if r.Speedups[c][i] > r.Speedups[c-1][i]+0.05 {
				t.Errorf("contention %.2f beats %.2f at P=%d",
					r.Contention[c], r.Contention[c-1], r.Cores[i])
			}
		}
	}
	// At 64 cores even the default contention must be clearly sublinear —
	// the §8 motivation.
	last := len(r.Cores) - 1
	if r.Speedups[0][last] > 60 {
		t.Errorf("64-core speedup %.1f implausibly near-linear", r.Speedups[0][last])
	}
	if r.Speedups[0][last] < r.Speedups[0][last-1]*0.8 {
		// Default contention shouldn't collapse either.
		t.Errorf("64-core speedup %.1f collapsed below 32-core %.1f",
			r.Speedups[0][last], r.Speedups[0][last-1])
	}
	var buf bytes.Buffer
	r.Write(&buf)
	if !strings.Contains(buf.String(), "P=64") {
		t.Error("Write malformed")
	}
}

func TestSchedulerRoster(t *testing.T) {
	r, err := SchedulerRoster(machine.Xeon())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Names) != 6 {
		t.Fatalf("%d schedulers", len(r.Names))
	}
	byName := map[string]float64{}
	for i, n := range r.Names {
		byName[n] = r.Speedup8[i]
	}
	if byName["collaborative"] <= byName["centralized"] {
		t.Error("collaborative does not beat centralized")
	}
	if byName["collaborative"] <= byName["distributed"] {
		t.Error("collaborative does not beat distributed")
	}
	var buf bytes.Buffer
	r.Write(&buf)
	if !strings.Contains(buf.String(), "collaborative") {
		t.Error("Write malformed")
	}
}

func TestRealExecution(t *testing.T) {
	cfg := DefaultRealConfig()
	cfg.Cliques, cfg.Width = 16, 8 // keep the test fast
	cfg.Workers = []int{1, 2}
	cfg.Repeats = 1
	r, err := Real(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Serial <= 0 {
		t.Error("serial time not positive")
	}
	if len(r.Rows) != 4 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Best <= 0 || row.Speedup <= 0 {
			t.Errorf("row %+v not positive", row)
		}
	}
	var buf bytes.Buffer
	r.Write(&buf)
	if !strings.Contains(buf.String(), "collaborative") {
		t.Error("Write malformed")
	}
}

func TestHeuristics(t *testing.T) {
	r, err := Heuristics()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 10 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.MinFillState <= 0 || row.MinDegState <= 0 {
			t.Errorf("%s: zero state space", row.Network)
		}
		if first, kept := row.Candidates[0].Cost, row.Candidates[row.Kept].Cost; kept > first {
			t.Errorf("%s: kept a tree of message cost %v over the first candidate's %v", row.Network, kept, first)
		}
		if row.MinFillWidth < 1 || row.MinDegWidth < 1 {
			t.Errorf("%s: zero width", row.Network)
		}
	}
	var buf bytes.Buffer
	r.Write(&buf)
	if !strings.Contains(buf.String(), "min-fill") {
		t.Error("Write malformed")
	}
}

func TestEvidenceCountIndependence(t *testing.T) {
	cfg := DefaultRealConfig()
	cfg.Cliques, cfg.Width = 32, 10
	cfg.Repeats = 3
	r, err := EvidenceCount(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Counts) < 4 {
		t.Fatalf("only %d evidence counts measured", len(r.Counts))
	}
	// The paper's claim: propagation time does not grow with evidence
	// count. Allow generous wall-clock noise on a busy host.
	base := float64(r.Times[0])
	for i, d := range r.Times {
		if float64(d) > base*2.5 {
			t.Errorf("time at %d evidence vars (%v) far above baseline (%v)", r.Counts[i], d, r.Times[0])
		}
	}
	var buf bytes.Buffer
	r.Write(&buf)
	if !strings.Contains(buf.String(), "evidence variables") {
		t.Error("Write malformed")
	}
}

func TestDecompositionExperiment(t *testing.T) {
	r, err := Decomposition()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Blocks) != 5 {
		t.Fatalf("%d rows", len(r.Blocks))
	}
	for i := 1; i < len(r.Duplicated); i++ {
		if r.Duplicated[i] < r.Duplicated[i-1] {
			t.Errorf("duplication not monotone: %v", r.Duplicated)
			break
		}
	}
	if r.Duplicated[len(r.Duplicated)-1] == 0 {
		t.Error("no duplication at 32 blocks")
	}
	var buf bytes.Buffer
	r.Write(&buf)
	if !strings.Contains(buf.String(), "duplicated-entries") {
		t.Error("Write malformed")
	}
}

// TestGranularityCrossover pins the statements EXPERIMENTS.md makes of the
// whole granularity table: which rows dispatch and win, which rows the split
// rule leaves whole, and that the rule is never the worst of the three
// partitioning policies.
func TestGranularityCrossover(t *testing.T) {
	r, err := Granularity(machine.Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 24 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	// Rule against simulator at P ∈ {2, 8} is internal/machine's test; here,
	// of the inline rule: every dispatched row wins in simulation except
	// small40 at P=16, where the rule's work bound passes a graph whose
	// dependency chain still loses.
	for _, row := range r.Rows {
		if odd := row.Model == "small40" && row.Workers == 16; !row.Inline && (row.Speedup > 1) == odd {
			t.Errorf("%s P=%d dispatched at simulated %.2f×", row.Model, row.Workers, row.Speedup)
		}
	}
	// Of the split rule: two workers cut only mid60's and wide60's graphs
	// (W/CP under 2 on their cost-ordered join trees), small40 is never cut,
	// every other graph is cut from the P where its W/CP falls short of
	// max(P, (P−1)²) — and wherever fixed-δ partitioning is priced with its
	// real combine cost on the benchmark models, it loses to both.
	cutAtTwo := map[string]int{"mid60": 5, "wide60": 20}
	for _, row := range r.Rows {
		covered := row.Parallelism >= float64(max(row.Workers, (row.Workers-1)*(row.Workers-1)))
		if cut := row.SplitTasks > 0; cut == (covered || row.Model == "small40") {
			t.Errorf("%s P=%d (W/CP %.2f): %d tasks cut", row.Model, row.Workers, row.Parallelism, row.SplitTasks)
		}
		if row.Workers == 2 && row.SplitTasks != cutAtTwo[row.Model] {
			t.Errorf("%s: %d tasks cut at two workers, want %d", row.Model, row.SplitTasks, cutAtTwo[row.Model])
		}
		if row.SplitTasks == 0 && row.Speedup != row.SpeedupNone {
			t.Errorf("%s P=%d: nothing cut, yet %.3f× against %.3f× unsplit", row.Model, row.Workers, row.Speedup, row.SpeedupNone)
		}
		if (row.Model == "mid60" || row.Model == "wide60") && row.SpeedupFixed >= row.SpeedupNone {
			t.Errorf("%s P=%d: fixed δ=%d at %.2f× does not lose to no partitioning at %.2f×",
				row.Model, row.Workers, row.Delta, row.SpeedupFixed, row.SpeedupNone)
		}
	}
	var buf bytes.Buffer
	r.Write(&buf)
	if !strings.Contains(buf.String(), "d/(P−1)") || !strings.Contains(buf.String(), "W/CP") {
		t.Error("Write malformed")
	}
}
