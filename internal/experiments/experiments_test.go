package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"evprop/internal/machine"
)

func TestFig5ShapesMatchPaper(t *testing.T) {
	r, err := Fig5(machine.Xeon())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 4 {
		t.Fatalf("%d series, want 4", len(r.Series))
	}
	for _, s := range r.Series {
		last := s.Speedup[len(s.Speedup)-1]
		// Paper: speedup around 1.9 at 8 cores for every b.
		if last < 1.6 || last > 2.1 {
			t.Errorf("b=%d: 8-core rerooting speedup %.2f, want ≈1.9", s.Branches, last)
		}
		// Paper: with P < b some branches serialize, so Sp < 2 well before
		// the plateau; speedup at P=1 must be ≈1 (same serial work).
		if s.Speedup[0] < 0.9 || s.Speedup[0] > 1.3 {
			t.Errorf("b=%d: P=1 speedup %.2f, want ≈1", s.Branches, s.Speedup[0])
		}
	}
	// Larger b needs more threads to reach maximum speedup: at P=2 the
	// b=1 tree is closer to its plateau than the b=8 tree.
	b1, b8 := r.Series[0], r.Series[3]
	if b1.Speedup[1] < b8.Speedup[1] {
		t.Errorf("at P=2, b=1 speedup %.2f below b=8's %.2f", b1.Speedup[1], b8.Speedup[1])
	}
	var buf bytes.Buffer
	r.Write(&buf)
	if !strings.Contains(buf.String(), "Fig. 5") {
		t.Error("Write output malformed")
	}
}

func TestRerootOverheadNegligible(t *testing.T) {
	r, err := RerootOverhead(machine.Xeon())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 24 µs vs ~1e5 µs (< 0.1 %). The bound is on the steps the
	// algorithm counts as it runs: a wall clock over a simulated makespan
	// moves with the host's speed (and several-fold under -race), so it is
	// reported, not bounded.
	if r.WorkPercent <= 0 || r.WorkPercent > 0.1 {
		t.Errorf("rerooting takes %.0f steps against a propagation's %.0f entries (%.4f%%), want ≤ 0.1%%",
			r.RerootWork, r.PropagationWork, r.WorkPercent)
	}
	var buf bytes.Buffer
	r.Write(&buf)
	if !strings.Contains(buf.String(), "overhead fraction") {
		t.Error("Write output malformed")
	}
}

func TestFig6UShape(t *testing.T) {
	r, err := Fig6(machine.Xeon())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 3 {
		t.Fatalf("%d series, want 3", len(r.Series))
	}
	for _, s := range r.Series {
		t1, t4 := s.Seconds[0], s.Seconds[2]
		t16 := s.Seconds[len(s.Seconds)-1]
		if t4 >= t1 {
			t.Errorf("%s: no speedup at 4 procs: %.3f vs %.3f", s.Name, t4, t1)
		}
		if t16 <= t4 {
			t.Errorf("%s: time does not increase beyond 4 procs: t4=%.3f t16=%.3f", s.Name, t4, t16)
		}
	}
	var buf bytes.Buffer
	r.Write(&buf)
	if !strings.Contains(buf.String(), "Junction tree 3") {
		t.Error("Write output malformed")
	}
}

func TestFig7MatchesPaperNumbers(t *testing.T) {
	r, err := Fig7(machine.Xeon())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 9 {
		t.Fatalf("%d series, want 9", len(r.Series))
	}
	at8 := map[string]map[string]float64{}
	for _, s := range r.Series {
		if at8[s.Tree] == nil {
			at8[s.Tree] = map[string]float64{}
		}
		at8[s.Tree][s.Method] = s.Speedup[len(s.Speedup)-1]
		// Every method must show monotone non-trivial scaling up to 4.
		if s.Speedup[0] < 0.85 || s.Speedup[0] > 1.1 {
			t.Errorf("%s/%s: P=1 speedup %.2f", s.Tree, s.Method, s.Speedup[0])
		}
	}
	for tree, m := range at8 {
		co, dp, om := m["collaborative"], m["dataparallel"], m["openmp"]
		// Paper: 7.4 on Xeon / 7.1 on Opteron for the proposed method.
		if co < 6.5 || co > 8 {
			t.Errorf("%s: collaborative 8-core speedup %.2f, want ≈7.4", tree, co)
		}
		if !(co > dp && dp > om) {
			t.Errorf("%s: ordering violated: co=%.2f dp=%.2f omp=%.2f", tree, co, dp, om)
		}
		if ratio := co / om; ratio < 1.5 {
			t.Errorf("%s: collaborative/openmp = %.2f, want clearly above 1.5", tree, ratio)
		}
	}
	// The paper's headline ratios are reported for the flagship tree:
	// 2.1× over OpenMP and 1.8× over data-parallel at 8 cores.
	if ratio := at8["JT1"]["collaborative"] / at8["JT1"]["openmp"]; ratio < 1.7 || ratio > 2.6 {
		t.Errorf("JT1: collaborative/openmp = %.2f, paper ≈2.1", ratio)
	}
	if ratio := at8["JT1"]["collaborative"] / at8["JT1"]["dataparallel"]; ratio < 1.4 || ratio > 2.3 {
		t.Errorf("JT1: collaborative/dataparallel = %.2f, paper ≈1.8", ratio)
	}
	var buf bytes.Buffer
	r.Write(&buf)
	if !strings.Contains(buf.String(), "collaborative") {
		t.Error("Write output malformed")
	}
}

func TestFig8LoadBalanceAndOverhead(t *testing.T) {
	r, err := Fig8(machine.Xeon())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != len(Cores) {
		t.Fatalf("%d points", len(r.Points))
	}
	for _, pt := range r.Points {
		if len(pt.BusySeconds) != pt.P {
			t.Fatalf("P=%d has %d busy entries", pt.P, len(pt.BusySeconds))
		}
		minB, maxB := pt.BusySeconds[0], pt.BusySeconds[0]
		for _, b := range pt.BusySeconds {
			if b < minB {
				minB = b
			}
			if b > maxB {
				maxB = b
			}
		}
		if pt.P > 1 && (maxB-minB)/maxB > 0.2 {
			t.Errorf("P=%d: busy imbalance %.1f%%", pt.P, 100*(maxB-minB)/maxB)
		}
		// Paper: scheduling ≤ 0.9% of execution time for all threads.
		for c, o := range pt.OverheadPct {
			if o > 0.9 {
				t.Errorf("P=%d thread %d: scheduling %.3f%% exceeds 0.9%%", pt.P, c, o)
			}
		}
	}
	var buf bytes.Buffer
	r.Write(&buf)
	if !strings.Contains(buf.String(), "sched(%)") {
		t.Error("Write output malformed")
	}
}

func TestFig9LinearSpeedupsExceptSmallTables(t *testing.T) {
	r, err := Fig9(machine.Xeon())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 4+3+2+3 {
		t.Fatalf("%d series", len(r.Series))
	}
	for _, s := range r.Series {
		last := s.Speedup[len(s.Speedup)-1]
		if s.Label == "wC=10" {
			// Paper: the wC=10, r=2 tables are tiny (1024 entries) so
			// scheduling overhead bites and speedup drops below 7.
			if last >= 7 {
				t.Errorf("wC=10 speedup %.2f, expected the paper's dip below 7", last)
			}
			continue
		}
		if s.Panel == "N" || s.Panel == "k" {
			// Paper Fig. 9 (a)/(d): all above 7 at 8 cores.
			if last < 7 {
				t.Errorf("%s: 8-core speedup %.2f, want > 7", s.Label, last)
			}
		}
		if last > 8.05 {
			t.Errorf("%s: superlinear speedup %.2f", s.Label, last)
		}
	}
	var buf bytes.Buffer
	r.Write(&buf)
	if !strings.Contains(buf.String(), "panel (k)") {
		t.Error("Write output malformed")
	}
}

func TestFig7BothPlatforms(t *testing.T) {
	xeon, opteron, err := Fig7Both()
	if err != nil {
		t.Fatal(err)
	}
	at8 := func(r *Fig7Result, tree, method string) float64 {
		for _, s := range r.Series {
			if s.Tree == tree && s.Method == method {
				return s.Speedup[len(s.Speedup)-1]
			}
		}
		t.Fatalf("missing series %s/%s", tree, method)
		return 0
	}
	// Paper: 7.4× on Xeon, 7.1× on Opteron; 1.8× over data-parallel on
	// Opteron.
	xe := at8(xeon, "JT1", "collaborative")
	op := at8(opteron, "JT1", "collaborative")
	if math.Abs(xe-7.4) > 0.4 {
		t.Errorf("Xeon 8-core speedup %.2f, paper 7.4", xe)
	}
	if math.Abs(op-7.1) > 0.4 {
		t.Errorf("Opteron 8-core speedup %.2f, paper 7.1", op)
	}
	if op >= xe {
		t.Errorf("Opteron (%.2f) should trail Xeon (%.2f) slightly", op, xe)
	}
	ratio := op / at8(opteron, "JT1", "dataparallel")
	if math.Abs(ratio-1.8) > 0.25 {
		t.Errorf("Opteron collaborative/dataparallel = %.2f, paper 1.8", ratio)
	}
	var buf bytes.Buffer
	opteron.Write(&buf)
	if !strings.Contains(buf.String(), "Opteron") {
		t.Error("platform label missing")
	}
}

func TestFig5BothPlatforms(t *testing.T) {
	xeon, opteron, err := Fig5Both()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Fig5Result{xeon, opteron} {
		for _, s := range r.Series {
			last := s.Speedup[len(s.Speedup)-1]
			if last < 1.6 || last > 2.1 {
				t.Errorf("%s b=%d: 8-core rerooting speedup %.2f", r.Platform, s.Branches, last)
			}
		}
	}
}
