package machine

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"evprop/internal/jtree"
	"evprop/internal/taskgraph"
)

func buildGraph(t *testing.T, cfg jtree.RandomConfig) *taskgraph.Graph {
	t.Helper()
	tr, err := jtree.Random(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return taskgraph.Build(tr)
}

func paperJT1Graph(t *testing.T) *taskgraph.Graph {
	t.Helper()
	// The paper's JT1 parameters (512 cliques, width 20 binary) — usable
	// here because skeleton trees never allocate the 2^20-entry tables.
	return buildGraph(t, jtree.JT1())
}

type simFn func(g *taskgraph.Graph, p int, cm CostModel) (*Result, error)

func collab(threshold float64) simFn {
	return func(g *taskgraph.Graph, p int, cm CostModel) (*Result, error) {
		return SimulateCollaborative(g, p, threshold, cm)
	}
}

func allSims() map[string]simFn {
	return map[string]simFn{
		"collaborative":      collab(0),
		"collaborative-part": collab(1 << 14),
		"levelsync":          SimulateLevelSync,
		"dataparallel":       SimulateDataParallel,
		"openmp":             SimulateOpenMP,
		"distributed":        SimulateDistributed,
	}
}

func TestWorkConservation(t *testing.T) {
	g := buildGraph(t, jtree.RandomConfig{N: 60, Width: 8, States: 2, Degree: 3, Seed: 2})
	cm := Xeon()
	serial := SerialTime(g, cm)
	for name, sim := range allSims() {
		for _, p := range []int{1, 2, 4, 8} {
			res, err := sim(g, p, cm)
			if err != nil {
				t.Fatalf("%s p=%d: %v", name, p, err)
			}
			busy := res.TotalBusy()
			// Primitive work is conserved up to the split-contention
			// inflation, which only stretches wall time, not busy sums.
			if busy < serial*0.99 || busy > serial*1.15 {
				t.Errorf("%s p=%d: busy %.6f vs serial %.6f", name, p, busy, serial)
			}
			if res.Makespan < busy/float64(p)*0.99 {
				t.Errorf("%s p=%d: makespan %.6f below work/P %.6f", name, p, res.Makespan, busy/float64(p))
			}
		}
	}
}

// TestPartitionedMarginalizeIsChargedItsCombine: cutting an in-place primitive
// adds no work, only dispatches; cutting a Marginalize into n pieces adds the
// clear of n−1 private separator-sized buffers and the combiner's two passes
// over each — 3·(n−1)·|S| entries — whether the cut comes from a fixed δ or
// from an explicit verdict.
func TestPartitionedMarginalizeIsChargedItsCombine(t *testing.T) {
	g := buildGraph(t, jtree.RandomConfig{N: 6, Width: 10, States: 2, Degree: 2, SepSize: 4, Seed: 4})
	cm := Xeon()
	serial := SerialTime(g, cm)
	const n = 4
	for _, kind := range []taskgraph.Kind{taskgraph.Marginalize, taskgraph.Multiply} {
		pieces := make([]int32, g.N())
		extra := 0.0
		for id := range g.Tasks {
			if g.Tasks[id].Kind != kind {
				continue
			}
			pieces[id] = n
			if kind == taskgraph.Marginalize {
				extra += 3 * (n - 1) * float64(g.SepSize(id))
			}
		}
		res, err := SimulateCollaborativeOpts(g, 1, cm, CollabOptions{Pieces: pieces})
		if err != nil {
			t.Fatal(err)
		}
		if want := serial + cm.service(extra); math.Abs(res.TotalBusy()-want) > 1e-12 {
			t.Errorf("%v cut %d ways: busy %.9f, want serial %.9f + %.0f entries", kind, n, res.TotalBusy(), serial, extra)
		}
		if res.Pieces != n*g.N()/3 {
			t.Errorf("%v: %d pieces", kind, res.Pieces)
		}
	}
	// δ below the 1024-entry cliques and above the 16-entry separators cuts
	// the four clique-sized tasks of every edge, two of them Marginalizes.
	const δ = 256
	res, err := SimulateCollaborative(g, 1, δ, cm)
	if err != nil {
		t.Fatal(err)
	}
	edges := float64(g.N() / 6)
	if want := serial + cm.service(2*edges*3*(1024/δ-1)*16); math.Abs(res.TotalBusy()-want) > 1e-12 {
		t.Errorf("δ=%d: busy %.9f, want %.9f", δ, res.TotalBusy(), want)
	}
}

func TestMakespanAtLeastCriticalPath(t *testing.T) {
	g := buildGraph(t, jtree.RandomConfig{N: 40, Width: 6, States: 2, Degree: 2, Seed: 4})
	cm := Xeon()
	cp := CriticalPathTime(g, cm)
	for name, sim := range map[string]simFn{
		"collaborative": collab(0),
		"levelsync":     SimulateLevelSync,
	} {
		for _, p := range []int{1, 2, 8, 64} {
			res, err := sim(g, p, cm)
			if err != nil {
				t.Fatal(err)
			}
			if res.Makespan < cp*0.999 {
				t.Errorf("%s p=%d: makespan %.6g below critical path %.6g", name, p, res.Makespan, cp)
			}
		}
	}
}

func TestSingleCoreMatchesSerial(t *testing.T) {
	// Paper-scale table sizes (skeleton only) so that scheduling overhead
	// is small relative to primitive work, as on the real platforms.
	g := buildGraph(t, jtree.RandomConfig{N: 30, Width: 16, States: 2, Degree: 3, Seed: 6})
	cm := Xeon()
	serial := SerialTime(g, cm)
	res, err := SimulateCollaborative(g, 1, 0, cm)
	if err != nil {
		t.Fatal(err)
	}
	// One core: makespan = serial work + scheduling overhead.
	if res.Makespan < serial {
		t.Errorf("P=1 makespan %.6g below serial %.6g", res.Makespan, serial)
	}
	if res.Makespan > serial*1.2 {
		t.Errorf("P=1 overhead too large: %.6g vs %.6g", res.Makespan, serial)
	}
}

func TestDeterminism(t *testing.T) {
	g := paperJT1Graph(t)
	cm := Xeon()
	a, err := SimulateCollaborative(g, 8, 1<<18, cm)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateCollaborative(g, 8, 1<<18, cm)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.Pieces != b.Pieces {
		t.Error("simulation not deterministic")
	}
}

func TestCollaborativeNearLinearSpeedupOnPaperTree(t *testing.T) {
	// The headline result: ≈7.4× speedup on 8 cores for JT1.
	g := paperJT1Graph(t)
	cm := Xeon()
	serial := SerialTime(g, cm)
	res, err := SimulateCollaborative(g, 8, serialWeightThreshold(g), cm)
	if err != nil {
		t.Fatal(err)
	}
	sp := serial / res.Makespan
	if sp < 6.5 || sp > 8.0 {
		t.Errorf("8-core speedup = %.2f, want ≈7.4", sp)
	}
}

// serialWeightThreshold returns the δ used by the harness: twice the mean
// task weight, so only the heavyweight clique-sized tasks split.
func serialWeightThreshold(g *taskgraph.Graph) float64 {
	return 2 * g.TotalWeight() / float64(g.N())
}

func TestBaselineOrderingAtEightCores(t *testing.T) {
	// Fig. 7's qualitative ordering: collaborative > dataparallel > openmp.
	g := paperJT1Graph(t)
	cm := Xeon()
	serial := SerialTime(g, cm)
	speedup := func(sim simFn) float64 {
		res, err := sim(g, 8, cm)
		if err != nil {
			t.Fatal(err)
		}
		return serial / res.Makespan
	}
	co := speedup(collab(serialWeightThreshold(g)))
	dp := speedup(SimulateDataParallel)
	om := speedup(SimulateOpenMP)
	if !(co > dp && dp > om) {
		t.Errorf("speedup ordering violated: collab=%.2f dp=%.2f omp=%.2f", co, dp, om)
	}
	if r := co / om; r < 1.7 || r > 2.6 {
		t.Errorf("collab/openmp ratio = %.2f, paper reports ≈2.1", r)
	}
	if r := co / dp; r < 1.4 || r > 2.3 {
		t.Errorf("collab/dataparallel ratio = %.2f, paper reports ≈1.8", r)
	}
}

func TestDistributedUShape(t *testing.T) {
	// Fig. 6: the PNL-style distributed baseline's execution time must
	// *increase* beyond 4 processors.
	for _, cfg := range []jtree.RandomConfig{jtree.JT1(), jtree.JT2(), jtree.JT3()} {
		g := buildGraph(t, cfg)
		cm := Xeon()
		times := map[int]float64{}
		for _, p := range []int{1, 2, 4, 8, 12, 16} {
			res, err := SimulateDistributed(g, p, cm)
			if err != nil {
				t.Fatal(err)
			}
			times[p] = res.Makespan
		}
		if times[2] >= times[1] {
			t.Errorf("N=%d: no initial speedup: t(1)=%.4g t(2)=%.4g", cfg.N, times[1], times[2])
		}
		if times[16] <= times[4] {
			t.Errorf("N=%d: no collapse beyond 4 procs: t(4)=%.4g t(16)=%.4g", cfg.N, times[4], times[16])
		}
	}
}

func TestCentralizedWorseThanCollaborative(t *testing.T) {
	g := paperJT1Graph(t)
	cm := Xeon()
	co, err := SimulateCollaborative(g, 8, 0, cm)
	if err != nil {
		t.Fatal(err)
	}
	ce, err := SimulateCentralized(g, 8, 0, cm)
	if err != nil {
		t.Fatal(err)
	}
	if ce.Makespan <= co.Makespan {
		t.Errorf("centralized (%.4g) not worse than collaborative (%.4g)", ce.Makespan, co.Makespan)
	}
}

func TestLoadBalanceOnPaperTree(t *testing.T) {
	// Fig. 8(a): per-core busy times nearly equal; (b): overhead below 1%.
	g := paperJT1Graph(t)
	cm := Xeon()
	res, err := SimulateCollaborative(g, 8, serialWeightThreshold(g), cm)
	if err != nil {
		t.Fatal(err)
	}
	minB, maxB := math.Inf(1), 0.0
	for _, b := range res.Busy {
		minB = math.Min(minB, b)
		maxB = math.Max(maxB, b)
	}
	if (maxB-minB)/maxB > 0.15 {
		t.Errorf("load imbalance %.1f%% exceeds 15%%", 100*(maxB-minB)/maxB)
	}
	for c, ov := range res.Overhead {
		if ratio := ov / res.Makespan; ratio > 0.01 {
			t.Errorf("core %d scheduling overhead %.2f%% exceeds 1%%", c, 100*ratio)
		}
	}
}

func TestRerootingSpeedupTemplate(t *testing.T) {
	// Fig. 5: rerooted template trees approach 2× with P ≥ b+1 threads,
	// partitioning disabled.
	for _, b := range []int{1, 2, 4} {
		tr, err := jtree.Template(jtree.TemplateConfig{
			Branches: b, TotalCliques: 512, Width: 10, States: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		cm := Xeon()
		orig := taskgraph.Build(tr)
		rt, err := tr.Reroot(tr.SelectRoot())
		if err != nil {
			t.Fatal(err)
		}
		rerooted := taskgraph.Build(rt)
		p := 8
		ro, err := SimulateCollaborative(orig, p, 0, cm)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := SimulateCollaborative(rerooted, p, 0, cm)
		if err != nil {
			t.Fatal(err)
		}
		sp := ro.Makespan / rr.Makespan
		if sp < 1.5 || sp > 2.1 {
			t.Errorf("b=%d: rerooting speedup %.2f, want ≈1.9", b, sp)
		}
	}
}

func TestInvalidArguments(t *testing.T) {
	g := buildGraph(t, jtree.RandomConfig{N: 5, Width: 3, States: 2, Degree: 2, Seed: 1})
	cm := Xeon()
	if _, err := SimulateCollaborative(g, 0, 0, cm); err == nil {
		t.Error("accepted p=0")
	}
	if _, err := SimulateCentralized(g, 1, 0, cm); err == nil {
		t.Error("centralized accepted p=1")
	}
	if _, err := SimulateLevelSync(g, 0, cm); err == nil {
		t.Error("levelsync accepted p=0")
	}
	if _, err := SimulateDataParallel(g, 0, cm); err == nil {
		t.Error("dataparallel accepted p=0")
	}
	if _, err := SimulateDistributed(g, 0, cm); err == nil {
		t.Error("distributed accepted p=0")
	}
}

func TestEmptyGraph(t *testing.T) {
	tr, err := jtree.Chain(1, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	g := taskgraph.Build(tr)
	res, err := SimulateCollaborative(g, 4, 0, Xeon())
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 0 {
		t.Errorf("empty graph makespan %v", res.Makespan)
	}
}

func TestSplitFactor(t *testing.T) {
	if splitFactor(1, 0.5) != 1 {
		t.Error("splitFactor(1) != 1")
	}
	if got := splitFactor(8, 0.143); math.Abs(got-4.0) > 0.05 {
		t.Errorf("splitFactor(8, 0.143) = %.3f, want ≈4", got)
	}
	if splitFactor(4, 0) != 4 {
		t.Error("zero contention must be linear")
	}
}

func TestMoreCoresNeverMuchWorse(t *testing.T) {
	g := buildGraph(t, jtree.RandomConfig{N: 100, Width: 8, States: 2, Degree: 4, Seed: 9})
	cm := Xeon()
	prev := math.Inf(1)
	for _, p := range []int{1, 2, 4, 8} {
		res, err := SimulateCollaborative(g, p, 0, cm)
		if err != nil {
			t.Fatal(err)
		}
		if res.Makespan > prev*1.05 {
			t.Errorf("p=%d makespan %.4g much worse than p/2's %.4g", p, res.Makespan, prev)
		}
		prev = res.Makespan
	}
}

func TestSimulatedSpansAndGantt(t *testing.T) {
	g := buildGraph(t, jtree.RandomConfig{N: 20, Width: 6, States: 2, Degree: 3, Seed: 3})
	cm := Xeon()
	res, err := SimulateCollaborativeOpts(g, 3, cm, CollabOptions{RecordSpans: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Spans) != g.N() {
		t.Errorf("%d spans, want %d (no partitioning)", len(res.Spans), g.N())
	}
	// Spans on one core must not overlap and must fit the makespan.
	byCore := map[int][]Span{}
	for _, s := range res.Spans {
		if s.Start < 0 || s.End < s.Start || s.End > res.Makespan+1e-12 {
			t.Errorf("span %+v outside [0, %v]", s, res.Makespan)
		}
		byCore[s.Core] = append(byCore[s.Core], s)
	}
	for core, spans := range byCore {
		for i := 1; i < len(spans); i++ {
			if spans[i].Start < spans[i-1].End-1e-12 {
				t.Errorf("core %d: spans overlap: %+v then %+v", core, spans[i-1], spans[i])
			}
		}
	}
	var buf bytes.Buffer
	res.Gantt(&buf, 48)
	if !strings.Contains(buf.String(), "c0") || !strings.Contains(buf.String(), "█") {
		t.Error("gantt malformed")
	}
	// No spans when not requested.
	plain, err := SimulateCollaborative(g, 3, 0, cm)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Spans) != 0 {
		t.Error("spans recorded without opt-in")
	}
	buf.Reset()
	plain.Gantt(&buf, 20)
	if !strings.Contains(buf.String(), "no spans") {
		t.Error("empty gantt not reported")
	}
}

func TestQuickMakespanBounds(t *testing.T) {
	// For random trees and core counts, the collaborative makespan lies in
	// [max(criticalPath, work/P), work + totalOverhead].
	cm := Xeon()
	for seed := int64(0); seed < 15; seed++ {
		g := buildGraph(t, jtree.RandomConfig{
			N: 10 + int(seed*7)%60, Width: 4 + int(seed)%6, States: 2,
			Degree: 1 + int(seed)%4, Seed: seed,
		})
		for _, p := range []int{1, 3, 8} {
			res, err := SimulateCollaborative(g, p, 0, cm)
			if err != nil {
				t.Fatal(err)
			}
			work := res.TotalBusy()
			lower := math.Max(CriticalPathTime(g, cm), work/float64(p))
			overhead := 0.0
			for _, o := range res.Overhead {
				overhead += o
			}
			if res.Makespan < lower*0.999 {
				t.Errorf("seed %d P=%d: makespan %.6g below bound %.6g", seed, p, res.Makespan, lower)
			}
			if res.Makespan > work+overhead+1e-12 {
				t.Errorf("seed %d P=%d: makespan %.6g above serial+overhead %.6g",
					seed, p, res.Makespan, work+overhead)
			}
		}
	}
}
