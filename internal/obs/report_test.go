package obs

import (
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"evprop/internal/jtree"
	"evprop/internal/sched"
	"evprop/internal/taskgraph"
)

func TestFromSimDerivation(t *testing.T) {
	// Two workers, 3s and 1s busy: mean 2s, max 3s → load balance 1.5.
	// Overhead 0.1s + 0.1s over 4.2s total worker time.
	r := FromSim([]float64{3, 1}, []float64{0.1, 0.1}, 3.5)
	if r.Workers != 2 {
		t.Fatalf("workers %d", r.Workers)
	}
	if r.LoadBalance < 1.499 || r.LoadBalance > 1.501 {
		t.Errorf("load balance %v, want 1.5", r.LoadBalance)
	}
	want := 0.2 / 4.2
	if r.OverheadFraction < want-1e-9 || r.OverheadFraction > want+1e-9 {
		t.Errorf("overhead fraction %v, want %v", r.OverheadFraction, want)
	}
	if r.Elapsed != 3500*time.Millisecond {
		t.Errorf("elapsed %v", r.Elapsed)
	}
}

func TestReportIdleRun(t *testing.T) {
	// No busy time at all: load balance defaults to 1, overhead fraction 0.
	r := FromSim([]float64{0, 0}, []float64{0, 0}, 0)
	if r.LoadBalance != 1 || r.OverheadFraction != 0 {
		t.Errorf("idle run: balance %v overhead %v", r.LoadBalance, r.OverheadFraction)
	}
}

func realRun(t *testing.T, workers, threshold int) *sched.Metrics {
	t.Helper()
	tr, err := jtree.Random(jtree.RandomConfig{N: 64, Width: 12, States: 2, Degree: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.MaterializeRandom(9); err != nil {
		t.Fatal(err)
	}
	g := taskgraph.Build(tr)
	st, err := g.NewState()
	if err != nil {
		t.Fatal(err)
	}
	pool, err := sched.NewPool(workers)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	m, err := pool.Run(st, sched.Options{Threshold: threshold})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFromSchedRealRun checks the Fig. 8 invariants on a real collaborative
// run, oversubscribed on purpose (four workers whatever the host has, 1 µs
// pieces): a load-balance factor in [1, P], per-kind times that add up to
// total busy time, an overhead fraction in [0, 1) and a report that prints
// both. These are structural — no schedule, preemption or race
// instrumentation can break them. How small the fraction is is a wall-clock
// magnitude and is asserted where one can hold, in
// TestFromSchedRealRunOverheadFraction.
func TestFromSchedRealRun(t *testing.T) {
	const workers = 4
	m := realRun(t, workers, 1024)
	r := FromSched(m)
	if r.Workers != workers {
		t.Fatalf("workers %d", r.Workers)
	}
	if r.Tasks == 0 || m.Partition == 0 {
		t.Fatalf("%d tasks recorded, %d partitioned", r.Tasks, m.Partition)
	}
	checkFig8Invariants(t, r)
	var buf strings.Builder
	r.Write(&buf)
	for _, want := range []string{"load balance", "overhead fraction"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("report output missing %q:\n%s", want, buf.String())
		}
	}
}

func checkFig8Invariants(t *testing.T, r *Report) {
	t.Helper()
	if r.LoadBalance < 1 || r.LoadBalance > float64(r.Workers)+0.001 {
		t.Errorf("load balance %v outside [1, %d]", r.LoadBalance, r.Workers)
	}
	var kinds time.Duration
	for _, d := range r.KindBusy {
		if d < 0 {
			t.Errorf("negative kind time %v", d)
		}
		kinds += d
	}
	if kinds != r.TotalBusy() {
		t.Errorf("kind times sum to %v, busy total %v", kinds, r.TotalBusy())
	}
	if r.OverheadFraction < 0 || r.OverheadFraction >= 1 {
		t.Fatalf("overhead fraction %v outside [0, 1)", r.OverheadFraction)
	}
}

// TestFromSchedRealRunOverheadFraction is the magnitude half of Fig. 8: the
// scheduler's share of worker time stays a small minority (the paper reports
// <0.9 % on its testbeds, on tables this test cannot afford). It is stated
// where a wall-clock share means something — no more workers than the host
// runs at once, 65 536-entry cliques cut into 4 096-entry pieces so that
// arithmetic dominates, a warmed pool and state — and of the typical run: the
// median of sixteen, so that one run whose worker was descheduled inside an
// Allocate window, holding a list lock the other then waits for, counts as one
// run and not as ten milliseconds of scheduling.
//
// The tree has 4 096-entry separators, a sixteenth of a clique, which is where
// the Partition window used to be expensive: it cleared every piece's private
// buffer before queueing the piece — as many entries per cut Marginalize as
// the task itself reduces — and this run then spent 0.16-0.22 of its worker
// time in the scheduler. Pieces clear their own buffers now, the window is
// queueing alone, and the run measures 0.06-0.10 here; the bound is 0.15
// where the single oversubscribed run above used to be given 0.25 (0.60 under
// the race detector, which only makes the arithmetic dearer).
func TestFromSchedRealRunOverheadFraction(t *testing.T) {
	workers := min(4, runtime.GOMAXPROCS(0))
	tr, err := jtree.Random(jtree.RandomConfig{N: 12, Width: 16, States: 2, Degree: 3, SepSize: 12, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.MaterializeRandom(9); err != nil {
		t.Fatal(err)
	}
	st, err := taskgraph.Build(tr).NewState()
	if err != nil {
		t.Fatal(err)
	}
	pool, err := sched.NewPool(workers)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	var fractions []float64
	for run := 0; run <= 16; run++ {
		st.Reset(taskgraph.SumProduct)
		m, err := pool.Run(st, sched.Options{Threshold: 4096})
		if err != nil {
			t.Fatal(err)
		}
		if m.Partition == 0 || m.Pieces < 8*m.Partition {
			t.Fatalf("%d tasks cut into %d pieces", m.Partition, m.Pieces)
		}
		r := FromSched(m)
		checkFig8Invariants(t, r)
		if run > 0 { // run 0 allocates the piece buffers the later runs recycle
			fractions = append(fractions, r.OverheadFraction)
		}
	}
	sort.Float64s(fractions)
	if median := (fractions[7] + fractions[8]) / 2; median > 0.15 {
		t.Errorf("median scheduler overhead fraction %.3f of 16 runs at P=%d exceeds 0.15 (all: %.3f)", median, workers, fractions)
	}
}

func TestAggregate(t *testing.T) {
	var a Aggregate
	s := a.Snapshot()
	if s.Runs != 0 || s.LastLoadBalance != 1 || s.OverheadFraction() != 0 || s.SlicedShare() != 1 {
		t.Errorf("fresh aggregate: %+v", s)
	}
	a.Observe(&QueryRecord{Report: FromSim([]float64{2, 2}, []float64{0.5, 0.5}, 2.5), Entries: 10, GraphEntries: 100})
	a.Observe(&QueryRecord{Report: FromSim([]float64{3, 1}, []float64{0, 0}, 3), Entries: 100, GraphEntries: 100})
	s = a.Snapshot()
	if s.Runs != 2 {
		t.Fatalf("runs %d", s.Runs)
	}
	if s.Entries != 110 || s.GraphEntries != 200 || s.SlicedShare() != 0.55 {
		t.Errorf("entries %d of %d, sliced share %v", s.Entries, s.GraphEntries, s.SlicedShare())
	}
	if s.Busy != 8*time.Second || s.Overhead != time.Second {
		t.Errorf("busy %v overhead %v", s.Busy, s.Overhead)
	}
	// Lifetime fraction spans both runs; the gauges track only the last.
	if f := s.OverheadFraction(); f < 1.0/9-1e-9 || f > 1.0/9+1e-9 {
		t.Errorf("lifetime overhead fraction %v", f)
	}
	if s.LastLoadBalance < 1.499 || s.LastLoadBalance > 1.501 {
		t.Errorf("last load balance %v", s.LastLoadBalance)
	}
	if s.LastOverheadFraction != 0 {
		t.Errorf("last overhead fraction %v", s.LastOverheadFraction)
	}
}

// TestAggregateConcurrent folds reports from many goroutines while others
// snapshot; run under -race this is the engine's concurrent-serving pattern.
func TestAggregateConcurrent(t *testing.T) {
	var a Aggregate
	rep := FromSim([]float64{1, 1}, []float64{0.01, 0.01}, 1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				a.Observe(&QueryRecord{Report: rep})
				if i%50 == 0 {
					a.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if s := a.Snapshot(); s.Runs != 1600 {
		t.Errorf("runs %d, want 1600", s.Runs)
	}
}
