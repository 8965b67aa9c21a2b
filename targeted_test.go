package evprop

import (
	"context"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"sort"
	"testing"

	"evprop/internal/taskgraph"
)

// The targeted leg of the differential harness: a propagation told which
// variables will be read (Propagate's targets) distributes only toward their
// cliques, and everything it is then asked — a declared posterior, P(e), an
// undeclared variable, the tables themselves once completed — must be the
// full run's bits. There is no tolerance column: a mask removes tasks, it
// never reorders the ones that write a table a read looks at.

// sameBits fails unless the two vectors are Float64bits-equal.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, full run has %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, full run has %v", what, i, got[i], want[i])
		}
	}
}

// checkTargeted runs ev (and soft) on eng — uncached, so the run is private and
// its targets count — declaring targets, and holds it against full, the same
// engine's untargeted result of the same evidence: P(e) and the declared
// posteriors first, off the one masked run; then other, a variable nobody
// declared; then every clique and separator table of the completed state, and
// the Hugin invariant over it. It returns how many tasks the first run skipped.
func checkTargeted(t *testing.T, eng *Engine, executor string, full *QueryResult, ev Evidence, soft SoftEvidence, targets []string, other, what string) int {
	t.Helper()
	res, err := eng.PropagateSoft(ev, soft, targets...)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	defer res.Close()
	pe := full.ProbabilityOfEvidence()
	sameBits(t, what+": P(e)", []float64{res.ProbabilityOfEvidence()}, []float64{pe})
	posterior := func(r *QueryResult, v string) []float64 {
		t.Helper()
		p, err := r.Posterior(v)
		if err != nil {
			t.Fatalf("%s: posterior of %q: %v", what, v, err)
		}
		return p
	}
	if pe > 0 {
		for _, v := range targets {
			sameBits(t, what+": posterior of target "+v, posterior(res, v), posterior(full, v))
		}
	}
	recs := res.Records()
	first := recs[0]
	if tasks := eng.inner.Graph().N(); len(recs) != 1 || first.Tasks+first.TasksSkipped != tasks || first.Executor != executor {
		t.Fatalf("%s: %d records after reading the targets, the first ran %d and skipped %d of %d tasks on %q (column is %q)",
			what, len(recs), first.Tasks, first.TasksSkipped, tasks, first.Executor, executor)
	}
	if pe > 0 {
		sameBits(t, what+": posterior of undeclared "+other, posterior(res, other), posterior(full, other))
	}
	st, fst := res.res.State(), full.res.State()
	for i := range fst.Clique {
		sameBits(t, fmt.Sprintf("%s: clique %d", what, i), st.Clique[i].Data, fst.Clique[i].Data)
		if fst.Sep[i] != nil {
			sameBits(t, fmt.Sprintf("%s: separator %d", what, i), st.Sep[i].Data, fst.Sep[i].Data)
		}
	}
	if pe > 0 {
		if err := res.res.CheckCalibration(1e-9); err != nil {
			t.Fatalf("%s: completed state: %v", what, err)
		}
	}
	// What was skipped ran exactly once, on the reader's goroutine.
	recs = res.Records()
	if first.TasksSkipped == 0 {
		if len(recs) != 1 {
			t.Fatalf("%s: nothing was skipped, yet %d records", what, len(recs))
		}
		return 0
	}
	if len(recs) != 2 || recs[1].Tasks != first.TasksSkipped || recs[1].TasksSkipped != first.Tasks ||
		recs[1].Executor != "inline" || recs[1].ID != first.ID || recs[1].Entries+first.Entries != full.Records()[0].Entries {
		t.Fatalf("%s: completion records %+v after first %+v", what, recs[1:], first)
	}
	return first.TasksSkipped
}

// firstOutside returns the first of vars that is not in set.
func firstOutside(vars, set []string) string {
	for _, v := range vars {
		in := false
		for _, s := range set {
			in = in || s == v
		}
		if !in {
			return v
		}
	}
	return vars[0]
}

func TestDifferentialTargetedVsFull(t *testing.T) {
	cases, skipped := 0, 0
	for seed := int64(0); seed < 12; seed++ {
		net := RandomNetwork(11, 2, 3, 1000+seed)
		vars := net.Variables()
		rng := rand.New(rand.NewSource(seed))
		for _, col := range diffColumns {
			eng, executor := compileCut(t, net, Options{Workers: 2, Scheduler: col.scheduler}, col.δ)
			for i, ev := range diffEvidences(vars) {
				cases++
				what := fmt.Sprintf("seed=%d sched=%s/δ=%d ev=%d", seed, col.scheduler, col.δ, i)
				full, err := eng.Propagate(ev)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				sets := [][]string{}
				for _, v := range vars {
					sets = append(sets, []string{v})
				}
				perm := rng.Perm(len(vars))
				sets = append(sets, []string{vars[perm[0]], vars[perm[1]], vars[perm[2]]})
				for _, targets := range sets {
					skipped += checkTargeted(t, eng, executor, full, ev, nil, targets, firstOutside(vars, targets),
						fmt.Sprintf("%s targets=%v", what, targets))
				}
				full.Close()
			}
			eng.Close()
		}
	}
	if cases < 216 || skipped == 0 {
		t.Fatalf("harness covered %d cases and skipped %d tasks in all", cases, skipped)
	}
}

// TestCollectOnlyMPEVsFull is the MPE's column of the same harness: an MPE
// whose sum-product run declares no posterior (CollectContext, what
// MostProbableExplanation and evserve's /mpe do) sends no distribute message,
// and its assignment and probability are the full run's MPE's, to the bit.
func TestCollectOnlyMPEVsFull(t *testing.T) {
	cases, skipped := 0, 0
	for seed := int64(0); seed < 12; seed++ {
		net := RandomNetwork(11, 2, 3, 1000+seed)
		for _, col := range diffColumns {
			eng, _ := compileCut(t, net, Options{Workers: 2, Scheduler: col.scheduler}, col.δ)
			for i, ev := range diffEvidences(net.Variables()) {
				cases++
				what := fmt.Sprintf("seed=%d sched=%s/δ=%d ev=%d", seed, col.scheduler, col.δ, i)
				mpe := func(res *QueryResult, err error) (map[string]int, float64, FlightRecord) {
					t.Helper()
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					defer res.Close()
					assignment, p, err := res.MPE()
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					return assignment, p, res.Records()[0]
				}
				want, wantP, fullRec := mpe(eng.Propagate(ev))
				got, gotP, rec := mpe(eng.CollectContext(context.Background(), ev))
				if !maps.Equal(got, want) || math.Float64bits(gotP) != math.Float64bits(wantP) {
					t.Fatalf("%s: collect-only MPE %v p=%v, full run's %v p=%v", what, got, gotP, want, wantP)
				}
				if rec.TasksSkipped == 0 || fullRec.TasksSkipped != 0 || rec.Tasks+rec.TasksSkipped != fullRec.Tasks {
					t.Fatalf("%s: collect-only run ran %d and skipped %d tasks, the full run %d", what, rec.Tasks, rec.TasksSkipped, fullRec.Tasks)
				}
				skipped += rec.TasksSkipped
			}
			eng.Close()
		}
	}
	if cases < 216 || skipped == 0 {
		t.Fatalf("harness covered %d cases and skipped %d tasks in all", cases, skipped)
	}
}

// FuzzTargetedVsFull is the same property over fuzzer-chosen networks,
// evidence and target sets (make fuzz-smoke): whatever is declared, every
// read of a targeted result is the full run's bits. The engine goes through
// the dispatch seam, so the masked graph runs on the workers and its
// remainder, with the pool's cuts replayed, on the test's goroutine.
func FuzzTargetedVsFull(f *testing.F) {
	f.Add(int64(1), uint32(0b0000101), uint32(0b10), uint32(0b1000), uint8(8), uint8(0), false)
	f.Add(int64(2), uint32(0), uint32(0), uint32(1), uint8(3), uint8(2), false)
	f.Add(int64(3), uint32(0b1111111111), uint32(0b1010101010), uint32(0b110000000000), uint8(12), uint8(0), true)
	f.Add(int64(4), uint32(1), uint32(1), uint32(0), uint8(0), uint8(2), true)
	f.Add(int64(5), uint32(0b1001000), uint32(0b0001000), uint32(0b0110001), uint8(6), uint8(0), false)
	f.Fuzz(func(t *testing.T, seed int64, evMask, evStates, targetMask uint32, nv, δ uint8, useSoft bool) {
		n := 5 + int(nv%8) // 5..12 variables
		net := RandomNetwork(n, 2, 3, seed)
		vars := net.Variables()
		ev := Evidence{}
		var targets []string
		for i, v := range vars {
			if evMask&(1<<uint(i)) != 0 {
				ev[v] = int(evStates>>uint(i)) & 1
			}
			if targetMask&(1<<uint(i)) != 0 {
				targets = append(targets, v)
			}
		}
		var soft SoftEvidence
		if useSoft {
			soft = SoftEvidence{vars[int(seed&0xff)%n]: {0.25, 1.5}}
		}
		eng, executor := compileCut(t, net, Options{Workers: 2}, int(δ%4))
		defer eng.Close()
		full, err := eng.PropagateSoft(ev, soft)
		if err != nil {
			t.Fatal(err)
		}
		defer full.Close()
		checkTargeted(t, eng, executor, full, ev, soft, targets, firstOutside(vars, targets), fmt.Sprintf("targets=%v", targets))
	})
}

// TestWorkFollowsTargets is the mask's claim without a clock: over the load
// benchmark's own traffic (seed 1), the live entries of a run that declares its
// request's targets, against the entries of the same evidence's full run. A
// quarter of a sliced run on the wide and the small model is messages toward
// cliques a three-target query never reads; a query for everything unobserved
// keeps all but the cliques that hold observed variables only.
func TestWorkFollowsTargets(t *testing.T) {
	for _, m := range []struct {
		name                              string
		nodes, parents, observed, targets int
		lo, hi                            float64
	}{
		{"wide60", 60, 5, 4, 3, 0.72, 0.78},
		{"small40", 40, 3, 4, 3, 0.72, 0.78},
		{"mid60", 60, 4, 30, 30, 0.95, 1},
	} {
		net := servedModel(t, m.nodes, m.parents)
		eng, err := net.Compile(Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		queries := 2000
		if testing.Short() {
			queries = 100
		}
		evs, asked := benchmarkQueries(net, 1, m.observed, m.targets, queries)
		kept := make([]float64, queries)
		mean := 0.0
		for q := range evs {
			iev, err := net.evidence(evs[q])
			if err != nil {
				t.Fatal(err)
			}
			ids, err := net.names(asked[q])
			if err != nil {
				t.Fatal(err)
			}
			st, err := eng.inner.Graph().NewStateEvidence(taskgraph.SumProduct, iev)
			if err != nil {
				t.Fatal(err)
			}
			st.Target(ids)
			kept[q] = st.Weight() / st.GraphWeight()
			mean += kept[q] / float64(queries)
			st.ReleaseScratch()
		}
		sort.Float64s(kept)
		t.Logf("%s, %d observed, %d targets: kept/full mean %.3f, p10 %.2f, p90 %.2f", m.name, m.observed, m.targets, mean, kept[queries/10], kept[queries*9/10])
		if !testing.Short() && (mean < m.lo || mean > m.hi) {
			t.Errorf("%s: a targeted run keeps %.3f of the sliced run's entries on average, want within [%v, %v]", m.name, mean, m.lo, m.hi)
		}
		eng.Close()
	}
}
