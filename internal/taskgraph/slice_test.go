package taskgraph

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"evprop/internal/jtree"
	"evprop/internal/potential"
)

// sliceTree is a generated tree of three-state variables — an observed state
// can be the first, a middle or the last one — materialized at random.
func sliceTree(t testing.TB, seed int64) *jtree.Tree {
	t.Helper()
	tr, err := jtree.Random(jtree.RandomConfig{N: 14, Width: 6, States: 3, Degree: 3, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.MaterializeRandom(seed + 1); err != nil {
		t.Fatal(err)
	}
	return tr
}

// reduced is the full-domain absorb slicing replaced, kept as the reference: a
// state at the full domain over a copy of the graph's tree with every entry
// that contradicts the evidence zeroed in every clique. A state's tables hold
// their values only once the run has written them, so the copy is reduced,
// not the state.
func reduced(t testing.TB, g *Graph, mode Mode, ev potential.Evidence) *State {
	t.Helper()
	tr := g.Tree.Clone()
	for i := range tr.Cliques {
		if err := tr.Cliques[i].Pot.Reduce(ev); err != nil {
			t.Fatal(err)
		}
	}
	st, err := Build(tr).NewStateMode(mode)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func randomEvidence(rng *rand.Rand, tr *jtree.Tree, width int) potential.Evidence {
	vars, cardOf := tr.Variables()
	ev := potential.Evidence{}
	for _, i := range rng.Perm(len(vars))[:width] {
		ev[vars[i]] = rng.Intn(cardOf[vars[i]])
	}
	return ev
}

// sameTables fails unless every table of the sliced state holds, bit for bit,
// the entries of the full-domain state's table at the observed states — and
// the full-domain table is zero everywhere else.
func sameTables(t *testing.T, what string, sliced, full *State) {
	t.Helper()
	obs := sliced.Observed()
	check := func(name string, i int, s, f *potential.Potential) {
		want := make([]float64, obs.SliceCard(make([]int, len(f.Vars)), f.Vars, f.Card))
		obs.Gather(want, f.Data, f.Vars, f.Card)
		if len(s.Data) != len(want) {
			t.Fatalf("%s: %s %d has %d entries, want %d", what, name, i, len(s.Data), len(want))
		}
		for k := range want {
			if math.Float64bits(s.Data[k]) != math.Float64bits(want[k]) {
				t.Fatalf("%s: %s %d entry %d is %v, the full-domain run has %v", what, name, i, k, s.Data[k], want[k])
			}
		}
		back := make([]float64, len(f.Data))
		obs.Scatter(back, want, f.Vars, f.Card)
		if !reflect.DeepEqual(back, f.Data) {
			t.Fatalf("%s: full-domain %s %d is not zero off the observed states", what, name, i)
		}
	}
	for i := range sliced.Clique {
		check("clique", i, sliced.Clique[i], full.Clique[i])
		if sliced.Sep[i] != nil {
			check("separator", i, sliced.Sep[i], full.Sep[i])
		}
	}
}

// TestSlicedRunIsTheReducedRun: after RunSerial every clique and separator
// table of a sliced state equals the full-domain run's at the observed states,
// under Float64bits, in both semirings and for evidence of every width from
// nothing to everything — whether the state was born sliced, sliced in place,
// or sliced again after a run under other evidence.
func TestSlicedRunIsTheReducedRun(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		tr := sliceTree(t, seed)
		g := Build(tr)
		vars, _ := tr.Variables()
		rng := rand.New(rand.NewSource(seed))
		for _, mode := range []Mode{SumProduct, MaxProduct} {
			recycled, err := g.NewStateMode(mode)
			if err != nil {
				t.Fatal(err)
			}
			for _, width := range []int{0, 1, 3, len(vars) / 2, len(vars), 2} {
				ev := randomEvidence(rng, tr, width)
				full := reduced(t, g, mode, ev)
				if err := full.RunSerial(); err != nil {
					t.Fatal(err)
				}
				born, err := g.NewStateEvidence(mode, ev)
				if err != nil {
					t.Fatal(err)
				}
				if err := recycled.AbsorbEvidence(ev); err != nil {
					t.Fatal(err)
				}
				for name, st := range map[string]*State{"born sliced": born, "recycled": recycled} {
					if err := st.RunSerial(); err != nil {
						t.Fatalf("seed %d %v width %d, %s: %v", seed, mode, width, name, err)
					}
					sameTables(t, name, st, full)
					if math.Float64bits(st.EvidenceMass()) != math.Float64bits(full.EvidenceMass()) {
						t.Errorf("seed %d %v width %d, %s: P(e) %v, full-domain %v", seed, mode, width, name, st.EvidenceMass(), full.EvidenceMass())
					}
					for _, v := range vars {
						got, gerr := st.Marginal(v)
						want, werr := full.Marginal(v)
						if (gerr == nil) != (werr == nil) {
							t.Fatalf("seed %d width %d, %s: posterior of %d: %v, full-domain: %v", seed, width, name, v, gerr, werr)
						}
						if gerr == nil && (!reflect.DeepEqual(got.Card, want.Card) || !reflect.DeepEqual(got.Data, want.Data)) {
							t.Errorf("seed %d %v width %d, %s: posterior of %d is %v, full-domain %v", seed, mode, width, name, v, got, want)
						}
					}
				}
			}
		}
	}
}

// TestResetRestoresFullDomain: a state that was sliced — born sliced, even,
// with tables too small for the full domain — is at the full domain again
// after Reset: every table has the tree's shape, the run uses the graph's own
// plans, weighs what the graph weighs and computes what a new state computes.
func TestResetRestoresFullDomain(t *testing.T) {
	tr := sliceTree(t, 3)
	g := Build(tr)
	rng := rand.New(rand.NewSource(3))
	fresh, err := g.NewState()
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.RunSerial(); err != nil {
		t.Fatal(err)
	}
	st, err := g.NewStateEvidence(SumProduct, randomEvidence(rng, tr, 5))
	if err != nil {
		t.Fatal(err)
	}
	if st.Weight() >= g.TotalWeight() || len(st.Observed()) == 0 {
		t.Fatalf("evidence on 5 variables left weight %v of %v", st.Weight(), g.TotalWeight())
	}
	born := st.RetainedEntries()
	if err := st.RunSerial(); err != nil {
		t.Fatal(err)
	}
	st.ReleaseScratch()
	if got := st.RetainedEntries(); got >= fresh.RetainedEntries() || got >= born {
		t.Errorf("a released sliced state retains %d entries, with scratch %d, a full one %d", got, born, fresh.RetainedEntries())
	}

	st.Reset(SumProduct)
	if st.Weight() != g.TotalWeight() || len(st.Observed()) != 0 {
		t.Errorf("after Reset the state weighs %v of %v, observed %v", st.Weight(), g.TotalWeight(), st.Observed())
	}
	for id := range g.Tasks {
		if got, want := st.PartitionSize(id), int(g.Tasks[id].Weight); got != want {
			t.Fatalf("after Reset task %s ranges over %d entries, want %d", &g.Tasks[id], got, want)
		}
	}
	if err := st.RunSerial(); err != nil {
		t.Fatal(err)
	}
	for i, p := range st.Clique {
		c := &tr.Cliques[i]
		if !reflect.DeepEqual(p.Card, c.Card) || !reflect.DeepEqual(p.Data, fresh.Clique[i].Data) {
			t.Fatalf("after Reset clique %d is %v, a new state computes %v", i, p, fresh.Clique[i])
		}
		if c.Parent >= 0 && (!reflect.DeepEqual(st.Sep[i].Card, c.SepCard) || !reflect.DeepEqual(st.Sep[i].Data, fresh.Sep[i].Data)) {
			t.Fatalf("after Reset separator %d is %v, a new state computes %v", i, st.Sep[i], fresh.Sep[i])
		}
	}
}

// sameBits says whether a and b hold the same entries under Float64bits.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
			return false
		}
	}
	return true
}

// TestAbsorbEvidenceReplaces: AbsorbEvidence restricts the tree's potentials,
// not the state's current tables — a second call replaces the first's
// evidence, a likelihood absorbed before it is gone — and evidence it refuses
// leaves the state exactly as it was.
func TestAbsorbEvidenceReplaces(t *testing.T) {
	tr := sliceTree(t, 4)
	g := Build(tr)
	vars, cardOf := tr.Variables()
	a := potential.Evidence{vars[0]: 1, vars[5]: 0}
	b := potential.Evidence{vars[5]: 1, vars[9]: 0}
	st, err := g.NewStateEvidence(SumProduct, a)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AbsorbLikelihood(potential.Likelihood{vars[2]: make([]float64, cardOf[vars[2]])}); err != nil {
		t.Fatal(err)
	}
	if err := st.AbsorbEvidence(b); err != nil {
		t.Fatal(err)
	}
	want, err := g.NewStateEvidence(SumProduct, b)
	if err != nil {
		t.Fatal(err)
	}
	// Before a run a state holds the shapes of its tables and the entries of
	// the cliques absorb wrote; a table the evidence leaves whole is written by
	// the run (State), so those entries are compared after both have run, below.
	same := func(what string) {
		t.Helper()
		for i := range st.Clique {
			s, w := st.Clique[i], want.Clique[i]
			if !reflect.DeepEqual(s.Card, w.Card) || s.Len() != w.Len() || (st.Sep[i] != nil && !reflect.DeepEqual(st.Sep[i].Card, want.Sep[i].Card)) {
				t.Fatalf("%s: clique %d is shaped %v over separator %v, want %v over %v", what, i, s.Card, st.Sep[i], w.Card, want.Sep[i])
			}
			if st.unwritten[i] != want.unwritten[i] {
				t.Fatalf("%s: clique %d left unwritten %v, want %v", what, i, st.unwritten[i], want.unwritten[i])
			}
			if !st.unwritten[i] && !sameBits(s.Data, w.Data) {
				t.Fatalf("%s: clique %d is %v, want %v", what, i, s, w)
			}
		}
		if !reflect.DeepEqual(st.Observed(), want.Observed()) || st.Weight() != want.Weight() {
			t.Fatalf("%s: observed %v weight %v, want %v and %v", what, st.Observed(), st.Weight(), want.Observed(), want.Weight())
		}
	}
	// snapshot copies every entry the state holds and what absorb left
	// unwritten, written or not.
	snapshot := func() (tabs [][]float64, unwritten []bool) {
		for i := range st.Clique {
			tabs = append(tabs, append([]float64(nil), st.Clique[i].Data...))
			if st.Sep[i] != nil {
				tabs = append(tabs, append([]float64(nil), st.Sep[i].Data...))
			}
		}
		return tabs, append([]bool(nil), st.unwritten...)
	}
	same("second AbsorbEvidence")
	for _, bad := range []potential.Evidence{
		{vars[1]: cardOf[vars[1]]},
		{vars[9]: 0, vars[3]: -1},
	} {
		tabs, unwritten := snapshot()
		if err := st.AbsorbEvidence(bad); err == nil {
			t.Fatalf("evidence %v accepted", bad)
		}
		same("refused evidence")
		gotTabs, gotUnwritten := snapshot()
		if len(gotTabs) != len(tabs) || !reflect.DeepEqual(gotUnwritten, unwritten) {
			t.Fatalf("refused evidence %v reshaped the state", bad)
		}
		for k := range tabs {
			if !sameBits(gotTabs[k], tabs[k]) {
				t.Fatalf("refused evidence %v rewrote table %d: %v, was %v", bad, k, gotTabs[k], tabs[k])
			}
		}
	}
	if err := st.AbsorbEvidence(potential.Evidence{vars[5]: 1, vars[9]: 0, 1 << 20: 3, -4: 0}); err != nil {
		t.Fatalf("evidence on variables the tree lacks: %v", err)
	}
	same("evidence on unknown variables")
	for _, s := range []*State{st, want} {
		if err := s.RunSerial(); err != nil {
			t.Fatal(err)
		}
	}
	for i := range st.Clique {
		if !reflect.DeepEqual(st.Clique[i], want.Clique[i]) || !reflect.DeepEqual(st.Sep[i], want.Sep[i]) {
			t.Fatalf("after the run clique %d is %v over separator %v, want %v over %v", i, st.Clique[i], st.Sep[i], want.Clique[i], want.Sep[i])
		}
	}
}

// TestLift: a table derived from sliced tables goes back to the full domain
// with its entries at the observed states and zeros elsewhere; one that
// mentions no observed variable is returned as it is.
func TestLift(t *testing.T) {
	tr := sliceTree(t, 5)
	g := Build(tr)
	root := &tr.Cliques[tr.Root]
	a, b, c := root.Vars[0], root.Vars[1], root.Vars[2]
	ca, cb, cc := root.Card[0], root.Card[1], root.Card[2]
	st, err := g.NewStateEvidence(SumProduct, potential.Evidence{b: cb - 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := st.Clique[tr.Root].Marginal([]int{a, b, c})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Card, []int{ca, 1, cc}) {
		t.Fatalf("marginal of a sliced clique has cardinalities %v", m.Card)
	}
	full := st.Lift(m)
	if !reflect.DeepEqual(full.Card, []int{ca, cb, cc}) || full.Len() != ca*cb*cc {
		t.Fatalf("lifted table has cardinalities %v, %d entries", full.Card, full.Len())
	}
	for i := 0; i < ca; i++ {
		for j := 0; j < cb; j++ {
			for k := 0; k < cc; k++ {
				want := 0.0
				if j == cb-1 {
					want = m.At(i, 0, k)
				}
				if got := full.At(i, j, k); got != want {
					t.Errorf("lifted entry (%d,%d,%d) is %v, want %v", i, j, k, got, want)
				}
			}
		}
	}
	free, err := st.Clique[tr.Root].Marginal([]int{a, c})
	if err != nil {
		t.Fatal(err)
	}
	if st.Lift(free) != free {
		t.Error("a table over unobserved variables was copied")
	}
	st.Reset(SumProduct)
	if st.Lift(m) != m {
		t.Error("a state at the full domain lifted a table")
	}
}

// TestTargetMask: a state told what will be read masks exactly the distribute
// messages toward the cliques nothing is read from — a set closed under
// successors, priced entry for entry — runs the rest to the full run's bits on
// every clique it reaches, and, resumed, runs what it left to the full run's
// bits everywhere. The next absorb lifts the mask without being asked.
func TestTargetMask(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		tr := sliceTree(t, seed)
		g := Build(tr)
		rng := rand.New(rand.NewSource(seed))
		vars, _ := tr.Variables()
		for _, width := range []int{0, 2, 5} {
			ev := randomEvidence(rng, tr, width)
			full, err := g.NewStateEvidence(SumProduct, ev)
			if err != nil {
				t.Fatal(err)
			}
			if err := full.RunSerial(); err != nil {
				t.Fatal(err)
			}
			for _, targets := range [][]int{{}, {vars[rng.Intn(len(vars))]}, {vars[0], vars[len(vars)/2], vars[len(vars)-1]}, vars} {
				what := fmt.Sprintf("seed %d, %d observed, targets %v", seed, width, targets)
				st, err := g.NewStateEvidence(SumProduct, ev)
				if err != nil {
					t.Fatal(err)
				}
				st.Target(targets)
				live, weight, skipped := st.Live(), 0.0, 0
				for id := range g.Tasks {
					if live != nil && !live[id] {
						skipped++
						for _, s := range g.Tasks[id].Succs {
							if live[s] {
								t.Fatalf("%s: masked task %d has live successor %d", what, id, s)
							}
						}
						continue
					}
					weight += float64(st.PartitionSize(id))
				}
				if st.Skipped() != skipped || st.Weight() != weight || st.GraphWeight() != full.Weight() {
					t.Fatalf("%s: skipped %d (counted %d), weight %v (counted %v), graph weight %v (full run's %v)",
						what, st.Skipped(), skipped, st.Weight(), weight, st.GraphWeight(), full.Weight())
				}
				if len(targets) == len(vars) && live != nil {
					t.Fatalf("%s: every variable is a target, yet %d tasks are masked", what, skipped)
				}
				if err := st.RunSerial(); err != nil {
					t.Fatal(err)
				}
				st.ReleaseScratch()
				if got, want := st.EvidenceMass(), full.EvidenceMass(); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: P(e) %v, the full run has %v", what, got, want)
				}
				for _, v := range targets {
					ci := tr.CliqueOf(v)
					if !st.Reached(ci) || !reflect.DeepEqual(st.Clique[ci].Data, full.Clique[ci].Data) {
						t.Fatalf("%s: clique %d of target %d: reached %v, or not the full run's table", what, ci, v, st.Reached(ci))
					}
				}
				if err := st.Resume(); err != nil {
					t.Fatal(err)
				}
				if live != nil { // an unmasked state has nothing to resume
					if st.Skipped() != g.N()-skipped {
						t.Fatalf("%s: the remainder skips %d tasks, the first run ran %d", what, st.Skipped(), g.N()-skipped)
					}
					if err := st.RunSerial(); err != nil {
						t.Fatal(err)
					}
					st.Target(nil)
				}
				for i := range full.Clique {
					if !reflect.DeepEqual(st.Clique[i].Data, full.Clique[i].Data) || (full.Sep[i] != nil && !reflect.DeepEqual(st.Sep[i].Data, full.Sep[i].Data)) {
						t.Fatalf("%s: table %d of the completed state is not the full run's", what, i)
					}
				}
				st.Target(targets)
				if err := st.AbsorbEvidence(ev); err != nil {
					t.Fatal(err)
				}
				if st.Live() != nil || st.Skipped() != 0 || st.Weight() != full.Weight() {
					t.Fatalf("%s: the mask survived AbsorbEvidence", what)
				}
			}
		}
	}
}
