package evprop

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"evprop/internal/potential"
	"evprop/internal/taskgraph"
)

// poison is a NaN payload no model table and no product of its entries holds:
// what absorbWrites fills a state's tables with to see which entries an absorb
// writes.
var poison = math.Float64frombits(0x7ff8_dead_beef_0001)

// absorbWrites absorbs ev into st and counts, without a clock, the clique and
// separator entries that absorb wrote: every table is poisoned at its capacity
// first, and an entry written is one that no longer carries the poison. held
// is what the tables hold after it — what absorb wrote when it copied the
// model into every table.
func absorbWrites(t testing.TB, st *taskgraph.State, ev potential.Evidence) (cliques, seps, held int) {
	t.Helper()
	fill := func(ps []*potential.Potential) {
		for _, p := range ps {
			if p != nil {
				d := p.Data[:cap(p.Data)]
				for i := range d {
					d[i] = poison
				}
			}
		}
	}
	count := func(ps []*potential.Potential) (n int) {
		for _, p := range ps {
			if p == nil {
				continue
			}
			held += p.Len()
			for _, x := range p.Data {
				if math.Float64bits(x) != math.Float64bits(poison) {
					n++
				}
			}
		}
		return n
	}
	fill(st.Clique)
	fill(st.Sep)
	if err := st.AbsorbEvidence(ev); err != nil {
		t.Fatal(err)
	}
	return count(st.Clique), count(st.Sep), held
}

// TestAbsorbWritesWhatEvidenceChanges is absorb's claim without a clock: on
// the load benchmark's wide-miss traffic (wide60, 4 observed; seeds 1 and 2,
// 200 queries each) absorbing a query writes at most 0.12 of the entries its
// state's tables hold — the cliques the evidence slices that hold a CPT,
// gathered — where it once copied the model into all of them; a clique the
// evidence leaves whole, and a CPT-free one sliced or not, is written by its
// first task and a separator by the collect message. With nothing observed it
// writes no clique entry and no separator entry, through AbsorbEvidence and
// through Reset.
func TestAbsorbWritesWhatEvidenceChanges(t *testing.T) {
	net := servedModel(t, 60, 5)
	eng, err := net.Compile(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	st, err := eng.inner.Graph().NewState()
	if err != nil {
		t.Fatal(err)
	}
	queries := 200
	if testing.Short() {
		queries = 20
	}
	var written, held int
	for seed := int64(1); seed <= 2; seed++ {
		for _, ev := range benchmarkEvidence(net, seed, 4, queries) {
			iev, err := net.evidence(ev)
			if err != nil {
				t.Fatal(err)
			}
			c, s, h := absorbWrites(t, st, iev)
			if s != 0 {
				t.Fatalf("absorbing %v wrote %d separator entries", ev, s)
			}
			written, held = written+c, held+h
		}
	}
	share := float64(written) / float64(held)
	t.Logf("wide-miss: absorb writes %d of the %d entries its tables hold (%.3f)", written, held, share)
	if share > 0.12 {
		t.Errorf("absorb writes %.3f of the entries its tables hold, want at most 0.12", share)
	}
	if c, s, _ := absorbWrites(t, st, nil); c != 0 || s != 0 {
		t.Errorf("absorbing no evidence wrote %d clique and %d separator entries", c, s)
	}
	st.Reset(taskgraph.SumProduct)
	if c, s, _ := absorbWrites(t, st, potential.Evidence{}); c != 0 || s != 0 {
		t.Errorf("after Reset, absorbing no evidence wrote %d clique and %d separator entries", c, s)
	}
}

// TestModelTablesUntouched: the model is read-only. A clique's first writer
// reads the tree's table and writes the state's, so after a mixed stream
// against one engine every clique table of its tree is Float64bits-equal to a
// freshly compiled tree's. Per engine — Workers 1, 2 and 4, inline and through
// the dispatch seam with tasks cut into pieces — the stream asks each evidence
// three times, declaring one target (a private targeted run, completed by
// reading an undeclared variable; the pinned second sight; a hit), once with
// soft evidence on a clique the hard evidence leaves whole, and once for the
// MPE.
func TestModelTablesUntouched(t *testing.T) {
	net := RandomNetwork(24, 2, 3, 17)
	fresh, err := net.inner.Compile()
	if err != nil {
		t.Fatal(err)
	}
	vars := net.Variables()
	rng := rand.New(rand.NewSource(17))
	skipped, completed, soft := 0, 0, 0
	for _, col := range []struct {
		workers int
		force   bool
	}{{1, false}, {2, false}, {4, false}, {2, true}, {4, true}} {
		what := fmt.Sprintf("workers=%d force=%v", col.workers, col.force)
		eng, err := net.compile(Options{Workers: col.workers, CacheSize: 16, PartitionThreshold: 16}, col.force)
		if err != nil {
			t.Fatal(err)
		}
		tree := eng.inner.Tree()
		read := func(res *QueryResult, names ...string) {
			t.Helper()
			for _, v := range names {
				if _, err := res.Posterior(v); err != nil {
					t.Fatalf("%s: posterior of %s: %v", what, v, err)
				}
			}
			if recs := res.Records(); len(recs) == 2 {
				completed++
			}
			res.Close()
		}
		for q := 0; q < 6; q++ {
			perm := rng.Perm(len(vars))
			ev := Evidence{vars[perm[0]]: rng.Intn(2), vars[perm[1]]: rng.Intn(2)}
			target, undeclared := vars[perm[2]], vars[perm[3]]
			for sight := 0; sight < 3; sight++ {
				res, err := eng.Propagate(ev, target)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				skipped += res.Records()[0].TasksSkipped
				read(res, target, undeclared)
			}
			observed, err := net.evidence(ev)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range perm[2:] {
				id, _ := net.names(vars[v : v+1])
				whole := true
				for _, u := range tree.Cliques[tree.CliqueOf(id[0])].Vars {
					_, o := observed[u]
					whole = whole && !o
				}
				if whole {
					res, err := eng.PropagateSoft(ev, SoftEvidence{vars[v]: {0.3, 1.7}}, target)
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					read(res, target)
					soft++
					break
				}
			}
			if _, _, err := eng.MostProbableExplanation(ev); err != nil {
				t.Fatalf("%s: MPE: %v", what, err)
			}
		}
		for i := range fresh.Cliques {
			got, want := tree.Cliques[i].Pot.Data, fresh.Cliques[i].Pot.Data
			for k := range want {
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
					t.Fatalf("%s: model clique %d entry %d is %v, a fresh compile has %v", what, i, k, got[k], want[k])
				}
			}
		}
		eng.Close()
	}
	t.Logf("the stream skipped %d tasks, completed %d targeted results, ran %d soft queries", skipped, completed, soft)
	if skipped == 0 || completed == 0 || soft == 0 {
		t.Fatalf("the stream skipped %d tasks, completed %d targeted results, ran %d soft queries", skipped, completed, soft)
	}
}

// cptFree lists the cliques of eng's tree that have children and whose model
// table is one in every entry — no CPT was multiplied into them — and the
// entries those tables hold.
func cptFree(eng *Engine) (cliques []int, entries int) {
	tree := eng.inner.Tree()
	for i := range tree.Cliques {
		c := &tree.Cliques[i]
		unit := len(c.Children) > 0
		for _, x := range c.Pot.Data {
			unit = unit && x == 1
		}
		if unit {
			cliques, entries = append(cliques, i), entries+len(c.Pot.Data)
		}
	}
	return cliques, entries
}

// TestUnitTablesNeverRead: a CPT-free clique starts as its first message, so
// its model table is never read. On the benchmark's three models (pinned: how
// many of the cliques are CPT-free, and their entries), an engine answers one query, then its
// CPT-free model tables are poisoned with a NaN payload; every posterior, P(e)
// and MPE it gives afterwards must be Float64bits-equal to those of an
// unpoisoned engine of the same options. The stream is wide-miss-shaped (4
// observed, 3 declared targets, then an undeclared read that completes the
// run), mid-dense-shaped (30 observed, every posterior, an MPE every third
// query) and soft evidence on a variable a CPT-free clique holds. A likelihood
// lands on the first clique holding its variable, which on these models is
// never CPT-free; taskgraph's TestCPTFreeCliqueStartsAsItsMessage puts one on
// such a clique. The engines run the stream at Workers 1, 2 and 4, and through
// the dispatch seam at Workers 2 and 4 with PartitionThreshold 16 (wide60: its
// own cuts, as 16 would make its run some 10⁵ pieces).
func TestUnitTablesNeverRead(t *testing.T) {
	queries := 6
	if testing.Short() {
		queries = 2
	}
	soft := 0
	for _, m := range []struct {
		name                   string
		nodes, parents         int
		cliques, unit, entries int
		δ                      int // the dispatch seam's PartitionThreshold
	}{
		{"small40", 40, 3, 34, 6, 200, 16},
		{"mid60", 60, 4, 43, 4, 8_368, 16},
		{"wide60", 60, 5, 42, 7, 231_712, 0},
	} {
		net := servedModel(t, m.nodes, m.parents)
		vars := net.Variables()
		wide, asked := benchmarkQueries(net, 1, 4, 3, queries)
		dense := benchmarkEvidence(net, 2, 30, queries)
		for _, col := range []struct {
			workers, threshold int
			force              bool
		}{{1, 0, false}, {2, 0, false}, {4, 0, false}, {2, m.δ, true}, {4, m.δ, true}} {
			what := fmt.Sprintf("%s workers=%d force=%v", m.name, col.workers, col.force)
			opts := Options{Workers: col.workers, PartitionThreshold: col.threshold}
			ref, err := net.compile(opts, col.force)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := net.compile(opts, col.force)
			if err != nil {
				t.Fatal(err)
			}
			// The first query builds the engine's first state, which marks the
			// CPT-free cliques off the model's tables: poison them after it.
			if _, err := eng.QueryAll(wide[0]); err != nil {
				t.Fatal(err)
			}
			units, entries := cptFree(eng)
			if n, _ := eng.Cliques(); n != m.cliques || len(units) != m.unit || entries != m.entries {
				t.Fatalf("%s: %d of %d cliques are CPT-free, %d entries; want %d of %d, %d entries",
					what, len(units), n, entries, m.unit, m.cliques, m.entries)
			}
			tree := eng.inner.Tree()
			softVar := ""
			for _, v := range vars {
				id, _ := net.names([]string{v})
				if slices.ContainsFunc(units, func(ci int) bool { return slices.Contains(tree.Cliques[ci].Vars, id[0]) }) {
					softVar = v
					break
				}
			}
			for _, ci := range units {
				d := tree.Cliques[ci].Pot.Data
				for i := range d {
					d[i] = poison
				}
			}
			// answers reads what the stream asks of one engine, as one vector.
			answers := func(e *Engine, q int) []float64 {
				t.Helper()
				var out []float64
				read := func(res *QueryResult, names ...string) {
					t.Helper()
					out = append(out, res.ProbabilityOfEvidence())
					for _, v := range names {
						p, err := res.Posterior(v)
						if err != nil {
							t.Fatalf("%s: posterior of %s: %v", what, v, err)
						}
						out = append(out, p...)
					}
					res.Close()
				}
				res, err := e.Propagate(wide[q], asked[q]...)
				if err != nil {
					t.Fatal(err)
				}
				read(res, append(asked[q], firstOutside(vars, asked[q]))...)
				if res, err = e.Propagate(dense[q]); err != nil {
					t.Fatal(err)
				}
				read(res, vars...)
				if _, observed := wide[q][softVar]; softVar != "" && !observed {
					if res, err = e.PropagateSoft(wide[q], SoftEvidence{softVar: {0.3, 1.7}}); err != nil {
						t.Fatal(err)
					}
					read(res, vars...)
				}
				if q%3 == 0 {
					mpe, p, err := e.MostProbableExplanation(dense[q])
					if err != nil {
						t.Fatalf("%s: MPE: %v", what, err)
					}
					out = append(out, p)
					for _, v := range vars {
						out = append(out, float64(mpe[v]))
					}
				}
				return out
			}
			for q := range wide {
				got, want := answers(eng, q), answers(ref, q)
				if len(got) != len(want) {
					t.Fatalf("%s: query %d: %d answers, unpoisoned engine %d", what, q, len(got), len(want))
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s: query %d: answer %d is %v, unpoisoned engine %v", what, q, i, got[i], want[i])
					}
				}
				if _, observed := wide[q][softVar]; softVar != "" && !observed {
					soft++
				}
			}
			ref.Close()
			eng.Close()
		}
	}
	if soft == 0 {
		t.Fatal("no query put soft evidence on a variable a CPT-free clique holds")
	}
}
