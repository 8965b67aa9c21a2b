package evprop

import (
	"fmt"
	"math"
	"math/rand"
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
// 200 queries each) absorbing a query writes at most 0.40 of the entries its
// state's tables hold — the cliques the evidence slices, gathered — where it
// once copied the model into all of them; a clique the evidence leaves whole is
// written by its first task and a separator by the collect message. With
// nothing observed it writes no clique entry and no separator entry, through
// AbsorbEvidence and through Reset.
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
	if share > 0.40 {
		t.Errorf("absorb writes %.3f of the entries its tables hold, want at most 0.40", share)
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
