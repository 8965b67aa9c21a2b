package evprop

import (
	"bytes"
	"math/rand"
	"testing"

	"evprop/internal/potential"
	"evprop/internal/taskgraph"
)

// servedModel is one of the load benchmark's generated models as evserve gets
// it: written as BIF and parsed back, which renumbers the variables and so
// changes the junction tree.
func servedModel(t testing.TB, nodes, parents int) *Network {
	t.Helper()
	var buf bytes.Buffer
	if err := RandomNetwork(nodes, 2, parents, 7).WriteBIF(&buf, "model", nil); err != nil {
		t.Fatal(err)
	}
	net, _, err := ParseBIF(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// benchmarkEvidence reproduces the evidence of the load benchmark's traced
// request stream for a traffic seed (benchmark/spec.go: lane 0 of newStream):
// width distinct variables off a permutation, each in a random state.
func benchmarkEvidence(net *Network, seed int64, width, n int) []Evidence {
	evs, _ := benchmarkQueries(net, seed, width, 0, n)
	return evs
}

// benchmarkQueries is benchmarkEvidence with the stream's query lists beside
// it: the next targets variables off each request's permutation.
func benchmarkQueries(net *Network, seed int64, width, targets, n int) ([]Evidence, [][]string) {
	rng := rand.New(rand.NewSource(seed*1_000_003 + 1))
	vars := net.Variables()
	evs, asked := make([]Evidence, n), make([][]string, n)
	for q := range evs {
		evs[q] = Evidence{}
		perm := rng.Perm(len(vars))
		for _, i := range perm[:width] {
			evs[q][vars[i]] = rng.Intn(net.States(vars[i]))
		}
		for _, i := range perm[width : width+targets] {
			asked[q] = append(asked[q], vars[i])
		}
	}
	return evs, asked
}

// TestWorkFollowsEvidence asserts, without a clock, that a query costs what
// its evidence leaves: every task of a sliced run ranges over exactly the
// product of the unobserved cardinalities of its table, the run's weight is
// their sum, and over the benchmark's own traffic (seeds 1 and 2, the first
// 200 queries of each) that is 0.54 ± 0.02 of the graph's weight on wide60
// with 4 variables observed, under 0.05 on mid60 with 30 and about 0.7 on
// small40 with 4 — while a result pinned by the cache keeps under 0.6 of the
// tree's table entries on wide60.
func TestWorkFollowsEvidence(t *testing.T) {
	for _, m := range []struct {
		name                     string
		nodes, parents, observed int
		shareLo, shareHi         float64
		retainedHi               float64
	}{
		{"wide60", 60, 5, 4, 0.52, 0.56, 0.6},
		{"mid60", 60, 4, 30, 0, 0.05, 0.1},
		{"small40", 40, 3, 4, 0.65, 0.8, 0.8},
	} {
		t.Run(m.name, func(t *testing.T) {
			net := servedModel(t, m.nodes, m.parents)
			eng, err := net.Compile(Options{Workers: 2, CacheSize: 32})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			g, tree := eng.inner.Graph(), eng.inner.Tree()
			unobserved := func(vars, card []int, ev potential.Evidence) int {
				n := 1
				for i, v := range vars {
					if _, ok := ev[v]; !ok {
						n *= card[i]
					}
				}
				return n
			}
			queries := 200
			if testing.Short() {
				queries = 20
			}
			var share, retained float64
			runs, pinned := 0, 0
			for seed := int64(1); seed <= 2; seed++ {
				for q, ev := range benchmarkEvidence(net, seed, m.observed, queries) {
					iev, err := net.evidence(ev)
					if err != nil {
						t.Fatal(err)
					}
					st, err := g.NewStateEvidence(taskgraph.SumProduct, iev)
					if err != nil {
						t.Fatal(err)
					}
					sum := 0
					for id := range g.Tasks {
						task := &g.Tasks[id]
						var want int
						switch c := &tree.Cliques[task.Edge]; task.Kind {
						case taskgraph.Marginalize:
							src := &tree.Cliques[task.Source]
							want = unobserved(src.Vars, src.Card, iev)
						case taskgraph.Divide:
							want = unobserved(c.SepVars, c.SepCard, iev)
						case taskgraph.Multiply:
							dst := &tree.Cliques[task.Target]
							want = unobserved(dst.Vars, dst.Card, iev)
						}
						if got := st.PartitionSize(id); got != want {
							t.Fatalf("seed %d query %d: task %s ranges over %d entries, its unobserved variables span %d", seed, q, task, got, want)
						}
						sum += want
					}
					if float64(sum) != st.Weight() {
						t.Fatalf("seed %d query %d: tasks sum to %d entries, the state prices the run at %v", seed, q, sum, st.Weight())
					}
					share += float64(sum) / g.TotalWeight()
					runs++
					// Twice: the first sight runs on a recycled state and pins
					// nothing, the second is the pinned result.
					for sight := 0; sight < 2 && q < 40; sight++ {
						res, err := eng.Propagate(ev)
						if err != nil {
							t.Fatal(err)
						}
						if res.res.Pinned() && !res.Cached() {
							retained += 8 * float64(res.res.State().RetainedEntries()) / float64(eng.inner.ResultBytes())
							pinned++
						}
						if rec := res.Records()[0]; !res.Cached() && (rec.Entries != int64(sum) || rec.GraphEntries != int64(g.TotalWeight())) {
							t.Fatalf("seed %d query %d: record says %d of %d entries, the run had %d of %v", seed, q, rec.Entries, rec.GraphEntries, sum, g.TotalWeight())
						}
						res.Close()
					}
				}
			}
			if pinned == 0 {
				t.Fatal("no query came back pinned")
			}
			share /= float64(runs)
			retained /= float64(pinned)
			t.Logf("%s, %d observed: %.3f of the graph's %v entries per run, %.3f of the tree's tables per pinned result", m.name, m.observed, share, g.TotalWeight(), retained)
			if !testing.Short() && (share < m.shareLo || share > m.shareHi) {
				t.Errorf("mean share of the graph's weight %.3f, want within [%v, %v]", share, m.shareLo, m.shareHi)
			}
			if retained > m.retainedHi {
				t.Errorf("a pinned result retains %.3f of the tree's table entries on average, want at most %v", retained, m.retainedHi)
			}
		})
	}
}
