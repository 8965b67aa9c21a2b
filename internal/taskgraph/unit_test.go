package taskgraph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"evprop/internal/potential"
)

// runPieces executes the state's live tasks in topological order as a pool
// cuts them, one piece after another: pieces of chunk entries, the first into
// the task's destination, the others into partial buffers that Combine folds
// in piece order.
func runPieces(t *testing.T, st *State, chunk int) {
	t.Helper()
	order, err := st.g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range order {
		if st.live != nil && !st.live[id] {
			continue
		}
		var bufs []*potential.Potential
		for lo, size := 0, st.PartitionSize(id); lo < size; lo += chunk {
			var buf *potential.Potential
			if lo > 0 {
				if buf = st.NewPartialBuffer(id); buf != nil {
					bufs = append(bufs, buf)
				}
			}
			if err := st.ExecutePiece(id, lo, min(lo+chunk, size), buf); err != nil {
				t.Fatalf("task %s piece at %d: %v", &st.g.Tasks[id], lo, err)
			}
		}
		if err := st.Combine(id, bufs); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCPTFreeCliqueStartsAsItsMessage: a clique with children whose tree table
// is one in every entry is written by its first message and its tree table is
// never read. On generated trees where such a clique is the first to hold a
// variable — so a likelihood on that variable lands on it — and its tree table
// is poisoned once the first state has marked it, every table and P(e) equals,
// bit for bit, those of a reference graph that multiplies the ones in (its
// mark lifted): in both semirings, at evidence that leaves the clique whole
// and evidence that slices it, with and without a likelihood on it, run whole
// and cut into pieces.
func TestCPTFreeCliqueStartsAsItsMessage(t *testing.T) {
	sliced, soft := 0, 0
	for seed := int64(0); seed < 6; seed++ {
		tr := sliceTree(t, seed)
		vars, cardOf := tr.Variables()
		u, v := -1, -1
		for _, x := range vars {
			if c := tr.CliqueOf(x); len(tr.Cliques[c].Children) > 0 {
				u, v = c, x
				break
			}
		}
		if u < 0 {
			t.Fatalf("seed %d: no clique with children is the first to hold a variable", seed)
		}
		unit := tr.Cliques[u].Pot.Data
		for i := range unit {
			unit[i] = 1
		}
		g, ref := Build(tr), Build(tr.Clone())
		rng := rand.New(rand.NewSource(seed))
		for _, mode := range []Mode{SumProduct, MaxProduct} {
			st, err := g.NewStateMode(mode)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.NewStateMode(mode)
			if err != nil {
				t.Fatal(err)
			}
			if !g.unit[u] {
				t.Fatalf("seed %d: clique %d is not marked CPT-free", seed, u)
			}
			ref.unit[u] = false
			for i := range unit {
				unit[i] = math.NaN()
			}
			weights := make([]float64, cardOf[v])
			for i := range weights {
				weights[i] = 0.5 + float64(i)
			}
			for _, width := range []int{0, 1, 3, len(vars) / 2} {
				ev := randomEvidence(rng, tr, width)
				for _, like := range []potential.Likelihood{nil, {v: weights}} {
					for _, chunk := range []int{0, 5} {
						what := fmt.Sprintf("seed %d %v width %d likelihood %v chunk %d", seed, mode, width, like != nil, chunk)
						for _, s := range []*State{st, want} {
							if err := s.AbsorbEvidence(ev); err != nil {
								t.Fatal(err)
							}
							if err := s.AbsorbLikelihood(like); err != nil {
								t.Fatal(err)
							}
							if chunk == 0 {
								err = s.RunSerial()
							} else {
								runPieces(t, s, chunk)
							}
							if err != nil {
								t.Fatal(err)
							}
						}
						if st.Clique[u].Len() < len(unit) {
							sliced++
						}
						if like != nil {
							soft++
						}
						for i := range st.Clique {
							if !sameBits(st.Clique[i].Data, want.Clique[i].Data) {
								t.Fatalf("%s: clique %d differs from the reference", what, i)
							}
							if st.Sep[i] != nil && !sameBits(st.Sep[i].Data, want.Sep[i].Data) {
								t.Fatalf("%s: separator %d differs from the reference", what, i)
							}
						}
						if !st.summed {
							t.Fatalf("%s: P(e) was not summed inside the run", what)
						}
						if got, w := st.EvidenceMass(), want.EvidenceMass(); math.Float64bits(got) != math.Float64bits(w) {
							t.Fatalf("%s: P(e) %v, reference %v", what, got, w)
						}
					}
				}
			}
		}
	}
	if sliced == 0 || soft == 0 {
		t.Fatalf("%d runs sliced the CPT-free clique, %d put a likelihood on it", sliced, soft)
	}
}

// TestSumTaskTakesPOfE: the run's P(e) is summed by one live distribute
// Marginalize out of the root — of those the mask leaves, the one that starts
// the lightest chain — whole or, cut, in its combiner, to the bits of summing
// the root after the run. A run that has no such task (a collect pass alone,
// targets all in the root) leaves the sum to EvidenceMass.
func TestSumTaskTakesPOfE(t *testing.T) {
	tr := sliceTree(t, 3)
	g := Build(tr)
	st, err := g.NewState()
	if err != nil {
		t.Fatal(err)
	}
	_, down := g.ChainWeights()
	root := tr.Root
	var out []int // the root's distribute Marginalize tasks
	for id := range g.Tasks {
		if tk := &g.Tasks[id]; tk.Kind == Marginalize && tk.Dir == Distribute && tk.Source == root {
			out = append(out, id)
		}
	}
	if len(out) < 2 {
		t.Fatalf("the root has %d children; the test wants two or more", len(out))
	}
	lightest := func(live func(id int) bool) int {
		best := -1
		for _, id := range out {
			if live(id) && (best < 0 || down[id] < down[best]) {
				best = id
			}
		}
		return best
	}
	// held returns a variable read from clique ci.
	held := func(ci int) int {
		for _, x := range tr.Cliques[ci].Vars {
			if tr.CliqueOf(x) == ci {
				return x
			}
		}
		t.Fatalf("no variable is read from clique %d", ci)
		return -1
	}
	child := tr.Cliques[root].Children[0]
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct {
		name    string
		targets []int
		want    int
	}{
		{"full run", nil, lightest(func(int) bool { return true })},
		{"collect alone", []int{}, -1},
		{"a target in the root", []int{held(root)}, -1},
		{"a target below the root", []int{held(child)}, lightest(func(id int) bool { return g.Tasks[id].Edge == child })},
	} {
		for _, chunk := range []int{0, 5} {
			what := fmt.Sprintf("%s, chunk %d", tc.name, chunk)
			if err := st.AbsorbEvidence(randomEvidence(rng, tr, 2)); err != nil {
				t.Fatal(err)
			}
			st.Target(tc.targets)
			if st.sumTask != tc.want {
				t.Fatalf("%s: sum task %d, want %d", what, st.sumTask, tc.want)
			}
			if chunk == 0 {
				err = st.RunSerial()
			} else {
				runPieces(t, st, chunk)
			}
			if err != nil {
				t.Fatal(err)
			}
			if st.summed != (tc.want >= 0) {
				t.Fatalf("%s: summed inside the run: %v", what, st.summed)
			}
			if got, w := st.EvidenceMass(), st.Clique[root].Sum(); math.Float64bits(got) != math.Float64bits(w) {
				t.Fatalf("%s: P(e) %v, the root sums to %v", what, got, w)
			}
		}
	}
}
