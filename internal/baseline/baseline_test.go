package baseline

import (
	"testing"

	"evprop/internal/bayesnet"
	"evprop/internal/jtree"
	"evprop/internal/lazy"
	"evprop/internal/potential"
	"evprop/internal/taskgraph"
)

// fixture returns a graph plus the serial reference state.
func fixture(t *testing.T) (*taskgraph.Graph, *taskgraph.State) {
	t.Helper()
	tr, err := jtree.Random(jtree.RandomConfig{N: 24, Width: 5, States: 2, Degree: 3, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.MaterializeRandom(31); err != nil {
		t.Fatal(err)
	}
	g := taskgraph.Build(tr)
	ref, err := g.NewState()
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.RunSerial(); err != nil {
		t.Fatal(err)
	}
	return g, ref
}

func assertSame(t *testing.T, label string, ref, got *taskgraph.State) {
	t.Helper()
	for i := range ref.Clique {
		a, b := ref.Clique[i].Clone(), got.Clique[i].Clone()
		if err := a.Normalize(); err != nil {
			t.Fatal(err)
		}
		if err := b.Normalize(); err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b, 1e-9) {
			t.Fatalf("%s: clique %d differs from serial reference", label, i)
		}
	}
}

func TestLevelSyncMatchesSerial(t *testing.T) {
	g, ref := fixture(t)
	for _, p := range []int{1, 2, 4, 8} {
		st, err := g.NewState()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := LevelSync(st, p); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		assertSame(t, "levelsync", ref, st)
	}
	st, _ := g.NewState()
	if _, err := LevelSync(st, 0); err == nil {
		t.Error("accepted p=0")
	}
}

func TestDataParallelMatchesSerial(t *testing.T) {
	g, ref := fixture(t)
	for _, p := range []int{1, 2, 4, 7} {
		st, err := g.NewState()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DataParallel(st, p); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		assertSame(t, "dataparallel", ref, st)
	}
	st, _ := g.NewState()
	if _, err := DataParallel(st, 0); err == nil {
		t.Error("accepted p=0")
	}
}

func TestCentralizedMatchesSerial(t *testing.T) {
	g, ref := fixture(t)
	for _, p := range []int{2, 4, 8} {
		st, err := g.NewState()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Centralized(st, p); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		assertSame(t, "centralized", ref, st)
	}
	st, _ := g.NewState()
	if _, err := Centralized(st, 1); err == nil {
		t.Error("accepted p=1 (no worker left)")
	}
}

func TestDistributedEmuMatchesSerial(t *testing.T) {
	g, ref := fixture(t)
	for _, p := range []int{1, 2, 4, 8} {
		st, err := g.NewState()
		if err != nil {
			t.Fatal(err)
		}
		res, err := DistributedEmu(st, p)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if p > 1 && res.Messages == 0 {
			t.Errorf("p=%d: no emulated messages", p)
		}
		if p == 1 && res.Messages != 0 {
			t.Errorf("p=1 moved %d messages", res.Messages)
		}
		assertSame(t, "distributed", ref, st)
	}
}

func TestDistributedEmuMessagesGrowWithP(t *testing.T) {
	g, _ := fixture(t)
	prev := -1
	for _, p := range []int{1, 2, 4, 8} {
		st, err := g.NewState()
		if err != nil {
			t.Fatal(err)
		}
		res, err := DistributedEmu(st, p)
		if err != nil {
			t.Fatal(err)
		}
		if res.Messages < prev {
			t.Errorf("messages decreased from %d to %d at p=%d", prev, res.Messages, p)
		}
		prev = res.Messages
	}
}

func TestBaselinesOnBayesNet(t *testing.T) {
	// All baselines must reproduce the brute-force oracle on Asia, driving
	// the eager state and (for the Executor-generic ones) a lazy state's
	// pruned graph.
	net, ids := bayesnet.Asia()
	tr, err := net.Compile()
	if err != nil {
		t.Fatal(err)
	}
	g := taskgraph.Build(tr)
	lp, err := lazy.New(tr, g)
	if err != nil {
		t.Fatal(err)
	}
	ev := potential.Evidence{ids["Dysp"]: 1}
	type marginaler interface {
		Marginal(v int) (*potential.Potential, error)
	}
	check := func(label string, st marginaler) {
		t.Helper()
		for name, v := range ids {
			if v == ids["Dysp"] {
				continue
			}
			got, err := st.Marginal(v)
			if err != nil {
				t.Fatal(err)
			}
			want, err := net.ExactMarginal(v, ev)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want, 1e-9) {
				t.Errorf("%s: P(%s|e) = %v, oracle %v", label, name, got.Data, want.Data)
			}
		}
	}
	type runner struct {
		name string
		run  func(taskgraph.Executor) error
	}
	runners := []runner{
		{"levelsync", func(st taskgraph.Executor) error { _, err := LevelSync(st, 4); return err }},
		{"dataparallel", func(st taskgraph.Executor) error { _, err := DataParallel(st, 4); return err }},
		{"centralized", func(st taskgraph.Executor) error { _, err := Centralized(st, 4); return err }},
		{"distributed", func(st taskgraph.Executor) error { _, err := DistributedEmu(st.(*taskgraph.State), 4); return err }},
	}
	for _, r := range runners {
		st, err := g.NewState()
		if err != nil {
			t.Fatal(err)
		}
		if err := st.AbsorbEvidence(ev); err != nil {
			t.Fatal(err)
		}
		if err := r.run(st); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		check(r.name, st)
		if r.name == "distributed" {
			continue // drives *taskgraph.State only
		}
		lst, err := lp.NewState(taskgraph.SumProduct, ev, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.run(lst); err != nil {
			t.Fatalf("%s lazy: %v", r.name, err)
		}
		check(r.name+" lazy", lst)
	}
}

func TestEmptyGraphBaselines(t *testing.T) {
	tr, err := jtree.Chain(1, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.MaterializeUniform(); err != nil {
		t.Fatal(err)
	}
	g := taskgraph.Build(tr)
	st, err := g.NewState()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LevelSync(st, 2); err != nil {
		t.Errorf("levelsync: %v", err)
	}
	if _, err := DataParallel(st, 2); err != nil {
		t.Errorf("dataparallel: %v", err)
	}
	if _, err := Centralized(st, 2); err != nil {
		t.Errorf("centralized: %v", err)
	}
	if _, err := DistributedEmu(st, 2); err != nil {
		t.Errorf("distributed: %v", err)
	}
}

func TestTransferRoundTripPreservesData(t *testing.T) {
	p := potential.MustNew([]int{0, 1}, []int{2, 3})
	for i := range p.Data {
		p.Data[i] = float64(i) * 1.5
	}
	orig := p.Clone()
	n, err := transferRoundTrip(p)
	if err != nil {
		t.Fatal(err)
	}
	if n != 6*8 {
		t.Errorf("bytes = %d, want 48", n)
	}
	if !p.Equal(orig, 0) {
		t.Error("round trip corrupted data")
	}
}
