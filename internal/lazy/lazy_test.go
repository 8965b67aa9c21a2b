package lazy

import (
	"errors"
	"math"
	"testing"

	"evprop/internal/bayesnet"
	"evprop/internal/potential"
	"evprop/internal/taskgraph"
)

func asiaProp(t *testing.T) (*Prop, map[string]int) {
	t.Helper()
	net, ids := bayesnet.Asia()
	tree, err := net.Compile()
	if err != nil {
		t.Fatal(err)
	}
	g := taskgraph.Build(tree)
	p, err := New(tree, g)
	if err != nil {
		t.Fatal(err)
	}
	return p, ids
}

// TestEmptyEvidencePlanIsFullyPruned: with nothing observed the tree is
// already calibrated, so the plan must contain no tasks at all and the
// state must answer P() = 1 and calibrated marginals without propagating.
func TestEmptyEvidencePlanIsFullyPruned(t *testing.T) {
	p, ids := asiaProp(t)
	st, err := p.NewState(taskgraph.SumProduct, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(st.Graph().Tasks); n != 0 {
		t.Fatalf("empty evidence emitted %d tasks, want 0", n)
	}
	if err := st.RunSerial(); err != nil {
		t.Fatal(err)
	}
	if pe := st.EvidenceMass(); math.Abs(pe-1) > 1e-9 {
		t.Fatalf("P() = %v, want 1", pe)
	}
	m, err := st.Marginal(ids["Smoke"])
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Data[0]+m.Data[1]-1) > 1e-9 {
		t.Fatalf("prior marginal not normalized: %v", m.Data)
	}
	s := st.Stats()
	if s.TasksRun != 0 || s.MessagesSent != 0 || s.Flops != 0 {
		t.Fatalf("empty evidence did work: %+v", s)
	}
	if s.MaterializedEntries != 0 {
		t.Fatalf("empty evidence materialized %d entries", s.MaterializedEntries)
	}
}

// TestLazyMatchesEagerSerial runs the pruned graph serially and compares
// every posterior and P(e) against an eager serial propagation of the same
// evidence.
func TestLazyMatchesEagerSerial(t *testing.T) {
	p, ids := asiaProp(t)
	ev := potential.Evidence{ids["XRay"]: 1, ids["Dysp"]: 0}

	eager, err := p.full.NewStateMode(taskgraph.SumProduct)
	if err != nil {
		t.Fatal(err)
	}
	if err := eager.AbsorbEvidence(ev); err != nil {
		t.Fatal(err)
	}
	if err := eager.RunSerial(); err != nil {
		t.Fatal(err)
	}

	st, err := p.NewState(taskgraph.SumProduct, ev, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.RunSerial(); err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(st.EvidenceMass() - eager.EvidenceMass()); d > 1e-12 {
		t.Fatalf("P(e): lazy %v eager %v", st.EvidenceMass(), eager.EvidenceMass())
	}
	for _, v := range ids {
		if _, fixed := ev[v]; fixed {
			continue
		}
		lm, err := st.Marginal(v)
		if err != nil {
			t.Fatal(err)
		}
		em, err := eager.Marginal(v)
		if err != nil {
			t.Fatal(err)
		}
		if !lm.Equal(em, 1e-9) {
			t.Fatalf("variable %d: lazy %v eager %v", v, lm.Data, em.Data)
		}
	}
	s := st.Stats()
	if s.MessagesSkipped == 0 && s.MessagesBlocked == 0 {
		t.Fatalf("two observed leaves pruned nothing: %+v", s)
	}
	if s.Flops >= s.FlopsFull {
		t.Fatalf("lazy flops %d not below eager %d", s.Flops, s.FlopsFull)
	}
}

// TestPlanCacheKeysOnObservedSet: identical evidence reuses the cached
// plan; changing an observed *value* changes the hull selection and must
// build a distinct plan, as must changing the observed set.
func TestPlanCacheKeysOnObservedSet(t *testing.T) {
	p, ids := asiaProp(t)
	ev1 := potential.Evidence{ids["XRay"]: 1}
	a, hit := p.planFor(ev1, nil)
	if hit {
		t.Fatal("first sight of the evidence reported a plan-cache hit")
	}
	b, hit := p.planFor(potential.Evidence{ids["XRay"]: 1}, nil)
	if a != b || !hit {
		t.Fatal("identical evidence rebuilt the plan")
	}
	if c, _ := p.planFor(potential.Evidence{ids["XRay"]: 0}, nil); c == a {
		t.Fatal("different observed value reused the plan")
	}
	if d, _ := p.planFor(potential.Evidence{ids["Smoke"]: 1}, nil); d == a {
		t.Fatal("different observed set reused the plan")
	}
}

// TestMaxProductCalibratesOnDemand: the max-product calibration is built
// lazily on first use and the resulting max-marginals are positive.
func TestMaxProductCalibratesOnDemand(t *testing.T) {
	p, ids := asiaProp(t)
	if p.cal[taskgraph.MaxProduct] != nil {
		t.Fatal("max calibration built eagerly")
	}
	st, err := p.NewState(taskgraph.MaxProduct, potential.Evidence{ids["XRay"]: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.cal[taskgraph.MaxProduct] == nil {
		t.Fatal("max calibration not built on first max state")
	}
	if err := st.RunSerial(); err != nil {
		t.Fatal(err)
	}
	if err := st.Calibrate(); err != nil {
		t.Fatal(err)
	}
	if s := st.MassScale(); s <= 0 {
		t.Fatalf("MassScale = %v, want positive", s)
	}
	root, err := st.CliquePot(p.tree.Root)
	if err != nil {
		t.Fatal(err)
	}
	max := 0.0
	for _, x := range root.Data {
		if x > max {
			max = x
		}
	}
	if max <= 0 {
		t.Fatalf("max-marginal root is all zero")
	}
}

// TestReleaseScratchChangesNoAnswer: two states of one query are run alike;
// one gives up its collect-only buffers before being read, as the engine does
// for every result. Their pruning counters agree before the reads, every
// posterior, P(e), whole-tree calibration and MPE agrees to the bit, and the
// counters — MaterializedEntries above all: the on-demand distribute pass
// must not have to re-allocate what was released — agree after them. The
// released state refuses to be executed again.
func TestReleaseScratchChangesNoAnswer(t *testing.T) {
	p, ids := asiaProp(t)
	ev := potential.Evidence{ids["XRay"]: 1, ids["Smoke"]: 0}
	for _, mode := range []taskgraph.Mode{taskgraph.SumProduct, taskgraph.MaxProduct} {
		var kept, released *State
		for _, st := range []**State{&kept, &released} {
			s, err := p.NewState(mode, ev, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.RunSerial(); err != nil {
				t.Fatal(err)
			}
			*st = s
		}
		ran := kept.Stats()
		if ran.MessagesSent == 0 {
			t.Fatalf("%v: the query sends no collect message, so the run used no buffers", mode)
		}
		released.ReleaseScratch()
		if !released.released || released.bufFree != nil {
			t.Fatalf("%v: released state still holds its partial buffers", mode)
		}
		if got := released.Stats(); got != ran {
			t.Fatalf("%v: stats after release %+v, want %+v", mode, got, ran)
		}
		if kept.EvidenceMass() != released.EvidenceMass() {
			t.Fatalf("%v: P(e) %v vs %v", mode, kept.EvidenceMass(), released.EvidenceMass())
		}
		for _, v := range ids {
			a, err := kept.Marginal(v)
			if err != nil {
				t.Fatal(err)
			}
			b, err := released.Marginal(v)
			if err != nil {
				t.Fatal(err)
			}
			if !a.Equal(b, 0) {
				t.Fatalf("%v: variable %d: %v with its buffers, %v without", mode, v, a.Data, b.Data)
			}
		}
		for _, st := range []*State{kept, released} {
			if err := st.Calibrate(); err != nil {
				t.Fatal(err)
			}
		}
		for c := range p.tree.Cliques {
			a, _ := kept.CliquePot(c)
			b, _ := released.CliquePot(c)
			if !a.Equal(b, 0) {
				t.Fatalf("%v: calibrated clique %d differs", mode, c)
			}
		}
		if got, want := released.Stats(), kept.Stats(); got != want {
			t.Fatalf("%v: stats after the reads %+v, want %+v", mode, got, want)
		}
		for id, task := range released.Graph().Tasks {
			if err := released.Execute(id); !errors.Is(err, taskgraph.ErrScratchReleased) {
				t.Fatalf("%v: Execute(%s) on a released state: %v", mode, &task, err)
			}
			buf := released.NewPartialBuffer(id)
			if err := released.ExecutePiece(id, 0, released.PartitionSize(id), buf); !errors.Is(err, taskgraph.ErrScratchReleased) {
				t.Fatalf("%v: ExecutePiece(%s) on a released state: %v", mode, &task, err)
			}
			if err := released.Combine(id, []*potential.Potential{buf}); !errors.Is(err, taskgraph.ErrScratchReleased) {
				t.Fatalf("%v: Combine(%s) on a released state: %v", mode, &task, err)
			}
		}
		if released.bufFree != nil {
			t.Fatalf("%v: a refused Combine rebuilt the free lists", mode)
		}
	}
}
