package core

import (
	"math"
	"testing"

	"evprop/internal/bayesnet"
	"evprop/internal/potential"
)

// bruteMPE finds argmax_x P(x, e) by joint enumeration.
func bruteMPE(t *testing.T, net *bayesnet.Network, ev potential.Evidence) (map[int]int, float64) {
	t.Helper()
	joint, err := net.Joint()
	if err != nil {
		t.Fatal(err)
	}
	if err := joint.Reduce(ev); err != nil {
		t.Fatal(err)
	}
	idx, v := joint.ArgMax()
	states := joint.AssignmentOf(idx)
	out := map[int]int{}
	for pos, variable := range joint.Vars {
		out[variable] = states[pos]
	}
	return out, v
}

func TestMPEMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		net := bayesnet.RandomNetwork(9, 2, 2, seed)
		tr, err := net.Compile()
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []Scheduler{Serial, Collaborative} {
			e, err := NewEngine(tr, schedulerOptions(s, Options{Workers: 4, Reroot: true, PartitionThreshold: 4}))
			if err != nil {
				t.Fatal(err)
			}
			ev := potential.Evidence{0: 1}
			res, err := e.PropagateMax(ev)
			if err != nil {
				t.Fatal(err)
			}
			assertRanOn(t, e)
			got, gotP, err := res.MostProbableExplanation()
			if err != nil {
				t.Fatal(err)
			}
			_, wantP := bruteMPE(t, net, ev)
			// Probabilities must match exactly (ties may differ in
			// assignment, so compare by probability of the returned
			// assignment instead of per-variable equality).
			if math.Abs(gotP-wantP) > 1e-9*wantP {
				t.Errorf("seed %d %v: MPE prob %v, brute %v", seed, s, gotP, wantP)
			}
			if p := jointProbOf(t, net, got, ev); math.Abs(p-wantP) > 1e-9*wantP {
				t.Errorf("seed %d %v: returned assignment has P=%v, optimum %v", seed, s, p, wantP)
			}
			if got[0] != 1 {
				t.Errorf("seed %d: MPE contradicts evidence", seed)
			}
		}
	}
}

// jointProbOf evaluates P(assignment) honoring evidence reduction.
func jointProbOf(t *testing.T, net *bayesnet.Network, assignment map[int]int, ev potential.Evidence) float64 {
	t.Helper()
	joint, err := net.Joint()
	if err != nil {
		t.Fatal(err)
	}
	if err := joint.Reduce(ev); err != nil {
		t.Fatal(err)
	}
	states := make([]int, len(joint.Vars))
	for pos, v := range joint.Vars {
		states[pos] = assignment[v]
	}
	return joint.Data[joint.IndexOf(states)]
}

func TestMPEOnAsia(t *testing.T) {
	net, ids := bayesnet.Asia()
	tr, err := net.Compile()
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(tr, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// With no evidence the MPE is the all-healthy non-smoker state.
	res, err := e.PropagateMax(nil)
	if err != nil {
		t.Fatal(err)
	}
	mpe, p, err := res.MostProbableExplanation()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Asia", "Tub", "Lung", "TbOrCa", "XRay", "Dysp"} {
		if mpe[ids[name]] != 0 {
			t.Errorf("MPE[%s] = %d, want 0", name, mpe[ids[name]])
		}
	}
	_, want := bruteMPE(t, net, nil)
	if math.Abs(p-want) > 1e-12 {
		t.Errorf("MPE prob %v, brute %v", p, want)
	}
}

func TestMPERequiresMaxState(t *testing.T) {
	net, _ := bayesnet.Sprinkler()
	tr, err := net.Compile()
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(tr, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Propagate(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := res.MostProbableExplanation(); err == nil {
		t.Error("MostProbableExplanation accepted a sum-product result")
	}
}

func TestMPEImpossibleEvidence(t *testing.T) {
	net := bayesnet.New()
	net.MustAddNode("A", 2, nil, []float64{1, 0})
	tr, err := net.Compile()
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(tr, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.PropagateMax(potential.Evidence{0: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := res.MostProbableExplanation(); err == nil {
		t.Error("MPE under impossible evidence succeeded")
	}
}
