package core

import (
	"context"
	"testing"

	"evprop/internal/bayesnet"
	"evprop/internal/potential"
	"evprop/internal/taskgraph"
)

// oracleJoint computes the normalized joint posterior by enumeration.
func oracleJoint(t *testing.T, net *bayesnet.Network, vars []int, ev potential.Evidence) *potential.Potential {
	t.Helper()
	joint, err := net.Joint()
	if err != nil {
		t.Fatal(err)
	}
	if err := joint.Reduce(ev); err != nil {
		t.Fatal(err)
	}
	m, err := joint.Marginal(vars)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Normalize(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestJointMarginalAnyAcrossCliques(t *testing.T) {
	net, ids := bayesnet.Asia()
	tr, err := net.Compile()
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(tr, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		vars []int
		ev   potential.Evidence
	}{
		{"far pair", []int{ids["Asia"], ids["XRay"]}, nil},
		{"far pair with evidence", []int{ids["Asia"], ids["XRay"]}, potential.Evidence{ids["Smoke"]: 1}},
		{"triple", []int{ids["Tub"], ids["Bronc"], ids["XRay"]}, nil},
		{"quad", []int{ids["Asia"], ids["Smoke"], ids["XRay"], ids["Dysp"]}, nil},
		{"same clique", []int{ids["Tub"], ids["Lung"]}, nil},
		{"single", []int{ids["Dysp"]}, potential.Evidence{ids["XRay"]: 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := propagate(e, context.Background(), c.ev, nil, taskgraph.SumProduct)
			if err != nil {
				t.Fatal(err)
			}
			got, err := res.JointMarginalAny(c.vars)
			if err != nil {
				t.Fatal(err)
			}
			want := oracleJoint(t, net, got.Vars, c.ev)
			if !got.Equal(want, 1e-9) {
				t.Errorf("joint = %v, oracle %v", got.Data, want.Data)
			}
		})
	}
}

func TestJointMarginalAnyRandomNetworks(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		net := bayesnet.RandomNetwork(10, 2, 2, seed)
		tr, err := net.Compile()
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(tr, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		res, err := propagate(e, context.Background(), potential.Evidence{0: 0}, nil, taskgraph.SumProduct)
		if err != nil {
			t.Fatal(err)
		}
		vars := []int{1, net.N() / 2, net.N() - 1}
		got, err := res.JointMarginalAny(vars)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := oracleJoint(t, net, got.Vars, potential.Evidence{0: 0})
		if !got.Equal(want, 1e-9) {
			t.Errorf("seed %d: joint differs from oracle", seed)
		}
	}
}

func TestJointMarginalAnyErrors(t *testing.T) {
	net, _ := bayesnet.Sprinkler()
	tr, err := net.Compile()
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(tr, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := propagate(e, context.Background(), nil, nil, taskgraph.SumProduct)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.JointMarginalAny(nil); err == nil {
		t.Error("accepted empty query")
	}
	if _, err := res.JointMarginalAny([]int{0, 0}); err == nil {
		t.Error("accepted duplicate variables")
	}
	if _, err := res.JointMarginalAny([]int{99}); err == nil {
		t.Error("accepted unknown variable")
	}
}
