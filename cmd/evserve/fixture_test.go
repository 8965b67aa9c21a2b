package main

import (
	"bytes"
	"math"
	"os"
	"reflect"
	"testing"

	"evprop"
)

// asiaFixture is the Asia network as BIF: the model `make smoke-replay`,
// `make smoke-trace` and the README boot with -models-dir, and what evreplay
// -bif compiles to check their audit logs in process.
const asiaFixture = "testdata/asia/asia.bif"

// TestAsiaFixture pins the fixture to evprop.Asia(): it is byte for byte what
// WriteBIF writes today, and an engine compiled from it answers every query
// below with the same bits as one compiled from evprop.Asia() — P(e), every
// posterior, the MPE assignment and its probability.
func TestAsiaFixture(t *testing.T) {
	file, err := os.ReadFile(asiaFixture)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := evprop.Asia().WriteBIF(&want, "asia", nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, want.Bytes()) {
		t.Fatalf("%s has drifted from evprop.Asia().WriteBIF; regenerate it", asiaFixture)
	}

	parsed, _, err := evprop.ParseBIF(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	compile := func(net *evprop.Network) *evprop.Engine {
		eng, err := net.Compile(evprop.Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(eng.Close)
		return eng
	}
	fromFile, builtin := compile(parsed), compile(evprop.Asia())
	for _, ev := range []evprop.Evidence{
		{},
		{"XRay": 1},
		{"XRay": 1, "Dysp": 1},
		{"Smoke": 0, "Asia": 1},
		{"Tub": 1, "Bronc": 0, "XRay": 0},
	} {
		a, b := answerBits(t, fromFile, ev), answerBits(t, builtin, ev)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("evidence %v: the fixture's engine answers %v, evprop.Asia()'s %v", ev, a, b)
		}
	}
}

// answerBits is everything an engine answers for ev, each float as its bits.
func answerBits(t *testing.T, eng *evprop.Engine, ev evprop.Evidence) map[string][]uint64 {
	t.Helper()
	res, err := eng.Propagate(ev)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	out := map[string][]uint64{"p_evidence": {math.Float64bits(res.ProbabilityOfEvidence())}}
	posteriors, err := res.Posteriors()
	if err != nil {
		t.Fatal(err)
	}
	for name, dist := range posteriors {
		for _, p := range dist {
			out[name] = append(out[name], math.Float64bits(p))
		}
	}
	assignment, p, err := eng.MostProbableExplanation(ev)
	if err != nil {
		t.Fatal(err)
	}
	out["mpe"] = []uint64{math.Float64bits(p)}
	for name, state := range assignment {
		out["mpe."+name] = []uint64{uint64(state)}
	}
	return out
}
