package main

import (
	"fmt"
	"math"

	"evprop"
	evclient "evprop/client"
)

// tolerance by which an answer may differ from the reference: absolute for
// a posterior entry, relative for P(e) and the MPE probability.
const tolerance = 1e-9

// answer is a decoded response to one request.
type answer struct {
	query *evclient.QueryResponse
	mpe   *evclient.MPEResponse
}

// oracle is the correctness reference: a serial, eager, cache-off engine
// compiled in-process from the same BIF bytes the server loads.
type oracle struct {
	s   schema
	eng *evprop.Engine
	// corrupt, set by tests only, shifts one reference posterior so that the
	// whole failure path (count, report, exit code) can be exercised.
	corrupt bool
}

func newOracle(net *evprop.Network) (*oracle, error) {
	eng, err := net.Compile(evprop.Options{
		Workers:               1,
		Scheduler:             evprop.SchedulerSerial,
		DisableFlightRecorder: true,
	})
	if err != nil {
		return nil, fmt.Errorf("compile reference engine: %w", err)
	}
	return &oracle{s: schemaOf(net), eng: eng}, nil
}

// shapeOK is the cheap check every response gets off the clock: the right
// keys, well-formed distributions, evidence respected.
func (o *oracle) shapeOK(r request, a answer) bool {
	if r.mpe {
		m := a.mpe
		if m == nil || len(m.Assignment) != len(o.s.vars) || !(m.Probability > 0 && m.Probability <= 1+tolerance) {
			return false
		}
		for v, st := range r.evidence {
			if m.Assignment[v] != st {
				return false
			}
		}
		return true
	}
	q := a.query
	want := len(r.targets)
	if want == 0 {
		want = len(o.s.vars) - len(r.evidence)
	}
	if q == nil || len(q.Posteriors) != want || !(q.PEvidence > 0 && q.PEvidence <= 1+tolerance) {
		return false
	}
	for v, dist := range q.Posteriors {
		if len(dist) != o.s.states[v] {
			return false
		}
		sum := 0.0
		for _, p := range dist {
			sum += p
		}
		if math.Abs(sum-1) > 1e-6 {
			return false
		}
	}
	return true
}

// check compares one answer with the reference engine's and describes the
// first difference, or returns "" when they agree.
func (o *oracle) check(r request, a answer) string {
	res, err := o.eng.Propagate(evprop.Evidence(r.evidence))
	if err != nil {
		return fmt.Sprintf("reference failed: %v", err)
	}
	defer res.Close()
	if r.mpe {
		_, p, err := res.MPE()
		if err != nil {
			return fmt.Sprintf("reference MPE failed: %v", err)
		}
		if relDiff(a.mpe.Probability, p) > tolerance {
			return fmt.Sprintf("MPE probability %v, reference %v", a.mpe.Probability, p)
		}
		return ""
	}
	if pe := res.ProbabilityOfEvidence(); relDiff(a.query.PEvidence, pe) > tolerance {
		return fmt.Sprintf("p_evidence %v, reference %v", a.query.PEvidence, pe)
	}
	ref, err := res.Posteriors(r.targets...)
	if err != nil {
		return fmt.Sprintf("reference posteriors failed: %v", err)
	}
	if o.corrupt {
		for _, dist := range ref {
			dist[0] += 1e-3
			break
		}
	}
	for v, want := range ref {
		got, ok := a.query.Posteriors[v]
		if !ok || len(got) != len(want) {
			return fmt.Sprintf("posterior of %s missing or misshapen", v)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > tolerance {
				return fmt.Sprintf("P(%s=%d) = %v, reference %v", v, i, got[i], want[i])
			}
		}
	}
	return ""
}

func relDiff(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// verifier keeps a sample of a sender's answers for comparison with the
// reference once the clock has stopped: its first `first` answers and every
// checkEvery-th one.
type verifier struct {
	o     *oracle
	first int
	kept  []keptAnswer
}

type keptAnswer struct {
	r request
	a answer
}

// A run checks its first checkFirst answers and one in checkEvery after.
const (
	checkFirst = 20
	checkEvery = 50
)

func (v *verifier) keep(n int, r request, a answer) {
	if n < v.first || n%checkEvery == 0 {
		v.kept = append(v.kept, keptAnswer{r, a})
	}
}

// wrongAnswer is one answer that differs from the reference.
type wrongAnswer struct {
	Request string `json:"request"`
	Diff    string `json:"diff"`
}

// verify compares every kept answer and returns the differing ones.
func (v *verifier) verify() (checked int, wrong []wrongAnswer) {
	for _, k := range v.kept {
		if diff := v.o.check(k.r, k.a); diff != "" {
			wrong = append(wrong, wrongAnswer{Request: k.r.String(), Diff: diff})
		}
	}
	return len(v.kept), wrong
}
