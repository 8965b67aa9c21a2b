package evprop

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzLazyVsEager drives the lazy and eager engines over fuzzer-chosen
// random networks and evidence maps and requires them to agree — on every
// posterior, on P(e) and on the MPE probability — to float tolerance. The
// fuzz inputs deterministically seed the network generator and the
// evidence selection, so every crash reproduces. This is the third
// differential fuzz target next to the cache-signature and blocked-kernel
// ones (make fuzz-smoke).
func FuzzLazyVsEager(f *testing.F) {
	f.Add(int64(1), uint32(0b0000101), uint32(0b10), uint8(8), false)
	f.Add(int64(2), uint32(0), uint32(0), uint8(3), false)
	f.Add(int64(3), uint32(0b1111111111), uint32(0b1010101010), uint8(12), true)
	f.Add(int64(4), uint32(1), uint32(1), uint8(0), true)
	f.Add(int64(5), uint32(0b1001000), uint32(0b0001000), uint8(6), false)
	f.Fuzz(func(t *testing.T, seed int64, evMask, evStates uint32, nv uint8, useSoft bool) {
		n := 5 + int(nv%8) // 5..12 variables
		net := RandomNetwork(n, 2, 3, seed)
		vars := net.Variables()
		ev := Evidence{}
		for i, v := range vars {
			if evMask&(1<<(uint(i)%32)) != 0 {
				ev[v] = int(evStates>>(uint(i)%32)) & 1
			}
		}
		if len(ev) == len(vars) {
			delete(ev, vars[0]) // keep at least one queryable variable
		}
		var soft SoftEvidence
		if useSoft {
			rng := rand.New(rand.NewSource(seed))
			for _, v := range vars {
				if _, fixed := ev[v]; !fixed {
					soft = SoftEvidence{v: {0.2 + rng.Float64(), 0.2 + rng.Float64()}}
					break
				}
			}
		}

		eager, err := net.Compile(Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer eager.Close()
		// The eager engine takes the production path of a network this size
		// (inline, the serial reference's arithmetic); the lazy one reaches
		// the parallel scheduler through the dispatch seam, so its pruned
		// graphs are fuzzed under concurrent execution and δ-partitioning.
		lazyEng, lazyExecutor := compileColumn(t, net, Options{Workers: 2, Lazy: true})
		defer lazyEng.Close()

		propagate := func(e *Engine) *QueryResult {
			t.Helper()
			var res *QueryResult
			if soft != nil {
				res, err = e.PropagateSoft(ev, soft)
			} else {
				res, err = e.Propagate(ev)
			}
			if err != nil {
				t.Fatalf("propagate (lazy=%v): %v", e == lazyEng, err)
			}
			return res
		}
		er := propagate(eager)
		defer er.Close()
		lr := propagate(lazyEng)
		defer lr.Close()
		if e, l := er.Records()[0].Executor, lr.Records()[0].Executor; e != "inline" || l != lazyExecutor {
			t.Fatalf("eager ran on %q, lazy on %q", e, l)
		}

		const tol = 1e-9
		pe, pl := er.ProbabilityOfEvidence(), lr.ProbabilityOfEvidence()
		if d := math.Abs(pe - pl); d > tol*math.Max(1, math.Abs(pe)) {
			t.Fatalf("P(e): eager %v lazy %v (diff %g)", pe, pl, d)
		}
		ep, err := er.Posteriors()
		if err != nil {
			t.Fatal(err)
		}
		lp, err := lr.Posteriors()
		if err != nil {
			t.Fatal(err)
		}
		for v, p := range ep {
			for s := range p {
				if d := math.Abs(lp[v][s] - p[s]); d > tol {
					t.Fatalf("posterior %q[%d]: eager %v lazy %v", v, s, p[s], lp[v][s])
				}
			}
		}
		// MPE assignments may legitimately differ on ties; the maximum
		// probability itself must agree.
		_, emp, err := er.MPE()
		if err != nil {
			t.Fatal(err)
		}
		_, lmp, err := lr.MPE()
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(emp - lmp); d > tol*math.Max(1, emp) {
			t.Fatalf("MPE probability: eager %v lazy %v", emp, lmp)
		}
	})
}
