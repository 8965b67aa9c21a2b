package core

import (
	"testing"

	"evprop/internal/bayesnet"
	"evprop/internal/potential"
)

// TestGrandIntegration is the cross-product soak test: random networks ×
// schedulers × worker counts × rerooting × partitioning × evidence sets,
// all validated against the brute-force joint-enumeration oracle. It is
// the single test that exercises every execution path of the reproduction
// at once.
func TestGrandIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	schedulers := []Scheduler{Collaborative, Serial}
	for seed := int64(1); seed <= 3; seed++ {
		net := bayesnet.RandomNetwork(10, 2, 3, seed)
		tr, err := net.Compile()
		if err != nil {
			t.Fatal(err)
		}
		evCases := []potential.Evidence{
			nil,
			{0: 1},
			{0: 0, net.N() - 1: 1},
		}
		for _, s := range schedulers {
			for _, workers := range []int{1, 4} {
				for _, thr := range []int{0, 4} {
					e, err := NewEngine(tr, schedulerOptions(s, Options{
						Workers:            workers,
						Reroot:             seed%2 == 0,
						PartitionThreshold: thr,
					}))
					if err != nil {
						t.Fatal(err)
					}
					for ci, ev := range evCases {
						res, err := e.Propagate(ev)
						if err != nil {
							t.Fatalf("seed %d %v P=%d δ=%d case %d: %v", seed, s, workers, thr, ci, err)
						}
						if res.ProbabilityOfEvidence() <= 0 {
							// Random CPTs are strictly positive, so every
							// evidence combination is possible.
							t.Fatalf("seed %d case %d: zero evidence probability", seed, ci)
						}
						// Spot-check two marginals against the oracle.
						for _, v := range []int{1, net.N() / 2} {
							if _, fixed := ev[v]; fixed {
								continue
							}
							got, err := res.Marginal(v)
							if err != nil {
								t.Fatal(err)
							}
							want, err := net.ExactMarginal(v, ev)
							if err != nil {
								t.Fatal(err)
							}
							if !posteriorIs(got, want) {
								t.Fatalf("seed %d %v P=%d δ=%d case %d: P(%d|e) = %v, oracle %v",
									seed, s, workers, thr, ci, v, got, want.Data)
							}
						}
					}
					// One max-product run per configuration.
					maxRes, err := e.PropagateMax(evCases[1])
					if err != nil {
						t.Fatal(err)
					}
					if _, p, err := maxRes.MostProbableExplanation(); err != nil || p <= 0 {
						t.Fatalf("seed %d %v: MPE failed: %v %v", seed, s, p, err)
					}
					assertRanOn(t, e)
				}
			}
		}
	}
}
