package taskgraph

import (
	"fmt"
	"math"
	"testing"

	"evprop/internal/bayesnet"
	"evprop/internal/potential"
)

// referencePosterior is the posterior State.Marginal replaced, kept as the
// reference: the table of the clique CliqueOf names marginalized onto v by
// Potential.Marginal, normalized, and lifted back to v's states.
func referencePosterior(st *State, v int) ([]float64, error) {
	ci := st.Graph().Tree.CliqueOf(v)
	if ci < 0 {
		return nil, fmt.Errorf("no clique contains variable %d", v)
	}
	m, err := st.Clique[ci].Marginal([]int{v})
	if err != nil {
		return nil, err
	}
	if err := m.Normalize(); err != nil {
		return nil, err
	}
	return st.Lift(m).Data, nil
}

// FuzzPosteriorVsMarginal: over fuzzer-chosen networks, evidence and target
// variable, in either semiring, the one-pass posterior is the reference's bit
// for bit — into a fresh slice and into a reused one still holding another
// posterior — and the two fail together.
func FuzzPosteriorVsMarginal(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(2), uint32(0b101), uint32(0b10), uint8(3), false)
	f.Add(int64(2), uint8(3), uint8(3), uint32(0), uint32(0), uint8(0), false)
	f.Add(int64(3), uint8(12), uint8(3), uint32(0b1111111111), uint32(0b1010101010), uint8(4), true)
	f.Add(int64(4), uint8(6), uint8(4), uint32(0b111111), uint32(0b100100), uint8(5), false)
	f.Fuzz(func(t *testing.T, seed int64, nv, card uint8, evMask, evStates uint32, target uint8, max bool) {
		n, states := 3+int(nv%12), 2+int(card%3) // 3..14 variables of 2..4 states
		tr, err := bayesnet.RandomNetwork(n, states, 3, seed).Compile()
		if err != nil {
			t.Fatal(err)
		}
		ev := potential.Evidence{}
		for v := 0; v < n; v++ {
			if evMask&(1<<uint(v)) != 0 {
				ev[v] = int(evStates>>uint(2*v%32)) % states
			}
		}
		mode := SumProduct
		if max {
			mode = MaxProduct
		}
		st, err := Build(tr).NewStateEvidence(mode, ev)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.RunSerial(); err != nil {
			t.Fatal(err)
		}
		v := int(target) % n
		want, werr := referencePosterior(st, v)
		reused := []float64{7, 7, 7, 7, 7, 7}
		for _, dst := range [][]float64{nil, reused} {
			got, gerr := st.Marginal(v, dst)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("variable %d: %v, reference: %v", v, gerr, werr)
			}
			if gerr != nil {
				continue
			}
			if len(got) != len(want) {
				t.Fatalf("variable %d: %d states, reference %d", v, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("variable %d state %d: %v, reference %v (evidence %v)", v, i, got[i], want[i], ev)
				}
			}
		}
	})
}
