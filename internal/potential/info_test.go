package potential

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func dist(t *testing.T, vars, card []int, data []float64) *Potential {
	t.Helper()
	p := MustNew(vars, card)
	copy(p.Data, data)
	return p
}

func TestMutualInformation(t *testing.T) {
	// Independent: MI = 0.
	indep := dist(t, []int{0, 1}, []int{2, 2}, []float64{0.25, 0.25, 0.25, 0.25})
	mi, err := indep.MutualInformation()
	if err != nil || math.Abs(mi) > 1e-12 {
		t.Errorf("MI(independent) = %v, %v", mi, err)
	}
	// Perfectly correlated binary: MI = 1 bit.
	corr := dist(t, []int{0, 1}, []int{2, 2}, []float64{0.5, 0, 0, 0.5})
	mi, err = corr.MutualInformation()
	if err != nil || math.Abs(mi-1) > 1e-12 {
		t.Errorf("MI(correlated) = %v, %v", mi, err)
	}
	// Wrong arity.
	one := dist(t, []int{0}, []int{2}, []float64{0.5, 0.5})
	if _, err := one.MutualInformation(); err == nil {
		t.Error("accepted 1-variable table")
	}
}

func TestQuickInfoInequalities(t *testing.T) {
	// MI ≥ 0 and MI ≤ min(H(X), H(Y)).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomPotential(rng, []int{0, 1}, []int{2 + rng.Intn(2), 2 + rng.Intn(2)})
		if err := p.Normalize(); err != nil {
			return false
		}
		mi, err := p.MutualInformation()
		if err != nil || mi < 0 {
			return false
		}
		hx, err1 := marginalEntropy(p, p.Vars[:1])
		hy, err2 := marginalEntropy(p, p.Vars[1:])
		if err1 != nil || err2 != nil {
			return false
		}
		return mi <= hx+1e-9 && mi <= hy+1e-9
	}
	if err := quick.Check(f, quickCfg(41)); err != nil {
		t.Error(err)
	}
}

// marginalEntropy is the Shannon entropy in bits of p's marginal onto onto.
func marginalEntropy(p *Potential, onto []int) (float64, error) {
	m, err := p.Marginal(onto)
	if err != nil {
		return 0, err
	}
	h := 0.0
	for _, v := range m.Data {
		if v > 0 {
			h -= v * math.Log2(v)
		}
	}
	return h, nil
}
