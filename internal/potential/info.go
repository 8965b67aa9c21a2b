package potential

import (
	"fmt"
	"math"
)

// Mutual information over a normalized joint, used by the engine's
// value-of-information queries (it ranks which observation would most reduce
// uncertainty).

// MutualInformation returns I(X;Y) in bits from a normalized joint
// distribution over exactly two variables.
func (p *Potential) MutualInformation() (float64, error) {
	if len(p.Vars) != 2 {
		return 0, fmt.Errorf("mutual information: need a 2-variable joint, have %d variables", len(p.Vars))
	}
	if err := p.checkNormalized(); err != nil {
		return 0, fmt.Errorf("mutual information: %w", err)
	}
	px, err := p.Marginal(p.Vars[:1])
	if err != nil {
		return 0, err
	}
	py, err := p.Marginal(p.Vars[1:])
	if err != nil {
		return 0, err
	}
	mi := 0.0
	for a := 0; a < p.Card[0]; a++ {
		for b := 0; b < p.Card[1]; b++ {
			pxy := p.At(a, b)
			if pxy > 0 {
				mi += float64(pxy * math.Log2(pxy/(px.Data[a]*py.Data[b])))
			}
		}
	}
	// Clamp tiny negative values from floating-point noise.
	if mi < 0 && mi > -1e-12 {
		mi = 0
	}
	return mi, nil
}

func (p *Potential) checkNormalized() error {
	s := p.Sum()
	if math.Abs(s-1) > 1e-6 {
		return fmt.Errorf("table mass %v is not 1 (normalize first)", s)
	}
	for _, v := range p.Data {
		if v < 0 {
			return fmt.Errorf("negative entry %v", v)
		}
	}
	return nil
}
