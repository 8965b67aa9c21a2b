package potential

import "fmt"

// Evidence maps instantiated variable ids to their observed states. It is
// the set E = {A_e1 = a_e1, ...} of the paper's Section 2.
type Evidence map[int]int

// Dense validates the evidence against the per-variable cardinalities card
// (indexed by variable id; 0 for an id no table mentions) and returns it as an
// Observed vector over the ids [0, len(card)), built in buf when that is large
// enough. Observations of variables no table mentions are dropped, the way
// Reduce ignores variables outside a table's domain; an observed state outside
// its variable's cardinality is an error, reported before buf is written.
func (ev Evidence) Dense(card []int, buf Observed) (Observed, error) {
	if cap(buf) < len(card) {
		buf = make(Observed, len(card))
	}
	for v, s := range ev {
		if v >= 0 && v < len(card) && card[v] != 0 && (s < 0 || s >= card[v]) {
			return nil, fmt.Errorf("evidence: variable %d observed in state %d but has %d states", v, s, card[v])
		}
	}
	o := buf[:len(card)]
	for i := range o {
		o[i] = Free
	}
	for v, s := range ev {
		if v >= 0 && v < len(card) && card[v] != 0 {
			o[v] = int32(s)
		}
	}
	return o, nil
}

// Reduce absorbs evidence into p: every entry inconsistent with an observed
// state of a variable in p's domain is zeroed. Variables not in p's domain
// are ignored, so the same Evidence can be applied to every clique. It
// reports an error if an observed state is out of range, in which case the
// table is left untouched: all observed states are validated before any
// entry is zeroed, so a bad observation can never leave the table partially
// reduced.
func (p *Potential) Reduce(ev Evidence) error {
	for pos, v := range p.Vars {
		if state, ok := ev[v]; ok && (state < 0 || state >= p.Card[pos]) {
			return fmt.Errorf("evidence: variable %d observed in state %d but has %d states", v, state, p.Card[pos])
		}
	}
	for pos, v := range p.Vars {
		if state, ok := ev[v]; ok {
			p.zeroExcept(pos, state)
		}
	}
	return nil
}

// zeroExcept zeroes every entry whose state of the variable at position pos
// differs from keep. The layout is blocks of stride entries repeating every
// stride*card entries, one block per state.
func (p *Potential) zeroExcept(pos, keep int) {
	stride := 1
	for i := len(p.Vars) - 1; i > pos; i-- {
		stride *= p.Card[i]
	}
	c := p.Card[pos]
	period := stride * c
	for base := 0; base < len(p.Data); base += period {
		for s := 0; s < c; s++ {
			if s == keep {
				continue
			}
			off := base + s*stride
			for i := off; i < off+stride; i++ {
				p.Data[i] = 0
			}
		}
	}
}

// Likelihood is soft (virtual) evidence: per-variable weight vectors that
// scale the probability of each state rather than fixing it. A weight
// vector of zeros and a single one is equivalent to hard evidence.
type Likelihood map[int][]float64

// ApplyLikelihood multiplies the weight vector of every variable in p's
// domain into the table. Variables absent from p are ignored, so the same
// Likelihood may be offered to every clique — but each variable must be
// applied exactly once overall, which the engine guarantees by applying it
// only in the first clique containing the variable.
func (p *Potential) ApplyLikelihood(like Likelihood, only int) error {
	if _, ok := like[only]; !ok {
		return nil
	}
	pos := -1
	for i, v := range p.Vars {
		if v == only {
			pos = i
			break
		}
	}
	if pos < 0 {
		return fmt.Errorf("likelihood: variable %d not in domain %v", only, p.Vars)
	}
	w, err := like.weights(only, p.Card[pos])
	if err != nil {
		return err
	}
	vec := &Potential{Vars: []int{only}, Card: []int{p.Card[pos]}, Data: w}
	return p.MulBy(vec)
}

// ObservedWeight returns the weight the likelihood gives state s of variable
// v, which has card states: all that is left of v's weight vector in a table
// sliced on v = s, which it scales as a whole. The vector is validated as
// ApplyLikelihood validates it.
func (like Likelihood) ObservedWeight(v, card, s int) (float64, error) {
	w, err := like.weights(v, card)
	if err != nil {
		return 0, err
	}
	return w[s], nil
}

// weights returns the weight vector of variable v, checked against v's
// cardinality.
func (like Likelihood) weights(v, card int) ([]float64, error) {
	w := like[v]
	if len(w) != card {
		return nil, fmt.Errorf("likelihood: variable %d has %d states but %d weights", v, card, len(w))
	}
	for _, x := range w {
		if x < 0 {
			return nil, fmt.Errorf("likelihood: variable %d has negative weight %v", v, x)
		}
	}
	return w, nil
}
