package potential

import "fmt"

// Max-product primitives. Evidence propagation over the (max, ×) semiring
// computes max-marginals instead of sum-marginals; running the same task
// graph with maximization in place of summation turns the engine into a
// most-probable-explanation (MPE) solver. Division, extension and
// multiplication are unchanged — only the marginalization primitive and the
// partitioned-combine step differ.

// MaxMarginal maximizes p down onto the given subset of its variables,
// returning a fresh potential of max-marginals. onto must be sorted.
func (p *Potential) MaxMarginal(onto []int) (*Potential, error) {
	vars, card := IntersectDomain(p.Vars, p.Card, onto)
	if len(vars) != len(onto) {
		return nil, fmt.Errorf("max-marginal: target %v not a subset of domain %v", onto, p.Vars)
	}
	dst, err := New(vars, card)
	if err != nil {
		return nil, err
	}
	if err := p.MaxMarginalInto(dst, 0, len(p.Data)); err != nil {
		return nil, err
	}
	return dst, nil
}

// MaxMarginalInto maximizes entries lo..hi-1 of p into dst (dst[cell] =
// max(dst[cell], value)). Like MarginalInto it does not clear dst, so
// partitioned subtasks can maximize into private zero buffers that a
// combiner folds together with MaxWith. Entries are assumed non-negative
// (potentials), so a zero initial buffer is an identity.
func (p *Potential) MaxMarginalInto(dst *Potential, lo, hi int) error {
	pl, err := NewRunPlan(p.Vars, p.Card, dst.Vars, dst.Card)
	if err != nil {
		return fmt.Errorf("max-marginal: %w", err)
	}
	return pl.MaxMarginalInto(p, dst, lo, hi)
}

// MaxMarginalIntoScalar is the per-entry reference implementation of
// MaxMarginalInto.
func (p *Potential) MaxMarginalIntoScalar(dst *Potential, lo, hi int) error {
	a, err := newAligner(p.Vars, p.Card, dst.Vars, dst.Card)
	if err != nil {
		return fmt.Errorf("max-marginal: %w", err)
	}
	if err := checkRange(lo, hi, len(p.Data)); err != nil {
		return fmt.Errorf("max-marginal: %w", err)
	}
	a.seek(lo)
	for i := lo; i < hi; i++ {
		if v := p.Data[i]; v > dst.Data[a.subIdx] {
			dst.Data[a.subIdx] = v
		}
		a.next()
	}
	return nil
}

// MaxWith folds q into p elementwise by maximum; the domains must match.
// It is the combiner of partitioned max-marginalizations.
func (p *Potential) MaxWith(q *Potential) error {
	if !sameDomain(p, q) {
		return fmt.Errorf("max-with: domain mismatch %v vs %v", p.Vars, q.Vars)
	}
	for i, v := range q.Data {
		if v > p.Data[i] {
			p.Data[i] = v
		}
	}
	return nil
}

// ArgMax returns the linear index and value of the largest entry (the first
// one under ties).
func (p *Potential) ArgMax() (int, float64) {
	best, bestV := 0, p.Data[0]
	for i, v := range p.Data {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best, bestV
}

// ArgMaxConsistent returns the linear index and value of the largest entry
// whose states agree with the partial assignment (variable id → state).
// Variables absent from the assignment are unconstrained, and assignment
// entries for variables outside p's domain are ignored. Under ties the
// entry with the smallest linear index wins.
//
// The map is consulted once per *variable*, not once per variable per table
// entry: the fixed variables contribute a constant base offset, and only the
// free subspace is walked — an odometer over the free dimensions' strides
// that visits exactly the consistent entries in increasing linear order,
// skipping inconsistent blocks by stride.
func (p *Potential) ArgMaxConsistent(fixed map[int]int) (int, float64, error) {
	base, total := 0, 1
	var freeCard, freeStride []int // free dims, fastest (smallest stride) first
	stride := 1
	for pos := len(p.Vars) - 1; pos >= 0; pos-- {
		v := p.Vars[pos]
		if s, ok := fixed[v]; ok {
			if s < 0 || s >= p.Card[pos] {
				return 0, 0, fmt.Errorf("arg-max: variable %d fixed to state %d of %d", v, s, p.Card[pos])
			}
			base += s * stride
		} else {
			freeCard = append(freeCard, p.Card[pos])
			freeStride = append(freeStride, stride)
			total *= p.Card[pos]
		}
		stride *= p.Card[pos]
	}
	best, bestV := base, p.Data[base]
	digits := make([]int, len(freeCard))
	idx := base
	for n := 1; n < total; n++ {
		for i := 0; ; i++ {
			digits[i]++
			idx += freeStride[i]
			if digits[i] < freeCard[i] {
				break
			}
			digits[i] = 0
			idx -= freeCard[i] * freeStride[i]
		}
		if v := p.Data[idx]; v > bestV {
			best, bestV = idx, v
		}
	}
	return best, bestV, nil
}
