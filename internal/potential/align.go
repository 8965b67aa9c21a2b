package potential

// aligner is the per-entry reference walk of a (superset ⊇ subset) domain
// pair: an odometer over every superset dimension that tracks the aligned
// linear index in the subset. The *Scalar primitives use it one entry at a
// time; the plan kernels (plan.go, kernels.go) must reproduce what it
// visits, bit for bit.
type aligner struct {
	card      []int // cardinalities of the superset domain
	subStride []int // stride of each superset variable in the subset (0 if absent)
	digits    []int // current per-variable state in the superset
	subIdx    int   // linear index in the subset for the current position
}

// newAligner builds an aligner from the superset domain (supVars, supCard)
// to the subset domain subVars, under the same domain rules as NewPlan.
func newAligner(supVars, supCard, subVars, subCard []int) (*aligner, error) {
	stride := make([]int, len(supVars))
	if err := subStrides(stride, supVars, supCard, subVars, subCard); err != nil {
		return nil, err
	}
	return &aligner{card: supCard, subStride: stride, digits: make([]int, len(supVars))}, nil
}

// seek positions the aligner at superset linear index idx.
func (a *aligner) seek(idx int) {
	sub := 0
	for i := len(a.card) - 1; i >= 0; i-- {
		d := idx % a.card[i]
		idx /= a.card[i]
		a.digits[i] = d
		sub += d * a.subStride[i]
	}
	a.subIdx = sub
}

// next advances the aligner by one superset index, odometer style, updating
// the tracked subset index in O(1) amortized time.
func (a *aligner) next() {
	for i := len(a.card) - 1; i >= 0; i-- {
		a.digits[i]++
		a.subIdx += a.subStride[i]
		if a.digits[i] < a.card[i] {
			return
		}
		a.digits[i] = 0
		a.subIdx -= a.card[i] * a.subStride[i]
	}
}
