package potential

import (
	"fmt"
	"sort"
)

// This file implements the four node-level primitives of evidence
// propagation, each in a whole-table and a [lo,hi)-range form. The range
// forms are what the collaborative scheduler's Partition module executes as
// subtasks:
//
//   - Multiply/Divide/Extend range subtasks write disjoint slices of the
//     output, so combining them requires no extra work (concatenation);
//   - Marginalize range subtasks read disjoint slices of the *input* and
//     accumulate into private zero buffers that the combiner subtask Adds.
//
// The public range forms compile a run-only Plan for the two domains and run
// its kernel (plan.go, kernels.go) — the convenience form for one-off calls,
// which would pay for a tile's table walk without a second call to amortize
// it; the propagation engines hold the tiled plan of every (clique,
// separator) pair and call its kernels directly. Each also has a *Scalar
// variant — the original per-entry odometer walk — retained as the reference
// implementation: the plan kernels must match it bit for bit
// (kernels_fuzz_test.go, runsplit_test.go) and beat it on ns/entry
// (bench_kernels_test.go, whose output is BENCH_kernels.txt).

// MulBy multiplies p in place by q, whose domain must be a subset of p's.
func (p *Potential) MulBy(q *Potential) error { return p.MulRange(q, 0, len(p.Data)) }

// MulRange multiplies entries lo..hi-1 of p in place by the aligned entries
// of q, whose domain must be a subset of p's.
func (p *Potential) MulRange(q *Potential, lo, hi int) error {
	pl, err := NewRunPlan(p.Vars, p.Card, q.Vars, q.Card)
	if err != nil {
		return fmt.Errorf("multiply: %w", err)
	}
	return pl.MulRange(p, q, lo, hi)
}

// MulRangeScalar is the per-entry reference implementation of MulRange.
func (p *Potential) MulRangeScalar(q *Potential, lo, hi int) error {
	a, err := newAligner(p.Vars, p.Card, q.Vars, q.Card)
	if err != nil {
		return fmt.Errorf("multiply: %w", err)
	}
	if err := checkRange(lo, hi, len(p.Data)); err != nil {
		return fmt.Errorf("multiply: %w", err)
	}
	a.seek(lo)
	for i := lo; i < hi; i++ {
		p.Data[i] *= q.Data[a.subIdx]
		a.next()
	}
	return nil
}

// DivBy divides p in place by q, whose domain must be a subset of p's,
// using the junction-tree convention 0/0 = 0.
func (p *Potential) DivBy(q *Potential) error { return p.DivRange(q, 0, len(p.Data)) }

// DivRange divides entries lo..hi-1 of p in place by the aligned entries of
// q (0/0 = 0), whose domain must be a subset of p's.
func (p *Potential) DivRange(q *Potential, lo, hi int) error {
	pl, err := NewRunPlan(p.Vars, p.Card, q.Vars, q.Card)
	if err != nil {
		return fmt.Errorf("divide: %w", err)
	}
	return pl.DivRange(p, q, lo, hi)
}

// DivRangeScalar is the per-entry reference implementation of DivRange.
func (p *Potential) DivRangeScalar(q *Potential, lo, hi int) error {
	a, err := newAligner(p.Vars, p.Card, q.Vars, q.Card)
	if err != nil {
		return fmt.Errorf("divide: %w", err)
	}
	if err := checkRange(lo, hi, len(p.Data)); err != nil {
		return fmt.Errorf("divide: %w", err)
	}
	a.seek(lo)
	for i := lo; i < hi; i++ {
		d := q.Data[a.subIdx]
		if d == 0 {
			p.Data[i] = 0
		} else {
			p.Data[i] /= d
		}
		a.next()
	}
	return nil
}

// Marginal sums p down onto the given subset of its variables, returning a
// fresh potential. onto must be sorted ascending.
func (p *Potential) Marginal(onto []int) (*Potential, error) {
	vars, card := IntersectDomain(p.Vars, p.Card, onto)
	if len(vars) != len(onto) {
		return nil, fmt.Errorf("marginal: target %v not a subset of domain %v", onto, p.Vars)
	}
	dst, err := New(vars, card)
	if err != nil {
		return nil, err
	}
	if err := p.MarginalInto(dst, 0, len(p.Data)); err != nil {
		return nil, err
	}
	return dst, nil
}

// MarginalInto accumulates entries lo..hi-1 of p into dst, whose domain must
// be a subset of p's. dst is not cleared: partitioned subtasks accumulate
// into private zero buffers which a combiner later Adds together.
func (p *Potential) MarginalInto(dst *Potential, lo, hi int) error {
	pl, err := NewRunPlan(p.Vars, p.Card, dst.Vars, dst.Card)
	if err != nil {
		return fmt.Errorf("marginal: %w", err)
	}
	return pl.MarginalInto(p, dst, lo, hi)
}

// MarginalIntoScalar is the per-entry reference implementation of
// MarginalInto.
func (p *Potential) MarginalIntoScalar(dst *Potential, lo, hi int) error {
	a, err := newAligner(p.Vars, p.Card, dst.Vars, dst.Card)
	if err != nil {
		return fmt.Errorf("marginal: %w", err)
	}
	if err := checkRange(lo, hi, len(p.Data)); err != nil {
		return fmt.Errorf("marginal: %w", err)
	}
	a.seek(lo)
	for i := lo; i < hi; i++ {
		dst.Data[a.subIdx] += p.Data[i]
		a.next()
	}
	return nil
}

// MarginalizeOut sums the given variables out of p, returning a fresh
// potential over the remaining variables. out may arrive unsorted and with
// duplicates — it is canonicalized first, and a sorted merge against the
// domain computes the kept variables in O(|Vars| + |out| log |out|).
// Variables in out but not in p's domain are ignored, as before.
func (p *Potential) MarginalizeOut(out []int) (*Potential, error) {
	o := append([]int(nil), out...)
	sort.Ints(o)
	u := o[:0]
	for _, v := range o {
		if len(u) == 0 || v != u[len(u)-1] {
			u = append(u, v)
		}
	}
	keep := make([]int, 0, len(p.Vars))
	j := 0
	for _, v := range p.Vars {
		for j < len(u) && u[j] < v {
			j++
		}
		if j < len(u) && u[j] == v {
			continue
		}
		keep = append(keep, v)
	}
	return p.Marginal(keep)
}

// Extend broadcasts p onto the superset domain (vars, card), returning a
// fresh potential whose every entry equals the aligned entry of p.
func (p *Potential) Extend(vars, card []int) (*Potential, error) {
	dst, err := New(vars, card)
	if err != nil {
		return nil, err
	}
	if err := p.ExtendInto(dst, 0, len(dst.Data)); err != nil {
		return nil, err
	}
	return dst, nil
}

// ExtendInto fills entries lo..hi-1 of dst with the aligned entries of p,
// whose domain must be a subset of dst's.
func (p *Potential) ExtendInto(dst *Potential, lo, hi int) error {
	pl, err := NewRunPlan(dst.Vars, dst.Card, p.Vars, p.Card)
	if err != nil {
		return fmt.Errorf("extend: %w", err)
	}
	return pl.ExtendInto(p, dst, lo, hi)
}

// ExtendIntoScalar is the per-entry reference implementation of ExtendInto.
func (p *Potential) ExtendIntoScalar(dst *Potential, lo, hi int) error {
	a, err := newAligner(dst.Vars, dst.Card, p.Vars, p.Card)
	if err != nil {
		return fmt.Errorf("extend: %w", err)
	}
	if err := checkRange(lo, hi, len(dst.Data)); err != nil {
		return fmt.Errorf("extend: %w", err)
	}
	a.seek(lo)
	for i := lo; i < hi; i++ {
		dst.Data[i] = p.Data[a.subIdx]
		a.next()
	}
	return nil
}

// Product multiplies two potentials over possibly different domains,
// returning a fresh potential over the union domain. It is the general
// combination used when compiling clique potentials from CPTs.
func Product(p, q *Potential) (*Potential, error) {
	vars, card, err := UnionDomain(p.Vars, p.Card, q.Vars, q.Card)
	if err != nil {
		return nil, fmt.Errorf("product: %w", err)
	}
	out, err := p.Extend(vars, card)
	if err != nil {
		return nil, err
	}
	if err := out.MulBy(q); err != nil {
		return nil, err
	}
	return out, nil
}

func checkRange(lo, hi, n int) error {
	if lo < 0 || hi < lo || hi > n {
		return fmt.Errorf("range [%d,%d) invalid for table of %d entries", lo, hi, n)
	}
	return nil
}
