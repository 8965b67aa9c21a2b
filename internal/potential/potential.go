// Package potential implements discrete potential tables and the four
// node-level primitives of evidence propagation: marginalization, division,
// extension and multiplication (Xia & Prasanna, "Node level primitives for
// parallel exact inference", SBAC-PAD 2007; used as tasks in the PACT 2009
// paper reproduced by this repository).
//
// A potential is a non-negative real-valued table over a set of discrete
// variables. Each variable is identified by a non-negative integer id and
// has a fixed cardinality (number of states). Entries are stored row-major
// with the *last* variable varying fastest, and the variable list is kept
// sorted ascending so that two potentials over the same variables always
// share one canonical layout.
//
// Every primitive has a range form operating on an index interval [lo, hi)
// so that a large task can be partitioned into independent subtasks, as
// required by the collaborative scheduler's Partition module.
package potential

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Potential is a table over a sorted set of discrete variables.
//
// Invariants: len(Vars) == len(Card); Vars is strictly ascending;
// every Card[i] >= 1; len(Data) == product of Card. A potential over zero
// variables is a scalar and holds exactly one entry.
type Potential struct {
	Vars []int     // variable ids, strictly ascending
	Card []int     // cardinality of each variable, parallel to Vars
	Data []float64 // row-major entries, last variable fastest
}

// maxEntries bounds a table's entries: 2⁴⁰, or fewer where an int cannot
// count that many (32-bit platforms).
const maxEntries = min(1<<40, math.MaxInt)

// New returns a zero-initialized potential over vars with the given
// cardinalities. It reports an error if the domain is malformed.
func New(vars, card []int) (*Potential, error) {
	if len(vars) != len(card) {
		return nil, fmt.Errorf("potential: %d vars but %d cardinalities", len(vars), len(card))
	}
	n := 1
	for i, v := range vars {
		if i > 0 && vars[i-1] >= v {
			return nil, fmt.Errorf("potential: vars not strictly ascending at position %d", i)
		}
		if v < 0 {
			return nil, fmt.Errorf("potential: negative variable id %d", v)
		}
		if card[i] < 1 {
			return nil, fmt.Errorf("potential: variable %d has cardinality %d", v, card[i])
		}
		if n > maxEntries/card[i] {
			return nil, fmt.Errorf("potential: table over %d variables exceeds size limit", len(vars))
		}
		n *= card[i]
	}
	return &Potential{
		Vars: append([]int(nil), vars...),
		Card: append([]int(nil), card...),
		Data: make([]float64, n),
	}, nil
}

// MustNew is New, panicking on a malformed domain. Intended for literals in
// tests and examples where the domain is known to be valid.
func MustNew(vars, card []int) *Potential {
	p, err := New(vars, card)
	if err != nil {
		panic(err)
	}
	return p
}

// NewConstant returns a potential over vars with every entry set to v.
func NewConstant(vars, card []int, v float64) (*Potential, error) {
	p, err := New(vars, card)
	if err != nil {
		return nil, err
	}
	for i := range p.Data {
		p.Data[i] = v
	}
	return p, nil
}

// Scalar returns a variable-free potential holding the single value v.
func Scalar(v float64) *Potential {
	return &Potential{Data: []float64{v}}
}

// Size returns the total size in entries of a table over the given
// cardinalities; it is what len(Data) would be without allocating.
func Size(card []int) int {
	n := 1
	for _, c := range card {
		n *= c
	}
	return n
}

// Len returns the number of entries in the table.
func (p *Potential) Len() int { return len(p.Data) }

// Clone returns a deep copy of p.
func (p *Potential) Clone() *Potential {
	return &Potential{
		Vars: append([]int(nil), p.Vars...),
		Card: append([]int(nil), p.Card...),
		Data: append([]float64(nil), p.Data...),
	}
}

// CloneZero returns a potential with the same domain as p and all entries 0.
func (p *Potential) CloneZero() *Potential {
	return &Potential{
		Vars: append([]int(nil), p.Vars...),
		Card: append([]int(nil), p.Card...),
		Data: make([]float64, len(p.Data)),
	}
}

// HasVar reports whether variable v is in p's domain.
func (p *Potential) HasVar(v int) bool {
	i := sort.SearchInts(p.Vars, v)
	return i < len(p.Vars) && p.Vars[i] == v
}

// IndexOf returns the linear index of the given per-variable states, which
// must be parallel to p.Vars.
func (p *Potential) IndexOf(states []int) int {
	idx := 0
	for i, s := range states {
		idx = idx*p.Card[i] + s
	}
	return idx
}

// AssignmentOf decomposes a linear index into per-variable states, parallel
// to p.Vars.
func (p *Potential) AssignmentOf(idx int) []int {
	states := make([]int, len(p.Vars))
	p.assignmentInto(idx, states)
	return states
}

func (p *Potential) assignmentInto(idx int, states []int) {
	for i := len(p.Vars) - 1; i >= 0; i-- {
		states[i] = idx % p.Card[i]
		idx /= p.Card[i]
	}
}

// At returns the entry for the given per-variable states.
func (p *Potential) At(states ...int) float64 { return p.Data[p.IndexOf(states)] }

// Sum returns the total mass of the table.
func (p *Potential) Sum() float64 {
	s := 0.0
	for _, v := range p.Data {
		s += v
	}
	return s
}

// Normalize scales the table to total mass 1. It reports an error if the
// table has zero (or non-finite) mass.
func (p *Potential) Normalize() error {
	s := p.Sum()
	if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return fmt.Errorf("potential: cannot normalize table with mass %v", s)
	}
	inv := 1 / s
	for i := range p.Data {
		p.Data[i] *= inv
	}
	return nil
}

// Scale multiplies every entry by f.
func (p *Potential) Scale(f float64) {
	for i := range p.Data {
		p.Data[i] *= f
	}
}

// Add accumulates q into p. The two potentials must have identical domains;
// it is used to combine the private buffers of partitioned marginalization
// subtasks.
func (p *Potential) Add(q *Potential) error {
	if !sameDomain(p, q) {
		return fmt.Errorf("potential: Add domain mismatch %v vs %v", p.Vars, q.Vars)
	}
	for i, v := range q.Data {
		p.Data[i] += v
	}
	return nil
}

// MaxDiff returns the largest absolute difference between entries of p and
// q, which must share a domain. It is a testing aid.
func (p *Potential) MaxDiff(q *Potential) (float64, error) {
	if !sameDomain(p, q) {
		return 0, fmt.Errorf("potential: MaxDiff domain mismatch %v vs %v", p.Vars, q.Vars)
	}
	m := 0.0
	for i, v := range q.Data {
		d := math.Abs(p.Data[i] - v)
		if d > m {
			m = d
		}
	}
	return m, nil
}

// Equal reports whether p and q share a domain and all entries agree within
// tol.
func (p *Potential) Equal(q *Potential, tol float64) bool {
	d, err := p.MaxDiff(q)
	return err == nil && d <= tol
}

func sameDomain(p, q *Potential) bool {
	if len(p.Vars) != len(q.Vars) {
		return false
	}
	for i, v := range p.Vars {
		if q.Vars[i] != v || q.Card[i] != p.Card[i] {
			return false
		}
	}
	return true
}

// String renders the potential compactly for debugging.
func (p *Potential) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ψ(vars=%v card=%v)[", p.Vars, p.Card)
	for i, v := range p.Data {
		if i > 0 {
			b.WriteByte(' ')
		}
		if i >= 16 {
			fmt.Fprintf(&b, "… %d more", len(p.Data)-i)
			break
		}
		fmt.Fprintf(&b, "%.4g", v)
	}
	b.WriteByte(']')
	return b.String()
}

// Validate checks the structural invariants of p.
func (p *Potential) Validate() error {
	if len(p.Vars) != len(p.Card) {
		return fmt.Errorf("potential: %d vars but %d cardinalities", len(p.Vars), len(p.Card))
	}
	n := 1
	for i, v := range p.Vars {
		if i > 0 && p.Vars[i-1] >= v {
			return fmt.Errorf("potential: vars not strictly ascending at position %d", i)
		}
		if p.Card[i] < 1 {
			return fmt.Errorf("potential: variable %d has cardinality %d", v, p.Card[i])
		}
		n *= p.Card[i]
	}
	if n != len(p.Data) {
		return fmt.Errorf("potential: domain size %d but %d entries", n, len(p.Data))
	}
	return nil
}

// UnionDomain merges two sorted variable/cardinality lists, reporting an
// error if a shared variable has conflicting cardinalities.
func UnionDomain(varsA, cardA, varsB, cardB []int) (vars, card []int, err error) {
	i, j := 0, 0
	for i < len(varsA) || j < len(varsB) {
		switch {
		case j >= len(varsB) || (i < len(varsA) && varsA[i] < varsB[j]):
			vars = append(vars, varsA[i])
			card = append(card, cardA[i])
			i++
		case i >= len(varsA) || varsB[j] < varsA[i]:
			vars = append(vars, varsB[j])
			card = append(card, cardB[j])
			j++
		default: // equal
			if cardA[i] != cardB[j] {
				return nil, nil, fmt.Errorf("potential: variable %d has cardinality %d and %d", varsA[i], cardA[i], cardB[j])
			}
			vars = append(vars, varsA[i])
			card = append(card, cardA[i])
			i++
			j++
		}
	}
	return vars, card, nil
}

// IntersectDomain returns the sorted intersection of two sorted variable
// lists along with the cardinalities taken from the first list.
func IntersectDomain(varsA, cardA, varsB []int) (vars, card []int) {
	j := 0
	for i, v := range varsA {
		for j < len(varsB) && varsB[j] < v {
			j++
		}
		if j < len(varsB) && varsB[j] == v {
			vars = append(vars, v)
			card = append(card, cardA[i])
		}
	}
	return vars, card
}
