package potential

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func mustConst(t *testing.T, vars, card []int, v float64) *Potential {
	t.Helper()
	p, err := NewConstant(vars, card, v)
	if err != nil {
		t.Fatalf("NewConstant(%v, %v): %v", vars, card, err)
	}
	return p
}

func randomPotential(rng *rand.Rand, vars, card []int) *Potential {
	p := MustNew(vars, card)
	for i := range p.Data {
		p.Data[i] = rng.Float64() + 0.05 // strictly positive
	}
	return p
}

func TestNewValid(t *testing.T) {
	p, err := New([]int{1, 3, 7}, []int{2, 3, 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got, want := p.Len(), 24; got != want {
		t.Errorf("Len = %d, want %d", got, want)
	}
	for _, v := range p.Data {
		if v != 0 {
			t.Fatalf("New not zero-initialized: %v", p.Data)
		}
	}
}

func TestNewErrors(t *testing.T) {
	cases := []struct {
		name string
		vars []int
		card []int
	}{
		{"length mismatch", []int{1, 2}, []int{2}},
		{"unsorted", []int{3, 1}, []int{2, 2}},
		{"duplicate", []int{1, 1}, []int{2, 2}},
		{"negative id", []int{-1, 2}, []int{2, 2}},
		{"zero cardinality", []int{1, 2}, []int{2, 0}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := New(c.vars, c.card); err == nil {
				t.Errorf("New(%v, %v) succeeded, want error", c.vars, c.card)
			}
		})
	}
}

func TestNewSizeLimit(t *testing.T) {
	vars := make([]int, 50)
	card := make([]int, 50)
	for i := range vars {
		vars[i] = i
		card[i] = 4
	}
	if _, err := New(vars, card); err == nil {
		t.Error("New accepted a 4^50-entry table")
	}
}

func TestScalar(t *testing.T) {
	s := Scalar(2.5)
	if s.Len() != 1 || s.Data[0] != 2.5 {
		t.Errorf("Scalar(2.5) = %v", s)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("scalar Validate: %v", err)
	}
}

func TestSize(t *testing.T) {
	if got := Size([]int{2, 3, 4}); got != 24 {
		t.Errorf("Size = %d, want 24", got)
	}
	if got := Size(nil); got != 1 {
		t.Errorf("Size(nil) = %d, want 1", got)
	}
}

func TestIndexRoundTrip(t *testing.T) {
	p := MustNew([]int{0, 1, 2}, []int{2, 3, 4})
	for idx := 0; idx < p.Len(); idx++ {
		states := p.AssignmentOf(idx)
		if back := p.IndexOf(states); back != idx {
			t.Fatalf("IndexOf(AssignmentOf(%d)) = %d", idx, back)
		}
	}
}

func TestIndexLayoutLastVarFastest(t *testing.T) {
	p := MustNew([]int{0, 1}, []int{2, 3})
	// Index = s0*3 + s1; the last variable must vary fastest.
	if got := p.IndexOf([]int{1, 2}); got != 5 {
		t.Errorf("IndexOf([1,2]) = %d, want 5", got)
	}
	if got := p.IndexOf([]int{0, 1}); got != 1 {
		t.Errorf("IndexOf([0,1]) = %d, want 1", got)
	}
}

// TestAtSet: an entry written at IndexOf's position, as the network and
// BIF code fill tables, reads back through At.
func TestAtSet(t *testing.T) {
	p := MustNew([]int{4, 9}, []int{2, 2})
	p.Data[p.IndexOf([]int{1, 0})] = 0.75
	if got := p.At(1, 0); got != 0.75 {
		t.Errorf("At(1,0) = %v, want 0.75", got)
	}
	if got := p.At(0, 0); got != 0 {
		t.Errorf("At(0,0) = %v, want 0", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	p := mustConst(t, []int{1}, []int{2}, 1)
	q := p.Clone()
	q.Data[0] = 42
	q.Vars[0] = 9
	if p.Data[0] != 1 || p.Vars[0] != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestCloneZero(t *testing.T) {
	p := mustConst(t, []int{1, 2}, []int{2, 2}, 3)
	z := p.CloneZero()
	if z.Sum() != 0 {
		t.Errorf("CloneZero sum = %v", z.Sum())
	}
	if !sameDomain(p, z) {
		t.Error("CloneZero changed domain")
	}
}

// TestHasVarCardOf checks domain membership; a variable's cardinality is
// read from Card at its position in Vars.
func TestHasVarCardOf(t *testing.T) {
	p := MustNew([]int{2, 5, 8}, []int{2, 3, 4})
	if !p.HasVar(5) || p.HasVar(3) || p.HasVar(9) {
		t.Error("HasVar wrong")
	}
	if p.Vars[2] != 8 || p.Card[2] != 4 {
		t.Errorf("variable 8 at position 2 with 4 states: Vars %v, Card %v", p.Vars, p.Card)
	}
}

func TestSumNormalize(t *testing.T) {
	p := mustConst(t, []int{0, 1}, []int{2, 2}, 0.5)
	if got := p.Sum(); got != 2 {
		t.Errorf("Sum = %v, want 2", got)
	}
	if err := p.Normalize(); err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	if got := p.Sum(); math.Abs(got-1) > 1e-12 {
		t.Errorf("Sum after Normalize = %v", got)
	}
}

func TestNormalizeZeroMass(t *testing.T) {
	p := MustNew([]int{0}, []int{3})
	if err := p.Normalize(); err == nil {
		t.Error("Normalize of zero table succeeded")
	}
	p.Data[0] = math.NaN()
	if err := p.Normalize(); err == nil {
		t.Error("Normalize of NaN table succeeded")
	}
}

func TestScale(t *testing.T) {
	p := mustConst(t, []int{0}, []int{4}, 2)
	p.Scale(0.25)
	for _, v := range p.Data {
		if v != 0.5 {
			t.Fatalf("Scale: entry %v, want 0.5", v)
		}
	}
}

func TestAdd(t *testing.T) {
	p := mustConst(t, []int{0, 3}, []int{2, 2}, 1)
	q := mustConst(t, []int{0, 3}, []int{2, 2}, 2)
	if err := p.Add(q); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if p.Sum() != 12 {
		t.Errorf("Add sum = %v, want 12", p.Sum())
	}
	r := mustConst(t, []int{0}, []int{2}, 1)
	if err := p.Add(r); err == nil {
		t.Error("Add with mismatched domain succeeded")
	}
}

func TestMaxDiffEqual(t *testing.T) {
	p := mustConst(t, []int{1}, []int{3}, 1)
	q := p.Clone()
	q.Data[2] = 1.5
	d, err := p.MaxDiff(q)
	if err != nil || d != 0.5 {
		t.Errorf("MaxDiff = %v, %v; want 0.5, nil", d, err)
	}
	if p.Equal(q, 0.1) {
		t.Error("Equal with tol 0.1 true, want false")
	}
	if !p.Equal(q, 0.6) {
		t.Error("Equal with tol 0.6 false, want true")
	}
	r := MustNew([]int{2}, []int{3})
	if p.Equal(r, 1e9) {
		t.Error("Equal across domains true, want false")
	}
}

func TestStringTruncates(t *testing.T) {
	p := mustConst(t, []int{0, 1}, []int{8, 8}, 1)
	s := p.String()
	if !strings.Contains(s, "more") {
		t.Errorf("String of 64-entry table not truncated: %q", s)
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	p := MustNew([]int{0, 1}, []int{2, 2})
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate of fresh potential: %v", err)
	}
	p.Data = p.Data[:3]
	if err := p.Validate(); err == nil {
		t.Error("Validate missed truncated data")
	}
}

func TestUnionDomain(t *testing.T) {
	vars, card, err := UnionDomain([]int{1, 3, 5}, []int{2, 3, 4}, []int{2, 3, 6}, []int{5, 3, 7})
	if err != nil {
		t.Fatalf("UnionDomain: %v", err)
	}
	wantVars := []int{1, 2, 3, 5, 6}
	wantCard := []int{2, 5, 3, 4, 7}
	for i := range wantVars {
		if vars[i] != wantVars[i] || card[i] != wantCard[i] {
			t.Fatalf("UnionDomain = %v/%v, want %v/%v", vars, card, wantVars, wantCard)
		}
	}
	if _, _, err := UnionDomain([]int{1}, []int{2}, []int{1}, []int{3}); err == nil {
		t.Error("UnionDomain accepted conflicting cardinalities")
	}
}

func TestIntersectDomain(t *testing.T) {
	vars, card := IntersectDomain([]int{1, 3, 5, 9}, []int{2, 3, 4, 5}, []int{3, 4, 9})
	if len(vars) != 2 || vars[0] != 3 || vars[1] != 9 || card[0] != 3 || card[1] != 5 {
		t.Errorf("IntersectDomain = %v/%v", vars, card)
	}
	if vars, _ := IntersectDomain([]int{1}, []int{2}, nil); len(vars) != 0 {
		t.Errorf("empty intersection = %v", vars)
	}
}
