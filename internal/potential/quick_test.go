package potential

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// randomDomain draws a small random domain: up to maxVars variables with ids
// in [0, 12) and cardinalities in [1, 4].
func randomDomain(rng *rand.Rand, maxVars int) (vars, card []int) {
	n := rng.Intn(maxVars + 1)
	seen := map[int]bool{}
	for len(vars) < n {
		v := rng.Intn(12)
		if !seen[v] {
			seen[v] = true
			vars = append(vars, v)
		}
	}
	sort.Ints(vars)
	card = make([]int, len(vars))
	for i := range card {
		card[i] = 1 + rng.Intn(3)
	}
	return vars, card
}

// subDomain draws a random subset of an existing domain.
func subDomain(rng *rand.Rand, vars, card []int) (sv, sc []int) {
	for i := range vars {
		if rng.Intn(2) == 0 {
			sv = append(sv, vars[i])
			sc = append(sc, card[i])
		}
	}
	return sv, sc
}

func quickCfg(seed int64) *quick.Config {
	return &quick.Config{
		MaxCount: 200,
		Rand:     rand.New(rand.NewSource(seed)),
	}
}

func TestQuickMarginalPreservesMass(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vars, card := randomDomain(rng, 5)
		p := randomPotential(rng, vars, card)
		sv, _ := subDomain(rng, vars, card)
		m, err := p.Marginal(sv)
		if err != nil {
			return false
		}
		return math.Abs(m.Sum()-p.Sum()) <= 1e-9*math.Max(1, p.Sum())
	}
	if err := quick.Check(f, quickCfg(1)); err != nil {
		t.Error(err)
	}
}

func TestQuickMarginalCommutes(t *testing.T) {
	// Marginalizing in two steps equals marginalizing in one step.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vars, card := randomDomain(rng, 6)
		p := randomPotential(rng, vars, card)
		mid, midCard := subDomain(rng, vars, card)
		fin, _ := subDomain(rng, mid, midCard)
		step1, err := p.Marginal(mid)
		if err != nil {
			return false
		}
		twoStep, err := step1.Marginal(fin)
		if err != nil {
			return false
		}
		oneStep, err := p.Marginal(fin)
		if err != nil {
			return false
		}
		return oneStep.Equal(twoStep, 1e-9)
	}
	if err := quick.Check(f, quickCfg(2)); err != nil {
		t.Error(err)
	}
}

func TestQuickMulDivRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vars, card := randomDomain(rng, 5)
		p := randomPotential(rng, vars, card)
		sv, sc := subDomain(rng, vars, card)
		q := randomPotential(rng, sv, sc)
		orig := p.Clone()
		if err := p.MulBy(q); err != nil {
			return false
		}
		if err := p.DivBy(q); err != nil {
			return false
		}
		return p.Equal(orig, 1e-9)
	}
	if err := quick.Check(f, quickCfg(3)); err != nil {
		t.Error(err)
	}
}

func TestQuickMulCommutative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vars, card := randomDomain(rng, 5)
		p := randomPotential(rng, vars, card)
		a, ac := subDomain(rng, vars, card)
		b, bc := subDomain(rng, vars, card)
		qa := randomPotential(rng, a, ac)
		qb := randomPotential(rng, b, bc)
		x := p.Clone()
		if err := x.MulBy(qa); err != nil {
			return false
		}
		if err := x.MulBy(qb); err != nil {
			return false
		}
		y := p.Clone()
		if err := y.MulBy(qb); err != nil {
			return false
		}
		if err := y.MulBy(qa); err != nil {
			return false
		}
		return x.Equal(y, 1e-9)
	}
	if err := quick.Check(f, quickCfg(4)); err != nil {
		t.Error(err)
	}
}

func TestQuickExtendMarginalAdjoint(t *testing.T) {
	// Extension followed by marginalization back multiplies mass by the
	// number of summed-out configurations.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vars, card := randomDomain(rng, 5)
		sv, sc := subDomain(rng, vars, card)
		q := randomPotential(rng, sv, sc)
		e, err := q.Extend(vars, card)
		if err != nil {
			return false
		}
		back, err := e.Marginal(sv)
		if err != nil {
			return false
		}
		factor := float64(Size(card)) / float64(Size(sc))
		scaled := q.Clone()
		scaled.Scale(factor)
		return back.Equal(scaled, 1e-9*factor)
	}
	if err := quick.Check(f, quickCfg(5)); err != nil {
		t.Error(err)
	}
}

func TestQuickRangeOpsMatchWhole(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vars, card := randomDomain(rng, 5)
		p := randomPotential(rng, vars, card)
		sv, sc := subDomain(rng, vars, card)
		q := randomPotential(rng, sv, sc)

		whole := p.Clone()
		if err := whole.MulBy(q); err != nil {
			return false
		}
		chunked := p.Clone()
		step := 1 + rng.Intn(7)
		for lo := 0; lo < chunked.Len(); lo += step {
			hi := lo + step
			if hi > chunked.Len() {
				hi = chunked.Len()
			}
			if err := chunked.MulRange(q, lo, hi); err != nil {
				return false
			}
		}
		return whole.Equal(chunked, 1e-12)
	}
	if err := quick.Check(f, quickCfg(6)); err != nil {
		t.Error(err)
	}
}

func TestQuickEvidenceReduceMass(t *testing.T) {
	// Reducing on evidence never increases mass, and repeating the same
	// reduction is idempotent.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vars, card := randomDomain(rng, 5)
		p := randomPotential(rng, vars, card)
		ev := Evidence{}
		for i, v := range vars {
			if rng.Intn(3) == 0 {
				ev[v] = rng.Intn(card[i])
			}
		}
		before := p.Sum()
		if err := p.Reduce(ev); err != nil {
			return false
		}
		mid := p.Sum()
		if mid > before+1e-12 {
			return false
		}
		if err := p.Reduce(ev); err != nil {
			return false
		}
		return math.Abs(p.Sum()-mid) <= 1e-12
	}
	if err := quick.Check(f, quickCfg(7)); err != nil {
		t.Error(err)
	}
}

func TestQuickReduceEqualsSelectiveSum(t *testing.T) {
	// Sum after Reduce equals the sum of entries consistent with evidence.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vars, card := randomDomain(rng, 5)
		p := randomPotential(rng, vars, card)
		ev := Evidence{}
		for i, v := range vars {
			if rng.Intn(2) == 0 {
				ev[v] = rng.Intn(card[i])
			}
		}
		want := 0.0
		states := make([]int, len(vars))
		for idx := 0; idx < p.Len(); idx++ {
			p.assignmentInto(idx, states)
			ok := true
			for i, v := range vars {
				if s, has := ev[v]; has && states[i] != s {
					ok = false
					break
				}
			}
			if ok {
				want += p.Data[idx]
			}
		}
		if err := p.Reduce(ev); err != nil {
			return false
		}
		return math.Abs(p.Sum()-want) <= 1e-9
	}
	if err := quick.Check(f, quickCfg(8)); err != nil {
		t.Error(err)
	}
}

func TestEvidenceErrors(t *testing.T) {
	p := MustNew([]int{3}, []int{2})
	if err := p.Reduce(Evidence{3: 2}); err == nil {
		t.Error("Reduce accepted out-of-range state")
	}
	if err := p.Reduce(Evidence{3: -1}); err == nil {
		t.Error("Reduce accepted negative state")
	}
	if err := p.Reduce(Evidence{99: 0}); err != nil {
		t.Errorf("Reduce rejected evidence on foreign variable: %v", err)
	}
}

// TestReduceInvalidLeavesTableUntouched is the regression test for the
// mutate-then-fail bug: Reduce validated observed states one variable at a
// time, so a valid observation on an earlier variable was already absorbed
// (entries zeroed) before a later out-of-range observation returned an
// error, leaving the table partially reduced. All states must now be
// validated up front, making a failed Reduce a no-op.
func TestReduceInvalidLeavesTableUntouched(t *testing.T) {
	p := MustNew([]int{0, 1}, []int{2, 2})
	copy(p.Data, []float64{1, 2, 3, 4})
	before := append([]float64(nil), p.Data...)
	// Variable 0's observation is valid, variable 1's is out of range. The
	// old code zeroed variable 0's inconsistent entries before noticing.
	err := p.Reduce(Evidence{0: 1, 1: 5})
	if err == nil {
		t.Fatal("Reduce accepted an out-of-range observation")
	}
	for i, v := range p.Data {
		if v != before[i] {
			t.Fatalf("failed Reduce mutated the table: entry %d = %v, want %v (table %v)", i, v, before[i], p.Data)
		}
	}
}

func TestApplyLikelihood(t *testing.T) {
	p := mustConst(t, []int{2, 5}, []int{2, 3}, 1)
	like := Likelihood{5: {1, 2, 0}}
	if err := p.ApplyLikelihood(like, 5); err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 2; a++ {
		if p.At(a, 0) != 1 || p.At(a, 1) != 2 || p.At(a, 2) != 0 {
			t.Fatalf("weights misapplied: %v", p.Data)
		}
	}
	// Variables absent from the likelihood are a no-op.
	if err := p.ApplyLikelihood(like, 2); err != nil {
		t.Errorf("no-op application errored: %v", err)
	}
	// Errors: variable not in domain, wrong length, negative weight.
	if err := p.ApplyLikelihood(Likelihood{9: {1, 1}}, 9); err == nil {
		t.Error("accepted likelihood on foreign variable")
	}
	if err := p.ApplyLikelihood(Likelihood{5: {1, 1}}, 5); err == nil {
		t.Error("accepted wrong-length weights")
	}
	if err := p.ApplyLikelihood(Likelihood{5: {1, -1, 1}}, 5); err == nil {
		t.Error("accepted negative weight")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic on malformed domain")
		}
	}()
	MustNew([]int{2, 1}, []int{2, 2})
}

func TestValidateUnsortedVars(t *testing.T) {
	p := MustNew([]int{0, 1}, []int{2, 2})
	p.Vars[0], p.Vars[1] = 1, 0
	if err := p.Validate(); err == nil {
		t.Error("Validate missed unsorted vars")
	}
	q := MustNew([]int{0}, []int{2})
	q.Card[0] = 0
	if err := q.Validate(); err == nil {
		t.Error("Validate missed zero cardinality")
	}
	r := MustNew([]int{0}, []int{2})
	r.Card = r.Card[:0]
	if err := r.Validate(); err == nil {
		t.Error("Validate missed card/vars mismatch")
	}
}
