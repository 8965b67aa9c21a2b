package potential

import (
	"math"
	"math/rand"
	"testing"
)

func TestMulByScalarSubset(t *testing.T) {
	p := mustConst(t, []int{0, 1}, []int{2, 2}, 2)
	s := Scalar(3)
	if err := p.MulBy(s); err != nil {
		t.Fatalf("MulBy scalar: %v", err)
	}
	for _, v := range p.Data {
		if v != 6 {
			t.Fatalf("entry %v, want 6", v)
		}
	}
}

func TestMulByAlignment(t *testing.T) {
	// p over {0,1}, q over {1}: each entry of p must be multiplied by the
	// q entry matching its state of variable 1.
	p := mustConst(t, []int{0, 1}, []int{2, 3}, 1)
	q := MustNew([]int{1}, []int{3})
	copy(q.Data, []float64{10, 20, 30})
	if err := p.MulBy(q); err != nil {
		t.Fatalf("MulBy: %v", err)
	}
	want := []float64{10, 20, 30, 10, 20, 30}
	for i, v := range p.Data {
		if v != want[i] {
			t.Fatalf("Data = %v, want %v", p.Data, want)
		}
	}
}

func TestMulByAlignmentFirstVar(t *testing.T) {
	p := mustConst(t, []int{0, 1}, []int{2, 3}, 1)
	q := MustNew([]int{0}, []int{2})
	copy(q.Data, []float64{2, 5})
	if err := p.MulBy(q); err != nil {
		t.Fatalf("MulBy: %v", err)
	}
	want := []float64{2, 2, 2, 5, 5, 5}
	for i, v := range p.Data {
		if v != want[i] {
			t.Fatalf("Data = %v, want %v", p.Data, want)
		}
	}
}

func TestMulByNotSubset(t *testing.T) {
	p := mustConst(t, []int{0, 1}, []int{2, 2}, 1)
	q := mustConst(t, []int{2}, []int{2}, 1)
	if err := p.MulBy(q); err == nil {
		t.Error("MulBy with non-subset succeeded")
	}
	r := MustNew([]int{1}, []int{3}) // wrong cardinality
	if err := p.MulBy(r); err == nil {
		t.Error("MulBy with conflicting cardinality succeeded")
	}
}

func TestMulRangeMatchesWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := randomPotential(rng, []int{0, 2, 5}, []int{3, 2, 4})
	q := randomPotential(rng, []int{2, 5}, []int{2, 4})
	whole := p.Clone()
	if err := whole.MulBy(q); err != nil {
		t.Fatal(err)
	}
	chunked := p.Clone()
	for lo := 0; lo < chunked.Len(); lo += 5 {
		hi := lo + 5
		if hi > chunked.Len() {
			hi = chunked.Len()
		}
		if err := chunked.MulRange(q, lo, hi); err != nil {
			t.Fatal(err)
		}
	}
	if !whole.Equal(chunked, 1e-15) {
		t.Error("chunked MulRange differs from whole-table MulBy")
	}
}

func TestMulRangeBadRange(t *testing.T) {
	p := mustConst(t, []int{0}, []int{4}, 1)
	q := Scalar(1)
	for _, r := range [][2]int{{-1, 2}, {3, 2}, {0, 5}} {
		if err := p.MulRange(q, r[0], r[1]); err == nil {
			t.Errorf("MulRange(%d,%d) succeeded", r[0], r[1])
		}
	}
}

func TestDivByBasic(t *testing.T) {
	p := mustConst(t, []int{0, 1}, []int{2, 2}, 6)
	q := MustNew([]int{1}, []int{2})
	copy(q.Data, []float64{2, 3})
	if err := p.DivBy(q); err != nil {
		t.Fatalf("DivBy: %v", err)
	}
	want := []float64{3, 2, 3, 2}
	for i, v := range p.Data {
		if v != want[i] {
			t.Fatalf("Data = %v, want %v", p.Data, want)
		}
	}
}

func TestDivByZeroConvention(t *testing.T) {
	p := mustConst(t, []int{0}, []int{2}, 4)
	q := MustNew([]int{0}, []int{2})
	q.Data[1] = 2
	if err := p.DivBy(q); err != nil {
		t.Fatalf("DivBy: %v", err)
	}
	if p.Data[0] != 0 {
		t.Errorf("x/0 = %v, want 0 by junction-tree convention", p.Data[0])
	}
	if p.Data[1] != 2 {
		t.Errorf("4/2 = %v, want 2", p.Data[1])
	}
}

func TestDivUndoesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := randomPotential(rng, []int{1, 4, 6}, []int{2, 3, 2})
	q := randomPotential(rng, []int{4, 6}, []int{3, 2})
	orig := p.Clone()
	if err := p.MulBy(q); err != nil {
		t.Fatal(err)
	}
	if err := p.DivBy(q); err != nil {
		t.Fatal(err)
	}
	if !p.Equal(orig, 1e-12) {
		t.Error("DivBy did not undo MulBy")
	}
}

func TestMarginalBasic(t *testing.T) {
	p := MustNew([]int{0, 1}, []int{2, 3})
	copy(p.Data, []float64{1, 2, 3, 4, 5, 6})
	m, err := p.Marginal([]int{0})
	if err != nil {
		t.Fatalf("Marginal: %v", err)
	}
	if m.Data[0] != 6 || m.Data[1] != 15 {
		t.Errorf("Marginal onto {0} = %v, want [6 15]", m.Data)
	}
	m1, err := p.Marginal([]int{1})
	if err != nil {
		t.Fatalf("Marginal: %v", err)
	}
	want := []float64{5, 7, 9}
	for i, v := range m1.Data {
		if v != want[i] {
			t.Errorf("Marginal onto {1} = %v, want %v", m1.Data, want)
		}
	}
}

func TestMarginalOntoEmpty(t *testing.T) {
	p := mustConst(t, []int{0, 1}, []int{2, 2}, 1.5)
	m, err := p.Marginal(nil)
	if err != nil {
		t.Fatalf("Marginal(nil): %v", err)
	}
	if m.Len() != 1 || math.Abs(m.Data[0]-6) > 1e-12 {
		t.Errorf("Marginal onto empty = %v, want scalar 6", m)
	}
}

func TestMarginalNotSubset(t *testing.T) {
	p := mustConst(t, []int{0, 1}, []int{2, 2}, 1)
	if _, err := p.Marginal([]int{0, 3}); err == nil {
		t.Error("Marginal onto non-subset succeeded")
	}
}

func TestMarginalPreservesMass(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := randomPotential(rng, []int{0, 3, 4, 7}, []int{2, 3, 2, 2})
	for _, onto := range [][]int{{0}, {3, 7}, {0, 3, 4, 7}, nil} {
		m, err := p.Marginal(onto)
		if err != nil {
			t.Fatalf("Marginal(%v): %v", onto, err)
		}
		if math.Abs(m.Sum()-p.Sum()) > 1e-9 {
			t.Errorf("Marginal(%v) changed mass: %v vs %v", onto, m.Sum(), p.Sum())
		}
	}
}

func TestMarginalIntoPartitionedEqualsWhole(t *testing.T) {
	// Partitioned marginalization: private buffers per input chunk, then Add.
	rng := rand.New(rand.NewSource(5))
	p := randomPotential(rng, []int{0, 1, 2}, []int{3, 4, 5})
	whole, err := p.Marginal([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	combined := whole.CloneZero()
	for lo := 0; lo < p.Len(); lo += 17 {
		hi := lo + 17
		if hi > p.Len() {
			hi = p.Len()
		}
		buf := whole.CloneZero()
		if err := p.MarginalInto(buf, lo, hi); err != nil {
			t.Fatal(err)
		}
		if err := combined.Add(buf); err != nil {
			t.Fatal(err)
		}
	}
	if !whole.Equal(combined, 1e-12) {
		t.Error("partitioned marginalization differs from whole-table result")
	}
}

func TestExtendBasic(t *testing.T) {
	q := MustNew([]int{1}, []int{3})
	copy(q.Data, []float64{1, 2, 3})
	e, err := q.Extend([]int{0, 1}, []int{2, 3})
	if err != nil {
		t.Fatalf("Extend: %v", err)
	}
	want := []float64{1, 2, 3, 1, 2, 3}
	for i, v := range e.Data {
		if v != want[i] {
			t.Fatalf("Extend = %v, want %v", e.Data, want)
		}
	}
}

func TestExtendNotSuperset(t *testing.T) {
	q := mustConst(t, []int{1, 5}, []int{2, 2}, 1)
	if _, err := q.Extend([]int{1, 2}, []int{2, 2}); err == nil {
		t.Error("Extend to non-superset succeeded")
	}
}

func TestExtendIntoChunkedEqualsWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	q := randomPotential(rng, []int{2, 4}, []int{3, 2})
	vars, card := []int{1, 2, 4, 6}, []int{2, 3, 2, 2}
	whole, err := q.Extend(vars, card)
	if err != nil {
		t.Fatal(err)
	}
	chunked := MustNew(vars, card)
	for lo := 0; lo < chunked.Len(); lo += 7 {
		hi := lo + 7
		if hi > chunked.Len() {
			hi = chunked.Len()
		}
		if err := q.ExtendInto(chunked, lo, hi); err != nil {
			t.Fatal(err)
		}
	}
	if !whole.Equal(chunked, 0) {
		t.Error("chunked ExtendInto differs from whole-table Extend")
	}
}

func TestExtendThenMarginalizeScales(t *testing.T) {
	// Marginalizing an extension back to the original domain multiplies by
	// the number of states summed out.
	q := MustNew([]int{1}, []int{2})
	copy(q.Data, []float64{3, 5})
	e, err := q.Extend([]int{0, 1}, []int{4, 2})
	if err != nil {
		t.Fatal(err)
	}
	back, err := e.Marginal([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	if back.Data[0] != 12 || back.Data[1] != 20 {
		t.Errorf("marginal of extension = %v, want [12 20]", back.Data)
	}
}

func TestProduct(t *testing.T) {
	p := MustNew([]int{0}, []int{2})
	copy(p.Data, []float64{2, 3})
	q := MustNew([]int{1}, []int{2})
	copy(q.Data, []float64{5, 7})
	prod, err := Product(p, q)
	if err != nil {
		t.Fatalf("Product: %v", err)
	}
	want := []float64{10, 14, 15, 21}
	for i, v := range prod.Data {
		if v != want[i] {
			t.Fatalf("Product = %v, want %v", prod.Data, want)
		}
	}
}

func TestProductOverlap(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := randomPotential(rng, []int{0, 1}, []int{2, 3})
	q := randomPotential(rng, []int{1, 2}, []int{3, 2})
	prod, err := Product(p, q)
	if err != nil {
		t.Fatalf("Product: %v", err)
	}
	// Check one entry by hand: states (a,b,c).
	for a := 0; a < 2; a++ {
		for b := 0; b < 3; b++ {
			for c := 0; c < 2; c++ {
				want := p.At(a, b) * q.At(b, c)
				if got := prod.At(a, b, c); math.Abs(got-want) > 1e-12 {
					t.Fatalf("Product(%d,%d,%d) = %v, want %v", a, b, c, got, want)
				}
			}
		}
	}
}

func TestProductConflictingCards(t *testing.T) {
	p := mustConst(t, []int{1}, []int{2}, 1)
	q := mustConst(t, []int{1}, []int{3}, 1)
	if _, err := Product(p, q); err == nil {
		t.Error("Product with conflicting cardinalities succeeded")
	}
}

func TestMessagePassIdentity(t *testing.T) {
	// A full message pass X -> Y over separator S where ψS is already the
	// marginal of ψX must leave ψY unchanged (ratio is all ones).
	rng := rand.New(rand.NewSource(21))
	x := randomPotential(rng, []int{0, 1}, []int{2, 3})
	sep, err := x.Marginal([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	y := randomPotential(rng, []int{1, 2}, []int{3, 2})
	yOrig := y.Clone()

	sepNew, err := x.Marginal([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	ratio := sepNew.Clone()
	if err := ratio.DivBy(sep); err != nil {
		t.Fatal(err)
	}
	ext, err := ratio.Extend(y.Vars, y.Card)
	if err != nil {
		t.Fatal(err)
	}
	if err := y.MulBy(ext); err != nil {
		t.Fatal(err)
	}
	if !y.Equal(yOrig, 1e-12) {
		t.Error("identity message changed target potential")
	}
}
