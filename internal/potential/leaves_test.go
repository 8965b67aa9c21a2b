package potential

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// specials are the operands whose bits a packed lane could get wrong if it
// were not the scalar operation: signed zeros (the divide's x/0 = 0 takes
// both), infinities, subnormals, the extremes and NaN. There is one NaN, the
// one amd64 makes of 0·∞ and ∞−∞: which operand's payload an add or multiply
// of two NaNs keeps is the compiler's register choice, not the arithmetic (a
// coverage-instrumented build of the same scalar loop keeps the other one),
// so with a second payload the bits would test the compiler. With one, every
// NaN a table holds has the same bits whichever operand survives.
var specials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.Float64frombits(0xfff8000000000000),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-310, -3e-320,
	math.MaxFloat64, -math.MaxFloat64, 1, -1,
}

// leafInput returns n operands, a third of them specials, the rest random of
// either sign and of any exponent a table holds.
func leafInput(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		if rng.Intn(3) == 0 {
			v[i] = specials[rng.Intn(len(specials))]
		} else {
			v[i] = (rng.Float64() - 0.25) * math.Pow(2, float64(rng.Intn(80)-40))
		}
	}
	return v
}

// TestLeavesMatchGoLoops holds every leaf to its Go loop, bit for bit, on
// every length from 0 to 67 — under packMin, odd tails, and the 4-entry and
// pair steps of the packed loops — and on dst aliasing the source, as
// MulRange calls mul and scale. The packed forms are also called directly on
// every even length, packMin or not. On a build without assembly both sides
// are Go loops.
func TestLeavesMatchGoLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for n := 0; n <= 67; n++ {
		a, b := leafInput(rng, n), leafInput(rng, n)
		f := specials[n%len(specials)]
		if n%3 == 0 {
			f = rng.Float64()
		}
		got, want := make([]float64, n), make([]float64, n)
		packs := []bool{false}
		if n%2 == 0 {
			packs = append(packs, true)
		}
		for _, direct := range packs {
			leaf := map[bool]string{false: "leaf", true: "packed form"}[direct]

			if direct {
				mulPacked(got, a, b)
			} else {
				mul(got, a, b)
			}
			mulGo(want, a, b)
			sameBits(t, fmt.Sprintf("mul %s, length %d", leaf, n), got, want)

			got, want = slices.Clone(a), slices.Clone(a)
			if direct {
				mulPacked(got, got, b)
			} else {
				mul(got, got, b)
			}
			mulGo(want, want, b)
			sameBits(t, fmt.Sprintf("mul in place %s, length %d", leaf, n), got, want)

			if direct {
				scalePacked(got, a, f)
			} else {
				scale(got, a, f)
			}
			scaleGo(want, a, f)
			sameBits(t, fmt.Sprintf("scale %s, length %d", leaf, n), got, want)

			got, want = slices.Clone(a), slices.Clone(a)
			if direct {
				scalePacked(got, got, f)
			} else {
				scale(got, got, f)
			}
			scaleGo(want, want, f)
			sameBits(t, fmt.Sprintf("scale in place %s, length %d", leaf, n), got, want)

			got, want = slices.Clone(a), slices.Clone(a)
			if direct {
				addPacked(got, b)
			} else {
				add(got, b)
			}
			addGo(want, b)
			sameBits(t, fmt.Sprintf("add %s, length %d", leaf, n), got, want)

			if direct {
				fillPacked(got, f)
			} else {
				fill(got, f)
			}
			fillGo(want, f)
			sameBits(t, fmt.Sprintf("fill %s, length %d", leaf, n), got, want)

			num, den := slices.Clone(a), slices.Clone(b)
			for i := range den {
				if rng.Intn(4) == 0 {
					den[i] = specials[rng.Intn(2)] // +0 or -0
				}
			}
			wnum, wden := slices.Clone(num), slices.Clone(den)
			if direct {
				divRatioPacked(num, den)
			} else {
				DivRatio(num, den)
			}
			divRatioGo(wnum, wden)
			sameBits(t, fmt.Sprintf("divide ratio %s, length %d", leaf, n), num, wnum)
			sameBits(t, fmt.Sprintf("divide fresh %s, length %d", leaf, n), den, wden)
		}
	}
}

// tileOf returns a tile of n entries in the given form over a subset of m
// cells: each pair (or quad) names a random cell, so consecutive pairs repeat
// a cell, overlap by one, or jump.
func tileOf(rng *rand.Rand, form tileForm, n, m int) []int32 {
	tile := make([]int32, n)
	step := 2
	if form == quad {
		step = 4
	}
	for k := 0; k+step <= n; k += step {
		o := int32(rng.Intn(m - 1))
		switch form {
		case adjacent:
			tile[k], tile[k+1] = o, o+1
		case twin:
			tile[k], tile[k+1] = o, o
		case quad:
			copy(tile[k:], []int32{o, o, o + 1, o + 1})
		}
	}
	return tile
}

// TestTileLeavesMatchGather holds the packed tile forms to the gather loops
// the kernels run on any other tile, on every length of the form's step up
// to 67 entries, over a subset of five cells so the adds' chains repeat and
// overlap their cells.
func TestTileLeavesMatchGather(t *testing.T) {
	const m = 5
	rng := rand.New(rand.NewSource(54))
	for _, form := range []tileForm{adjacent, twin, quad} {
		for n := 0; n <= 67; n++ {
			if n%2 != 0 || (form == quad && n%4 != 0) {
				continue
			}
			tile, src, q := tileOf(rng, form, n, m), leafInput(rng, n), leafInput(rng, m)
			got, want := make([]float64, n), make([]float64, n)
			mulTile(form, got, src, q, tile)
			for k, o := range tile {
				want[k] = src[k] * q[o]
			}
			sameBits(t, fmt.Sprintf("tile multiply, length %d", n), got, want)

			got, want = slices.Clone(src), slices.Clone(src)
			mulTile(form, got, got, q, tile)
			for k, o := range tile {
				want[k] *= q[o]
			}
			sameBits(t, fmt.Sprintf("tile multiply in place, length %d", n), got, want)

			if form == twin {
				continue // the marginal gathers a twin tile
			}
			dst, wdst := slices.Clone(q), slices.Clone(q)
			addTile(form, dst, src, tile)
			for k, o := range tile {
				wdst[o] += src[k]
			}
			sameBits(t, fmt.Sprintf("tile marginal, length %d", n), dst, wdst)
		}
	}
}

// TestTileForms pins the form each benchmark shape's compiled plan gives its
// tile: the w17 shapes are wide60's drop-one separators, whose short runs the
// packed tile forms exist for. A plan compiled without assembly gathers.
func TestTileForms(t *testing.T) {
	want := map[string]struct {
		shape blockShape
		form  tileForm
	}{
		"small":             {tiled, twin},
		"medium":            {constRun, gather},
		"large":             {constRun, gather},
		"w17-drop-last":     {tiled, quad},
		"w17-drop-2nd-last": {tiled, adjacent},
		"w17-drop-3rd-last": {tiled, adjacent},
		longRef:             {contigRun, gather},
	}
	for _, sh := range kernelShapes() {
		pl, err := NewPlan(sh.supVars, sh.supCard, sh.subVars, sh.subCard)
		if err != nil {
			t.Fatal(err)
		}
		w := want[sh.name]
		if !packed {
			w.form = gather
		}
		if pl.shape != w.shape || pl.form != w.form {
			t.Errorf("%s: shape %d form %d, want shape %d form %d", sh.name, pl.shape, pl.form, w.shape, w.form)
		}
		if pl.form != gather && pl.span != int(slices.Max(pl.tile))+1 {
			t.Errorf("%s: span %d for a tile whose largest offset is %d", sh.name, pl.span, slices.Max(pl.tile))
		}
	}
}
