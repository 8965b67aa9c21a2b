package potential

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzKernelBlockedVsScalar drives the five plan kernels against their
// per-entry scalar reference implementations (and MulRangeFrom against copy +
// MulRange) with fuzzer-chosen domains,
// subset masks, range endpoints and table contents (including zeros, for the
// 0/0 = 0 division convention), requiring bit-identical results — the same
// differential style as internal/cache's FuzzEvidenceSignature. One plan is
// compiled per input and shared by all five kernels, as the engines share the
// plan of an edge; up to twelve variables, mostly binary once the table grows,
// reach every block shape — constant and contiguous runs, and tiles with an
// odometer above them — and the endpoints fall inside runs and inside tiles.
// The fuzz inputs deterministically seed a PRNG, so every crash reproduces.
func FuzzKernelBlockedVsScalar(f *testing.F) {
	f.Add(int64(1), uint16(0b1010), uint8(3), uint16(0), uint16(200))
	f.Add(int64(2), uint16(0b0001), uint8(1), uint16(5), uint16(7))
	f.Add(int64(3), uint16(0b1111), uint8(0), uint16(1), uint16(1))
	f.Add(int64(4), uint16(0), uint8(5), uint16(0), uint16(65535))
	// A separator that drops the last, the second-to-last, the third-to-last
	// and a middle variable of a twelve-variable clique: a short constant run,
	// a short contiguous run, a longer short run (all walked by tile) and a
	// long run.
	f.Add(int64(5), uint16(0b011111111111), uint8(11), uint16(300), uint16(1000))
	f.Add(int64(6), uint16(0b101111111111), uint8(11), uint16(511), uint16(2))
	f.Add(int64(7), uint16(0b110111111111), uint8(11), uint16(0), uint16(65535))
	f.Add(int64(8), uint16(0b111111011111), uint8(11), uint16(77), uint16(3000))
	f.Fuzz(func(t *testing.T, seed int64, mask uint16, nv uint8, rawLo, rawHi uint16) {
		rng := rand.New(rand.NewSource(seed))
		n := int(nv%12) + 1 // 1..12 superset variables
		vars := make([]int, n)
		card := make([]int, n)
		size := 1
		for i := range vars {
			vars[i] = i
			card[i] = 1 + rng.Intn(4)
			if size > 1<<10 {
				card[i] = 1 + rng.Intn(2) // keep the table under 2^14 entries
			}
			size *= card[i]
		}
		var sv, sc []int
		for i := range vars {
			if mask&(1<<i) != 0 {
				sv = append(sv, vars[i])
				sc = append(sc, card[i])
			}
		}
		p := MustNew(vars, card)
		q := MustNew(sv, sc)
		for i := range p.Data {
			p.Data[i] = rng.Float64()
			if rng.Intn(16) == 0 {
				p.Data[i] = 0
			}
		}
		for i := range q.Data {
			q.Data[i] = rng.Float64()
			if rng.Intn(8) == 0 {
				q.Data[i] = 0
			}
		}
		lo := int(rawLo) % (size + 1)
		hi := lo + int(rawHi)%(size-lo+1)
		pl, err := NewPlan(vars, card, sv, sc)
		if err != nil {
			t.Fatal(err)
		}

		bits := func(a, b []float64, name string) {
			for i := range a {
				if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
					t.Fatalf("%s: entry %d plan %v scalar %v (vars %v card %v sub %v range [%d,%d))",
						name, i, a[i], b[i], vars, card, sv, lo, hi)
				}
			}
		}

		w1, w2 := p.Clone(), p.Clone()
		if err := pl.MulRange(w1, q, lo, hi); err != nil {
			t.Fatal(err)
		}
		if err := w2.MulRangeScalar(q, lo, hi); err != nil {
			t.Fatal(err)
		}
		bits(w1.Data, w2.Data, "multiply")

		// The first writer's form: out of the prior into a table holding
		// anything, entries outside [lo, hi) left alone — the bits of copying the
		// prior in and multiplying in place.
		from := p.CloneZero()
		for i := range from.Data {
			from.Data[i] = math.NaN()
		}
		if err := pl.MulRangeFrom(from, p, q, lo, hi); err != nil {
			t.Fatal(err)
		}
		w1 = p.Clone()
		if err := pl.MulRange(w1, q, lo, hi); err != nil {
			t.Fatal(err)
		}
		for i := range w1.Data {
			if i < lo || i >= hi {
				w1.Data[i] = math.NaN()
			}
		}
		bits(from.Data, w1.Data, "multiply-from")

		w1, w2 = p.Clone(), p.Clone()
		if err := pl.DivRange(w1, q, lo, hi); err != nil {
			t.Fatal(err)
		}
		if err := w2.DivRangeScalar(q, lo, hi); err != nil {
			t.Fatal(err)
		}
		bits(w1.Data, w2.Data, "divide")

		d1, d2 := q.CloneZero(), q.CloneZero()
		if err := pl.MarginalInto(p, d1, lo, hi); err != nil {
			t.Fatal(err)
		}
		if err := p.MarginalIntoScalar(d2, lo, hi); err != nil {
			t.Fatal(err)
		}
		bits(d1.Data, d2.Data, "marginalize")

		d1, d2 = q.CloneZero(), q.CloneZero()
		if err := pl.MaxMarginalInto(p, d1, lo, hi); err != nil {
			t.Fatal(err)
		}
		if err := p.MaxMarginalIntoScalar(d2, lo, hi); err != nil {
			t.Fatal(err)
		}
		bits(d1.Data, d2.Data, "max-marginalize")

		e1, e2 := p.CloneZero(), p.CloneZero()
		if err := pl.ExtendInto(q, e1, lo, hi); err != nil {
			t.Fatal(err)
		}
		if err := q.ExtendIntoScalar(e2, lo, hi); err != nil {
			t.Fatal(err)
		}
		bits(e1.Data, e2.Data, "extend")

		// ArgMaxConsistent: the strided walk must agree with a brute-force
		// scan over every entry (first maximum wins under ties — force ties
		// by quantizing the table).
		for i := range p.Data {
			p.Data[i] = math.Floor(p.Data[i]*4) / 4
		}
		fixed := map[int]int{}
		for i := range vars {
			if rng.Intn(3) == 0 {
				fixed[vars[i]] = rng.Intn(card[i])
			}
		}
		gotI, gotV, err := p.ArgMaxConsistent(fixed)
		if err != nil {
			t.Fatal(err)
		}
		wantI, wantV := -1, 0.0
		states := make([]int, len(vars))
		for i := range p.Data {
			p.assignmentInto(i, states)
			ok := true
			for pos, v := range vars {
				if s, fixedHere := fixed[v]; fixedHere && states[pos] != s {
					ok = false
					break
				}
			}
			if ok && (wantI < 0 || p.Data[i] > wantV) {
				wantI, wantV = i, p.Data[i]
			}
		}
		if gotI != wantI || math.Float64bits(gotV) != math.Float64bits(wantV) {
			t.Fatalf("arg-max: got (%d, %v), brute force (%d, %v) with fixed %v", gotI, gotV, wantI, wantV, fixed)
		}
	})
}
