package potential

import (
	"math"
	"math/rand"
	"testing"
)

// sliceCase is one random table with evidence on the variables mask selects.
type sliceCase struct {
	vars, card []int
	ev         Evidence
	obs        Observed
	full       *Potential // random contents, some zeros
	sliced     *Potential // full gathered on obs
}

func newSliceCase(t testing.TB, rng *rand.Rand, n int, mask uint16) sliceCase {
	c := sliceCase{vars: make([]int, n), card: make([]int, n), ev: Evidence{}}
	size := 1
	for i := range c.vars {
		c.vars[i] = 2 * i // ids with gaps: the dense vector is indexed by id
		c.card[i] = 1 + rng.Intn(4)
		if size > 1<<10 {
			c.card[i] = 1 + rng.Intn(2)
		}
		size *= c.card[i]
		if mask&(1<<i) != 0 {
			c.ev[c.vars[i]] = rng.Intn(c.card[i])
		}
	}
	byID := make([]int, 2*n)
	for i, v := range c.vars {
		byID[v] = c.card[i]
	}
	var err error
	if c.obs, err = c.ev.Dense(byID, nil); err != nil {
		t.Fatal(err)
	}
	c.full = MustNew(c.vars, c.card)
	for i := range c.full.Data {
		if rng.Intn(8) != 0 {
			c.full.Data[i] = rng.Float64()
		}
	}
	sc := make([]int, n)
	c.sliced = &Potential{Vars: c.vars, Card: sc, Data: make([]float64, c.obs.SliceCard(sc, c.vars, c.card))}
	c.obs.Gather(c.sliced.Data, c.full.Data, c.vars, c.card)
	return c
}

func sameBits(t testing.TB, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: entry %d is %v, want %v", what, i, got[i], want[i])
		}
	}
}

// checkSlice holds a sliced table against Reduce: the gather keeps exactly the
// entries Reduce leaves standing, in order; scattering them back into zeros
// rebuilds the reduced table; and every kernel of the sliced (table ⊇ subset)
// plan computes, bit for bit, the slice of what the full-domain plan computes
// on the reduced table — a sum that skips +0.0 terms is the same sum.
func checkSlice(t testing.TB, rng *rand.Rand, c sliceCase, subMask uint16) {
	reduced := c.full.Clone()
	if err := reduced.Reduce(c.ev); err != nil {
		t.Fatal(err)
	}
	var kept []float64
	states := make([]int, len(c.vars))
	for idx, v := range reduced.Data {
		reduced.assignmentInto(idx, states)
		consistent := true
		for pos, id := range c.vars {
			if s, ok := c.ev[id]; ok && s != states[pos] {
				consistent = false
			}
		}
		if consistent {
			kept = append(kept, v)
		}
	}
	sameBits(t, "gather", c.sliced.Data, kept)

	back := c.full.CloneZero()
	c.obs.Scatter(back.Data, c.sliced.Data, c.vars, c.card)
	sameBits(t, "scatter", back.Data, reduced.Data)

	var sv, sc, ssc []int
	for i := range c.vars {
		if subMask&(1<<i) != 0 {
			sv = append(sv, c.vars[i])
			sc = append(sc, c.card[i])
			ssc = append(ssc, c.sliced.Card[i])
		}
	}
	fullPlan, err := NewPlan(c.vars, c.card, sv, sc)
	if err != nil {
		t.Fatal(err)
	}
	var slicedPlan Plan
	// Recompiled from a larger shape first, as a pooled plan is.
	if err := slicedPlan.Recompile(c.vars, c.card, sv, sc); err != nil {
		t.Fatal(err)
	}
	if err := slicedPlan.Recompile(c.vars, c.sliced.Card, sv, ssc); err != nil {
		t.Fatal(err)
	}
	gather := func(p *Potential) []float64 {
		out := make([]float64, Size(ssc))
		c.obs.Gather(out, p.Data, sv, sc)
		return out
	}
	for _, k := range []struct {
		name string
		run  func(pl *Plan, p, q *Potential) error
	}{
		{"marginal", func(pl *Plan, p, q *Potential) error { return pl.MarginalInto(p, q, 0, p.Len()) }},
		{"max-marginal", func(pl *Plan, p, q *Potential) error { return pl.MaxMarginalInto(p, q, 0, p.Len()) }},
	} {
		fq, sq := MustNew(sv, sc), MustNew(sv, ssc)
		if err := k.run(fullPlan, reduced, fq); err != nil {
			t.Fatal(err)
		}
		if err := k.run(&slicedPlan, c.sliced, sq); err != nil {
			t.Fatal(err)
		}
		sameBits(t, k.name, sq.Data, gather(fq))
	}
	fq := MustNew(sv, sc)
	for i := range fq.Data {
		fq.Data[i] = rng.Float64()
	}
	sq := &Potential{Vars: sv, Card: ssc, Data: gather(fq)}
	fp, sp := reduced.Clone(), c.sliced.Clone()
	if err := fullPlan.MulRange(fp, fq, 0, fp.Len()); err != nil {
		t.Fatal(err)
	}
	if err := slicedPlan.MulRange(sp, sq, 0, sp.Len()); err != nil {
		t.Fatal(err)
	}
	want := make([]float64, sp.Len())
	c.obs.Gather(want, fp.Data, c.vars, c.card)
	sameBits(t, "multiply", sp.Data, want)
}

// FuzzSlice: gathering a table on evidence is Reduce followed by dropping the
// observed dimensions, and the plan kernels cannot tell the difference — for
// random domains, cardinalities 1 to 4 and any observed subset, seeded with
// the last (fastest) variable observed, all observed (a one-entry table) and
// none.
func FuzzSlice(f *testing.F) {
	f.Add(int64(1), uint8(5), uint16(0b10000), uint16(0b01100))
	f.Add(int64(2), uint8(4), uint16(0b1111), uint16(0b0101))
	f.Add(int64(3), uint8(6), uint16(0), uint16(0b110000))
	f.Add(int64(4), uint8(11), uint16(0b000100000010), uint16(0b011111110000))
	f.Add(int64(5), uint8(0), uint16(1), uint16(1))
	f.Add(int64(6), uint8(11), uint16(0b100000000001), uint16(0b101010101011))
	f.Fuzz(func(t *testing.T, seed int64, nv uint8, mask, subMask uint16) {
		rng := rand.New(rand.NewSource(seed))
		checkSlice(t, rng, newSliceCase(t, rng, int(nv%12)+1, mask), subMask)
	})
}

func TestSliceShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, tc := range []struct {
		name string
		n    int
		mask uint16
		size int // of the sliced table, -1: whatever it is
	}{
		{"none", 6, 0, -1},
		{"all", 6, 0b111111, 1},
		{"last", 6, 0b100000, -1},
		{"first", 6, 0b000001, -1},
		{"alternating", 8, 0b01010101, -1},
		{"scalar", 0, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newSliceCase(t, rng, tc.n, tc.mask)
			if tc.size >= 0 && c.sliced.Len() != tc.size {
				t.Fatalf("sliced table has %d entries, want %d", c.sliced.Len(), tc.size)
			}
			if tc.mask == 0 && c.sliced.Len() != c.full.Len() {
				t.Fatalf("no evidence left %d of %d entries", c.sliced.Len(), c.full.Len())
			}
			for sub := uint16(0); sub < 1<<tc.n; sub += 7 {
				checkSlice(t, rng, c, sub)
			}
		})
	}
}

func TestDenseRejectsOutOfRangeState(t *testing.T) {
	card := []int{2, 0, 3}
	for _, ev := range []Evidence{{0: 2}, {2: -1}, {2: 3}} {
		if _, err := ev.Dense(card, nil); err == nil {
			t.Errorf("evidence %v accepted for cardinalities %v", ev, card)
		}
	}
	// Variables no table mentions are ignored whatever their state.
	o, err := Evidence{1: 9, 7: 1, -3: 0, 2: 2}.Dense(card, make(Observed, 8))
	if err != nil {
		t.Fatal(err)
	}
	if len(o) != 3 || o[0] != Free || o[1] != Free || o[2] != 2 {
		t.Errorf("dense evidence %v", o)
	}
	if o.State(-1) != Free || o.State(3) != Free || o.State(2) != 2 {
		t.Errorf("State outside the vector is not free: %v", o)
	}
}
