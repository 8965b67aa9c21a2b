package potential

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// Tests for the compiled walk: the plan's structural invariants, the plan
// kernels' bit-identity with the scalar reference path, and the guarantee the
// scheduler's δ-snapping relies on — a range op split at arbitrary points
// (including mid-run and mid-tile) composes to the whole-table result bit for
// bit.

// checkPlan brute-forces the plan's claim against the scalar odometer: blocks
// tile the table, the cursor — stepped or sought — holds the subset index of
// every block's first entry, and inside a block the subset index is constant,
// advances by one per entry, or follows the offset tile, as the shape says.
func checkPlan(t *testing.T, supVars, supCard, subVars, subCard []int) {
	t.Helper()
	for _, compile := range []func(supVars, supCard, subVars, subCard []int) (*Plan, error){NewPlan, NewRunPlan} {
		pl, err := compile(supVars, supCard, subVars, subCard)
		if err != nil {
			t.Fatalf("plan for (%v,%v): %v", supVars, subVars, err)
		}
		checkWalk(t, pl, supVars, supCard, subVars, subCard)
	}
	if pl, _ := NewRunPlan(supVars, supCard, subVars, subCard); pl.shape == tiled {
		t.Fatalf("sup %v sub %v: the run-only plan carries a tile", supVars, subVars)
	}
}

// checkTileForm holds a classified tile to its form, offset by offset: the
// packed tile leaves read it at stride 2 or 4 and trust the rest, and read no
// further into the subset table than the span.
func checkTileForm(t *testing.T, pl *Plan) {
	t.Helper()
	if pl.form == gather {
		return
	}
	tile, step := pl.tile, 2
	if pl.form == quad {
		step = 4
	}
	if len(tile)%step != 0 || pl.span != int(slices.Max(tile))+1 {
		t.Fatalf("form %d on a tile of %d entries with span %d, largest offset %d", pl.form, len(tile), pl.span, slices.Max(tile))
	}
	for k := 0; k < len(tile); k += 2 {
		ok := tile[k+1] == tile[k]
		switch {
		case pl.form == adjacent:
			ok = tile[k+1] == tile[k]+1
		case pl.form == quad && k%4 == 0:
			ok = ok && tile[k+2] == tile[k]+1
		}
		if !ok {
			t.Fatalf("form %d: tile %v breaks it at entry %d", pl.form, tile, k)
		}
	}
}

func checkWalk(t *testing.T, pl *Plan, supVars, supCard, subVars, subCard []int) {
	t.Helper()
	a, err := newAligner(supVars, supCard, subVars, subCard)
	if err != nil {
		t.Fatalf("newAligner(%v,%v): %v", supVars, subVars, err)
	}
	n := Size(supCard)
	if pl.supSize != n || pl.subSize != Size(subCard) {
		t.Fatalf("sup %v sub %v: plan sizes %d/%d, domains %d/%d", supVars, subVars, pl.supSize, pl.subSize, n, Size(subCard))
	}
	if pl.block < 1 || n%pl.block != 0 {
		t.Fatalf("sup %v sub %v: block %d does not tile table of %d", supVars, subVars, pl.block, n)
	}
	if pl.shape == tiled {
		if len(pl.tile) != pl.block || pl.block > tileMax || (pl.block < tileMin && pl.block != n) {
			t.Fatalf("sup %v/%v sub %v: tile of %d entries for block %d, table %d", supVars, supCard, subVars, len(pl.tile), pl.block, n)
		}
		checkTileForm(t, pl)
	} else if pl.tile != nil {
		t.Fatalf("sup %v sub %v: run-shaped plan carries a tile", supVars, subVars)
	}
	// Walk the whole table with the scalar odometer, recording subIdx.
	subAt := make([]int, n)
	a.seek(0)
	for i := 0; i < n; i++ {
		subAt[i] = a.subIdx
		a.next()
	}
	var c, sought cursor
	if base := pl.seek(&c, 0); base != 0 {
		t.Fatalf("sup %v sub %v: seek(0) lands on %d", supVars, subVars, base)
	}
	for base := 0; base < n; base += pl.block {
		if c.sub != subAt[base] {
			t.Fatalf("sup %v sub %v: cursor at block %d has subIdx %d, scalar walk %d", supVars, subVars, base, c.sub, subAt[base])
		}
		mid := base + (base/pl.block)%pl.block
		if got := pl.seek(&sought, mid); got != base || sought.sub != c.sub {
			t.Fatalf("sup %v sub %v: seek(%d) gives block %d subIdx %d, want %d and %d", supVars, subVars, mid, got, sought.sub, base, c.sub)
		}
		for k := 0; k < pl.block; k++ {
			want := subAt[base]
			switch pl.shape {
			case contigRun:
				want += k
			case tiled:
				want += int(pl.tile[k])
			}
			if subAt[base+k] != want {
				t.Fatalf("sup %v/%v sub %v: block at %d, offset %d: subIdx %d, plan %d (block %d shape %d)",
					supVars, supCard, subVars, base, k, subAt[base+k], want, pl.block, pl.shape)
			}
		}
		pl.next(&c)
	}
	// PartitionGrain: exactly the maximal constant-run length, or 1 when the
	// trailing variable is shared. Two references, neither of them
	// PartitionGrain's own merge of the variable lists: the trailing
	// dimensions the aligner gives stride 0, and the longest aligned trailing
	// run over which the scalar walk's subIdx does not move. The two part ways
	// only over a shared variable of cardinality 1, which ends the absent
	// suffix without ever moving subIdx.
	wantGrain, sharedUnit := 1, false
	for i := len(supCard) - 1; i >= 0 && a.subStride[i] == 0; i-- {
		wantGrain *= supCard[i]
	}
	for i, s := range a.subStride {
		sharedUnit = sharedUnit || (s != 0 && supCard[i] == 1)
	}
	if g := PartitionGrain(supVars, supCard, subVars); g != wantGrain {
		t.Fatalf("sup %v/%v sub %v: PartitionGrain %d, plan wants %d", supVars, supCard, subVars, g, wantGrain)
	}
	if walked := constantRun(subAt, supCard); walked != wantGrain && !(sharedUnit && walked%wantGrain == 0) {
		t.Fatalf("sup %v/%v sub %v: subIdx is constant over aligned runs of %d, PartitionGrain says %d", supVars, supCard, subVars, walked, wantGrain)
	}
}

// constantRun is the longest run length — a product of trailing cardinalities
// — such that subAt is constant over every aligned run of it.
func constantRun(subAt, card []int) int {
	g := 1
	for i := len(card) - 1; i >= 0; i-- {
		for j := range subAt {
			if subAt[j] != subAt[j-j%(g*card[i])] {
				return g
			}
		}
		g *= card[i]
	}
	return g
}

// wideDomain draws a domain wide enough for tiles with an odometer above
// them: 8 to 13 variables, mostly binary, a few with three states.
func wideDomain(rng *rand.Rand) (vars, card []int) {
	n := 8 + rng.Intn(6)
	for i := 0; i < n; i++ {
		vars = append(vars, 2*i+rng.Intn(2))
		card = append(card, 2+rng.Intn(5)/4)
	}
	return vars, card
}

// dropOne is the separator shape of the benchmark's junction trees: every
// variable of the clique but the one at position miss.
func dropOne(vars, card []int, miss int) (sv, sc []int) {
	sv = append(append(sv, vars[:miss]...), vars[miss+1:]...)
	sc = append(append(sc, card[:miss]...), card[miss+1:]...)
	return sv, sc
}

// testPair draws the domains of one randomized kernel trial: small random
// pairs, wide random pairs, and wide cliques over a drop-one separator (the
// missing variable near the end leaves the short runs tiles exist for).
func testPair(rng *rand.Rand, trial int) (vars, card, sv, sc []int) {
	switch trial % 3 {
	case 0:
		vars, card = randomDomain(rng, 6)
		sv, sc = subDomain(rng, vars, card)
	case 1:
		vars, card = wideDomain(rng)
		sv, sc = subDomain(rng, vars, card)
	default:
		vars, card = wideDomain(rng)
		miss := len(vars) - 1 - rng.Intn(4)
		if rng.Intn(4) == 0 {
			miss = rng.Intn(len(vars))
		}
		sv, sc = dropOne(vars, card, miss)
	}
	return vars, card, sv, sc
}

func TestRunPlanInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// Directed shapes first: trailing absent, trailing shared, interleaved,
	// equal domains, scalar subset, cardinality-1 dims.
	cases := []struct {
		supVars, supCard, subVars []int
		grain                     int
	}{
		{[]int{0, 1, 2}, []int{2, 3, 4}, []int{0}, 12},         // trailing absent
		{[]int{0, 1, 2}, []int{2, 3, 4}, []int{2}, 1},          // leading absent, trailing shared
		{[]int{0, 1, 2}, []int{2, 3, 4}, []int{1, 2}, 1},       // dense suffix
		{[]int{0, 1, 2}, []int{2, 3, 4}, []int{0, 2}, 1},       // interleaved
		{[]int{0, 1, 2}, []int{2, 3, 4}, []int{0, 1, 2}, 1},    // equal domains
		{[]int{0, 1, 2}, []int{2, 3, 4}, nil, 24},              // scalar subset
		{[]int{0, 1, 2, 3}, []int{2, 1, 3, 1}, []int{1, 3}, 1}, // card-1 dims: the shared unit variable ends the suffix
		{[]int{0, 1, 2, 3}, []int{2, 1, 3, 1}, []int{1}, 3},    // card-1 dims: absent unit variable, shared one above the run
		{nil, nil, nil, 1}, // scalar superset
	}
	for _, c := range cases {
		subCard := make([]int, len(c.subVars))
		for i, v := range c.subVars {
			for j, sv := range c.supVars {
				if sv == v {
					subCard[i] = c.supCard[j]
				}
			}
		}
		if g := PartitionGrain(c.supVars, c.supCard, c.subVars); g != c.grain {
			t.Errorf("sup %v/%v sub %v: PartitionGrain %d, want %d", c.supVars, c.supCard, c.subVars, g, c.grain)
		}
		checkPlan(t, c.supVars, c.supCard, c.subVars, subCard)
	}
	for i := 0; i < 300; i++ {
		vars, card, sv, sc := testPair(rng, i)
		checkPlan(t, vars, card, sv, sc)
	}
	// Seventeen binary variables, one dropped: the shapes of wide60's edges.
	// Dropping one of the last four leaves runs shorter than tileRunMax: the
	// plan must tile them, and walk the table in no more odometer steps (one
	// per block) than the long-run reference longRef, which drops variable 8
	// and runs 256 entries. This is the counted half of the short-run property;
	// BenchmarkKernelShortRuns times it.
	vars, card := make([]int, 17), make([]int, 17)
	for i := range vars {
		vars[i], card[i] = i, 2
	}
	sv, sc := dropOne(vars, card, 8)
	ref, err := NewPlan(vars, card, sv, sc)
	if err != nil {
		t.Fatal(err)
	}
	refSteps := ref.supSize / ref.block
	for _, miss := range []int{16, 15, 14, 13, 12, 8, 0} {
		sv, sc := dropOne(vars, card, miss)
		checkPlan(t, vars, card, sv, sc)
		pl, err := NewPlan(vars, card, sv, sc)
		if err != nil {
			t.Fatal(err)
		}
		short := miss > 12
		if (pl.shape == tiled) != short {
			t.Errorf("miss %d: shape %d block %d, want tiled=%v", miss, pl.shape, pl.block, short)
		}
		if steps := pl.supSize / pl.block; short && steps > refSteps {
			t.Errorf("miss %d: %d odometer steps over %d entries, %s takes %d", miss, steps, pl.supSize, longRef, refSteps)
		}
	}
	// A tile would overshoot tileMax: short runs under a huge dimension fall
	// back to the run walk.
	pl, err := NewPlan([]int{0, 1, 2}, []int{3, 5000, 2}, []int{0, 1}, []int{3, 5000})
	if err != nil {
		t.Fatal(err)
	}
	if pl.shape != constRun || pl.block != 2 || pl.tile != nil {
		t.Errorf("oversized tile: shape %d block %d tile %d entries", pl.shape, pl.block, len(pl.tile))
	}
}

// TestPlanRefusesWrongTables: a plan is compiled for two table sizes and a
// kernel handed anything else — the potentials of another edge, swapped
// arguments, a range past the end — reports it instead of indexing out of
// bounds.
func TestPlanRefusesWrongTables(t *testing.T) {
	vars, card := []int{0, 1, 2, 3}, []int{2, 3, 2, 2}
	sv, sc := dropOne(vars, card, 2)
	pl, err := NewPlan(vars, card, sv, sc)
	if err != nil {
		t.Fatal(err)
	}
	sup, sub := MustNew(vars, card), MustNew(sv, sc)
	small, big := MustNew(vars[:2], card[:2]), MustNew([]int{0, 1, 2, 3, 4}, []int{2, 3, 2, 2, 2})
	kernels := map[string]func(a, b *Potential, lo, hi int) error{
		"multiply":     pl.MulRange,
		"divide":       pl.DivRange,
		"marginal":     pl.MarginalInto,
		"max-marginal": pl.MaxMarginalInto,
		"extend":       func(a, b *Potential, lo, hi int) error { return pl.ExtendInto(b, a, lo, hi) },
	}
	for name, k := range kernels {
		if err := k(sup, sub, 0, sup.Len()); err != nil {
			t.Errorf("%s on the planned tables: %v", name, err)
		}
		for _, bad := range []struct {
			what   string
			a, b   *Potential
			lo, hi int
		}{
			{"superset too small", small, sub, 0, small.Len()},
			{"superset too large", big, sub, 0, sup.Len()},
			{"subset too small", sup, small, 0, sup.Len()},
			{"subset too large", sup, sup, 0, sup.Len()},
			{"swapped", sub, sup, 0, sub.Len()},
			{"range past the end", sup, sub, 0, sup.Len() + 1},
			{"range reversed", sup, sub, 5, 4},
			{"negative range", sup, sub, -1, 4},
		} {
			if err := k(bad.a, bad.b, bad.lo, bad.hi); err == nil {
				t.Errorf("%s: %s accepted", name, bad.what)
			}
		}
	}
	if _, err := NewPlan(vars, card, []int{1, 7}, []int{3, 2}); err == nil {
		t.Error("NewPlan accepted a subset variable the superset lacks")
	}
	if _, err := NewPlan(vars, card, []int{1}, []int{2}); err == nil {
		t.Error("NewPlan accepted a cardinality mismatch")
	}
	if _, err := NewPlan(vars, card[:3], sv, sc); err == nil {
		t.Error("NewPlan accepted a domain with fewer cardinalities than variables")
	}
}

// splitPoints draws k random cut points in [lo, hi], unaligned to anything —
// the resulting pieces deliberately start and end mid-run.
func splitPoints(rng *rand.Rand, lo, hi, k int) []int {
	cuts := []int{lo}
	for i := 0; i < k; i++ {
		if hi > lo {
			cuts = append(cuts, lo+rng.Intn(hi-lo+1))
		}
	}
	cuts = append(cuts, hi)
	sort.Ints(cuts)
	return cuts
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// rangeKernels is the five range primitives of one domain pair behind one
// signature, the superset table first.
type rangeKernels struct {
	name                         string
	mul, div, marg, maxMarg, ext func(sup, sub *Potential, lo, hi int) error
}

// kernelForms returns the two production forms of the primitives for a
// domain pair — the one-off methods, which compile a run-only plan per call,
// and the kernels of the tiled plan the engines cache — and the per-entry
// reference both must match.
func kernelForms(t *testing.T, vars, card, sv, sc []int) (forms []rangeKernels, scalar rangeKernels) {
	t.Helper()
	pl, err := NewPlan(vars, card, sv, sc)
	if err != nil {
		t.Fatal(err)
	}
	forms = []rangeKernels{
		{"one-off", (*Potential).MulRange, (*Potential).DivRange, (*Potential).MarginalInto, (*Potential).MaxMarginalInto,
			func(sup, sub *Potential, lo, hi int) error { return sub.ExtendInto(sup, lo, hi) }},
		{"plan", pl.MulRange, pl.DivRange, pl.MarginalInto, pl.MaxMarginalInto,
			func(sup, sub *Potential, lo, hi int) error { return pl.ExtendInto(sub, sup, lo, hi) }},
	}
	scalar = rangeKernels{"scalar", (*Potential).MulRangeScalar, (*Potential).DivRangeScalar,
		(*Potential).MarginalIntoScalar, (*Potential).MaxMarginalIntoScalar,
		func(sup, sub *Potential, lo, hi int) error { return sub.ExtendIntoScalar(sup, lo, hi) }}
	return forms, scalar
}

// rangeOp is one primitive of a rangeKernels applied to fresh copies of a
// (clique, separator) pair of tables.
type rangeOp struct {
	name  string
	pick  func(rangeKernels) func(sup, sub *Potential, lo, hi int) error
	fresh func() (sup, sub, out *Potential)
}

// rangeOps lists the primitives over p ⊇ q: multiply and divide rewrite a
// copy of p, the marginalizations accumulate into a zeroed copy of q, extend
// fills a zeroed copy of p.
func rangeOps(p, q *Potential) []rangeOp {
	inPlace := func() (sup, sub, out *Potential) { w := p.Clone(); return w, q, w }
	reduce := func() (sup, sub, out *Potential) { d := q.CloneZero(); return p, d, d }
	fill := func() (sup, sub, out *Potential) { d := p.CloneZero(); return d, q, d }
	type kernel = func(sup, sub *Potential, lo, hi int) error
	return []rangeOp{
		{"multiply", func(k rangeKernels) kernel { return k.mul }, inPlace},
		{"divide", func(k rangeKernels) kernel { return k.div }, inPlace},
		{"marginalize", func(k rangeKernels) kernel { return k.marg }, reduce},
		{"max-marginalize", func(k rangeKernels) kernel { return k.maxMarg }, reduce},
		{"extend", func(k rangeKernels) kernel { return k.ext }, fill},
	}
}

// apply runs the op's kernel from k over the pieces cuts delimits, in order,
// and returns the table it wrote.
func (o rangeOp) apply(k rangeKernels, cuts ...int) ([]float64, error) {
	sup, sub, out := o.fresh()
	for i := 1; i < len(cuts); i++ {
		if err := o.pick(k)(sup, sub, cuts[i-1], cuts[i]); err != nil {
			return nil, err
		}
	}
	return out.Data, nil
}

// TestRangeSplitBitIdentical is the δ-snapping guard: every primitive's
// range form, split at arbitrary (including mid-run and mid-tile) points and
// applied piece by piece in order, must compose to the whole-table result
// bit-identically. Marginalize pieces accumulate into the same destination
// sequentially, matching the unpartitioned execution order.
func TestRangeSplitBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 400; trial++ {
		vars, card, sv, sc := testPair(rng, trial)
		p := randomPotential(rng, vars, card)
		q := randomPotential(rng, sv, sc)
		if trial%5 == 0 {
			// Exercise the 0/0 = 0 division path and max ties.
			q.Data[rng.Intn(len(q.Data))] = 0
			p.Data[rng.Intn(len(p.Data))] = 0
		}
		n := len(p.Data)
		cuts := splitPoints(rng, 0, n, 1+rng.Intn(4))
		forms, _ := kernelForms(t, vars, card, sv, sc)
		for _, k := range forms {
			for _, o := range rangeOps(p, q) {
				w, err := o.apply(k, 0, n)
				if err != nil {
					t.Fatal(err)
				}
				s, err := o.apply(k, cuts...)
				if err != nil {
					t.Fatal(err)
				}
				if !bitsEqual(w, s) {
					t.Fatalf("trial %d %s %s: split at %v diverges from whole (sup %v/%v sub %v)",
						trial, k.name, o.name, cuts, vars, card, sv)
				}
			}
		}
	}
}

// TestExtendIsMulOverOnes is what lets a CPT-free clique start as its first
// message (taskgraph.State): a plan's ExtendInto over any split of the
// superset table writes the bits MulRangeFrom writes over a source of ones —
// 1.0 × x is x for every x, zeros of either sign and zero itself included —
// in all three block shapes.
func TestExtendIsMulOverOnes(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	shapes := map[blockShape]int{}
	for trial := 0; trial < 300; trial++ {
		vars, card, sv, sc := testPair(rng, trial)
		pl, err := NewPlan(vars, card, sv, sc)
		if err != nil {
			t.Fatal(err)
		}
		shapes[pl.shape]++
		q := randomPotential(rng, sv, sc)
		q.Data[rng.Intn(len(q.Data))] = 0
		q.Data[rng.Intn(len(q.Data))] = math.Copysign(0, -1)
		ones, ext, mul := MustNew(vars, card), MustNew(vars, card), MustNew(vars, card)
		for i := range ones.Data {
			ones.Data[i] = 1
		}
		cuts := splitPoints(rng, 0, len(ones.Data), rng.Intn(5))
		for i := 1; i < len(cuts); i++ {
			if err := pl.ExtendInto(q, ext, cuts[i-1], cuts[i]); err != nil {
				t.Fatal(err)
			}
			if err := pl.MulRangeFrom(mul, ones, q, cuts[i-1], cuts[i]); err != nil {
				t.Fatal(err)
			}
		}
		if !bitsEqual(ext.Data, mul.Data) {
			t.Fatalf("trial %d: extend split at %v differs from multiplying ones (sup %v/%v sub %v, shape %d)",
				trial, cuts, vars, card, sv, pl.shape)
		}
	}
	if len(shapes) != 3 {
		t.Fatalf("the trials met block shapes %v, want all three", shapes)
	}
}

// TestBlockedMatchesScalarBitIdentical pins the blocked kernels to the
// per-entry reference implementations over random subranges.
func TestBlockedMatchesScalarBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 400; trial++ {
		vars, card, sv, sc := testPair(rng, trial)
		p := randomPotential(rng, vars, card)
		q := randomPotential(rng, sv, sc)
		if trial%4 == 0 {
			q.Data[rng.Intn(len(q.Data))] = 0
		}
		n := len(p.Data)
		lo := rng.Intn(n + 1)
		hi := lo + rng.Intn(n-lo+1)
		forms, scalar := kernelForms(t, vars, card, sv, sc)
		for _, k := range forms {
			for _, o := range rangeOps(p, q) {
				b, errB := o.apply(k, lo, hi)
				s, errS := o.apply(scalar, lo, hi)
				if (errB == nil) != (errS == nil) {
					t.Fatalf("trial %d %s %s: blocked err %v, scalar err %v", trial, k.name, o.name, errB, errS)
				}
				if errB == nil && !bitsEqual(b, s) {
					t.Fatalf("trial %d %s %s: blocked diverges from scalar on [%d,%d) (sup %v/%v sub %v)",
						trial, k.name, o.name, lo, hi, vars, card, sv)
				}
			}
		}
	}
}
