package potential

import "fmt"

// A Plan is the compiled walk of one (superset ⊇ subset) domain pair: how to
// visit the superset table's linear indices in order while knowing, for each,
// the aligned linear index of the subset table. Every primitive that pairs a
// clique table with a separator table — multiply, divide, extend, sum- and
// max-marginalize — is one pass over that walk, so the walk is compiled once
// per pair (taskgraph caches the two plans of every tree edge on the Graph)
// and a message then costs its arithmetic, not its bookkeeping.
//
// A plan cuts the superset index space into equal blocks of consecutive
// entries and picks one of three shapes for the inside of a block:
//
//   - constant run: the trailing superset variables are absent from the
//     subset, so one subset entry serves the whole block;
//   - contiguous run: the trailing superset variables are shared with the
//     subset (and dense there), so the subset index advances with the
//     superset index;
//   - tile: the natural runs are short (fewer than tileRunMax entries, which
//     is what dropping one variable near the end of a clique leaves), so the
//     block is the smallest suffix of dimensions with at least tileMin
//     entries and the plan stores, per entry of the block, the subset offset
//     relative to the block's first entry. The kernel then gathers through
//     that table instead of stepping an odometer every two or four entries.
//
// Across blocks the subset index is stepped by an odometer over the leading
// dimensions, merged into groups: adjacent dimensions that are all absent
// from the subset, or all shared with it, count as one digit.
//
// A Plan is immutable once compiled (Recompile, between runs, is its owner's
// affair) and holds no walk position — the cursor lives on the stack of the
// kernel call — so any number of goroutines (the pieces of one partitioned
// task, concurrent propagations over one graph) share it without allocation or
// synchronization.
type Plan struct {
	// The table sizes, in entries, the plan was compiled for; the kernels
	// refuse tables of any other size.
	supSize, subSize int

	// The block odometer, slowest group first.
	card   []int // states of each group
	stride []int // subset stride of each group, 0 when its variables are absent

	block int        // entries per block; divides supSize
	shape blockShape // what the subset index does inside a block
	tile  []int32    // shape == tiled: subset offset of each entry of a block

	buf []int // backs card and stride; kept so that Recompile can reuse it
}

type blockShape uint8

const (
	constRun blockShape = iota
	contigRun
	tiled
)

const (
	// tileRunMax is the run length below which stepping the odometer per run
	// costs more than gathering per entry (cmd/evkernels measures both).
	tileRunMax = 16
	// tileMin is the least number of entries a tile amortizes one odometer
	// step over; tileMax bounds what a plan may store (a suffix can overshoot
	// tileMin by the cardinality of its first dimension).
	tileMin = 256
	tileMax = 4096
	// maxGroups bounds the cursor. Groups alternate between absent and shared
	// and hold at least two states each, so a table New accepts (at most 2^40
	// entries) never has more.
	maxGroups = 40
)

// cursor is the walk position of one kernel call: the odometer digits of the
// current block and the subset index of the block's first entry.
type cursor struct {
	digit [maxGroups]int
	sub   int
}

// NewPlan compiles the walk from the superset domain (supVars, supCard) to
// the subset domain (subVars, subCard). Both variable lists must be strictly
// ascending, every subset variable must appear in the superset, and with the
// same cardinality.
func NewPlan(supVars, supCard, subVars, subCard []int) (*Plan, error) {
	return newPlan(supVars, supCard, subVars, subCard, true)
}

// NewRunPlan is NewPlan without the tile: blocks are the natural runs however
// short they are. Compiling it allocates one short slice and walks no table,
// so it is the plan of a kernel call that will not be repeated (the one-off
// forms in ops.go); cmd/evkernels also times it against NewPlan on short-run
// shapes, which is what justifies tileRunMax.
func NewRunPlan(supVars, supCard, subVars, subCard []int) (*Plan, error) {
	return newPlan(supVars, supCard, subVars, subCard, false)
}

func newPlan(supVars, supCard, subVars, subCard []int, tiles bool) (*Plan, error) {
	pl := &Plan{}
	if err := pl.compile(supVars, supCard, subVars, subCard, tiles); err != nil {
		return nil, err
	}
	return pl, nil
}

// Recompile makes pl the plan NewPlan would return for another domain pair,
// reusing its storage: a plan that is recompiled between runs — the pair of a
// clique and a separator sliced on this query's evidence — costs no allocation
// once it has seen its largest shape. It is the one exception to a plan's
// immutability, so the caller must own pl outright: no kernel call on it may
// be in flight or start before Recompile returns. A plan that failed to
// recompile refuses every table.
func (pl *Plan) Recompile(supVars, supCard, subVars, subCard []int) error {
	return pl.compile(supVars, supCard, subVars, subCard, true)
}

func (pl *Plan) compile(supVars, supCard, subVars, subCard []int, tiles bool) error {
	// One backing array for the subset stride and the cardinality of every
	// superset dimension; both are compacted in place, first to the dimensions
	// that move, then to the groups of the block odometer.
	n := len(supVars)
	if cap(pl.buf) < 2*n {
		pl.buf = make([]int, 2*n)
	}
	stride, card := pl.buf[:n:n], pl.buf[n:2*n]
	pl.supSize, pl.subSize = -1, -1
	if err := subStrides(stride, supVars, supCard, subVars, subCard); err != nil {
		return err
	}
	// Single-state dimensions never move the subset index: drop them, so the
	// rest alternate cleanly between absent and shared.
	m := 0
	for i, c := range supCard {
		if c != 1 {
			card[m], stride[m] = c, stride[i]
			m++
		}
	}
	card, stride = card[:m], stride[:m]
	pl.block, pl.shape = 1, constRun

	// The natural run: the maximal trailing dimensions that are all absent
	// (constant subset index) or all shared (adjacent shared dimensions are
	// adjacent in the subset too, so the subset index advances by one).
	i := len(card) - 1
	if i >= 0 && stride[i] != 0 {
		pl.shape = contigRun
	}
	for ; i >= 0 && (stride[i] != 0) == (pl.shape == contigRun); i-- {
		pl.block *= card[i]
	}
	if tiles && pl.block < tileRunMax && i >= 0 {
		j, size := i, pl.block
		for ; j >= 0 && size < tileMin; j-- {
			size *= card[j]
		}
		if size <= tileMax {
			pl.shape, pl.block = tiled, size
			pl.buildTile(card[j+1:], stride[j+1:], size)
			i = j
		}
	}

	// Merge the dimensions above the block into groups; group g is written at
	// or before the dimension it was read from.
	g := 0
	for k := 0; k <= i; k++ {
		if g > 0 && (stride[g-1] != 0) == (stride[k] != 0) {
			card[g-1] *= card[k]
			stride[g-1] = stride[k]
			continue
		}
		card[g], stride[g] = card[k], stride[k]
		g++
	}
	if g > maxGroups {
		return fmt.Errorf("potential: domain of %d variables is too large to plan", len(supVars))
	}
	pl.card, pl.stride = card[:g:g], stride[:g:g]
	pl.supSize, pl.subSize = Size(supCard), Size(subCard)
	return nil
}

// buildTile records the subset offset of each of the size entries spanned by
// the given dimensions, one dimension at a time from the fastest: the offsets
// of a dimension's first state are those of everything below it, and each
// further state repeats them one stride on. A plan that is recompiled per run
// pays this once per run, so it is a flat add per entry, not an odometer step.
func (pl *Plan) buildTile(card, stride []int, size int) {
	if cap(pl.tile) < size {
		pl.tile = make([]int32, size)
	}
	pl.tile = pl.tile[:size]
	pl.tile[0] = 0
	n := 1
	for d := len(card) - 1; d >= 0; d-- {
		below := pl.tile[:n]
		for s := 1; s < card[d]; s++ {
			off := int32(s * stride[d])
			for k, o := range below {
				pl.tile[s*n+k] = o + off
			}
		}
		n *= card[d]
	}
}

// subStrides validates subVars ⊆ supVars (both ascending, cardinalities
// agreeing) and fills stride with, per superset variable, its stride in the
// row-major subset table — 0 for a variable the subset lacks.
func subStrides(stride, supVars, supCard, subVars, subCard []int) error {
	if len(supVars) != len(supCard) || len(subVars) != len(subCard) {
		return fmt.Errorf("potential: %d/%d variables but %d/%d cardinalities",
			len(supVars), len(subVars), len(supCard), len(subCard))
	}
	// Last variable first: the subset's own stride accumulates on the way.
	j, acc := len(subVars)-1, 1
	for i := len(supVars) - 1; i >= 0; i-- {
		stride[i] = 0
		if j < 0 || subVars[j] < supVars[i] {
			continue
		}
		if subVars[j] > supVars[i] {
			break
		}
		if subCard[j] != supCard[i] {
			return fmt.Errorf("potential: variable %d has cardinality %d and %d", supVars[i], supCard[i], subCard[j])
		}
		stride[i] = acc
		acc *= subCard[j]
		j--
	}
	if j >= 0 {
		return fmt.Errorf("potential: variable %d of subset not present in superset %v", subVars[j], supVars)
	}
	return nil
}

// check validates one kernel call: both tables of the planned sizes and
// [lo, hi) inside the superset.
func (pl *Plan) check(op string, sup, sub, lo, hi int) error {
	if sup != pl.supSize || sub != pl.subSize {
		return fmt.Errorf("%s: tables of %d and %d entries given to a plan for %d and %d",
			op, sup, sub, pl.supSize, pl.subSize)
	}
	if err := checkRange(lo, hi, sup); err != nil {
		return fmt.Errorf("%s: %w", op, err)
	}
	return nil
}

// seek positions the cursor on the block holding superset index idx and
// returns that block's first index.
func (pl *Plan) seek(c *cursor, idx int) int {
	b := idx / pl.block
	base := b * pl.block
	c.sub = 0
	for i := len(pl.card) - 1; i >= 0; i-- {
		d := b % pl.card[i]
		b /= pl.card[i]
		c.digit[i] = d
		c.sub += d * pl.stride[i]
	}
	return base
}

// next moves the cursor to the following block, O(1) amortized.
func (pl *Plan) next(c *cursor) {
	for i := len(pl.card) - 1; i >= 0; i-- {
		c.digit[i]++
		c.sub += pl.stride[i]
		if c.digit[i] < pl.card[i] {
			return
		}
		c.digit[i] = 0
		c.sub -= pl.card[i] * pl.stride[i]
	}
}
